#include "models/classifiers.h"

#include <stdexcept>

#include "models/blocks.h"

namespace sysnoise::models {

using namespace sysnoise::nn;

namespace {

// ---------------------------------------------------------------------------
// ResNet-mini (stride-2 max-pool stem => ceil-mode noise applies)
// ---------------------------------------------------------------------------

class ResNetMini : public Classifier {
 public:
  ResNetMini(std::vector<int> widths, std::vector<int> depths, int num_classes,
             Rng& rng)
      : stem_(3, widths[0], 3, 1, 1, rng, "stem") {
    int in = widths[0];
    for (std::size_t s = 0; s < widths.size(); ++s) {
      for (int b = 0; b < depths[s]; ++b) {
        const int stride = (s > 0 && b == 0) ? 2 : 1;
        blocks_.push_back(std::make_unique<ResidualBlock>(
            in, widths[s], stride, rng,
            "s" + std::to_string(s) + "b" + std::to_string(b), ".down"));
        in = widths[s];
      }
    }
    head_ = Linear(in, num_classes, rng, "head");
  }

  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = stem_(t, x, bn);
    y = maxpool2d(t, y, 3, 2, 1);  // ceil-mode knob acts here
    for (auto& b : blocks_) y = (*b)(t, y, bn);
    return head_(t, global_avgpool(t, y));
  }
  void walk(ModuleRefs& refs) override { refs.add(stem_, blocks_, head_); }
  bool has_maxpool() const override { return true; }

 private:
  ConvBn stem_;
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  Linear head_;
};

// ---------------------------------------------------------------------------
// MobileNetV2-mini (inverted residuals, depthwise convs, no max-pool)
// ---------------------------------------------------------------------------

struct InvertedResidual {
  std::unique_ptr<ConvBn> expand;  // 1x1 (skipped when t == 1)
  ConvBn dw;
  Conv2d project;
  BatchNorm2d bn_p;
  bool use_skip;
  InvertedResidual(int in, int out, int stride, int expand_ratio, Rng& rng,
                   const std::string& id)
      : dw(in * expand_ratio, in * expand_ratio, 3, stride, 1, rng, id + ".dw",
           /*groups=*/in * expand_ratio),
        project(in * expand_ratio, out, 1, 1, 0, rng, id + ".proj", 1, false),
        bn_p(out),
        use_skip(stride == 1 && in == out) {
    if (expand_ratio != 1)
      expand = std::make_unique<ConvBn>(in, in * expand_ratio, 1, 1, 0, rng,
                                        id + ".exp");
  }
  Node* operator()(Tape& t, Node* x, BnMode mode) {
    Node* y = expand ? (*expand)(t, x, mode) : x;
    y = dw(t, y, mode);
    y = bn_p(t, project(t, y), mode);  // linear bottleneck: no activation
    return use_skip ? add(t, y, x) : y;
  }
  void walk(ModuleRefs& refs) { refs.add(expand, dw, project, bn_p); }
};

class MobileNetMini : public Classifier {
 public:
  MobileNetMini(float width, int num_classes, Rng& rng)
      : stem_(3, ch(8, width), 3, 1, 1, rng, "stem") {
    const int c0 = ch(8, width), c1 = ch(16, width), c2 = ch(24, width),
              c3 = ch(32, width);
    blocks_.push_back(std::make_unique<InvertedResidual>(c0, c1, 2, 2, rng, "b0"));
    blocks_.push_back(std::make_unique<InvertedResidual>(c1, c1, 1, 2, rng, "b1"));
    blocks_.push_back(std::make_unique<InvertedResidual>(c1, c2, 2, 2, rng, "b2"));
    blocks_.push_back(std::make_unique<InvertedResidual>(c2, c2, 1, 2, rng, "b3"));
    blocks_.push_back(std::make_unique<InvertedResidual>(c2, c3, 2, 2, rng, "b4"));
    head_ = Linear(c3, num_classes, rng, "head");
  }
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = stem_(t, x, bn);
    for (auto& b : blocks_) y = (*b)(t, y, bn);
    return head_(t, global_avgpool(t, y));
  }
  void walk(ModuleRefs& refs) override { refs.add(stem_, blocks_, head_); }

 private:
  static int ch(int base, float width) {
    return std::max(4, static_cast<int>(base * width + 0.5f));
  }
  ConvBn stem_;
  std::vector<std::unique_ptr<InvertedResidual>> blocks_;
  Linear head_;
};

// ---------------------------------------------------------------------------
// RegNetX-mini (grouped-conv residual bottlenecks)
// ---------------------------------------------------------------------------

struct XBlock {
  ConvBn a;  // 1x1
  ConvBn b;  // 3x3 grouped
  Conv2d c;  // 1x1
  BatchNorm2d bn_c;
  std::unique_ptr<ConvBn> down;
  XBlock(int in, int out, int stride, int group_width, Rng& rng,
         const std::string& id)
      : a(in, out, 1, 1, 0, rng, id + ".a"),
        b(out, out, 3, stride, 1, rng, id + ".b", std::max(1, out / group_width)),
        c(out, out, 1, 1, 0, rng, id + ".c", 1, false),
        bn_c(out) {
    if (stride != 1 || in != out)
      down = std::make_unique<ConvBn>(in, out, 1, stride, 0, rng, id + ".down");
  }
  Node* operator()(Tape& t, Node* x, BnMode mode) {
    Node* y = a(t, x, mode);
    y = b(t, y, mode);
    y = bn_c(t, c(t, y), mode);
    Node* skip = down ? (*down)(t, x, mode, false) : x;
    return relu(t, add(t, y, skip));
  }
  void walk(ModuleRefs& refs) { refs.add(a, b, c, bn_c, down); }
};

class RegNetMini : public Classifier {
 public:
  RegNetMini(int base_width, int depth, int num_classes, Rng& rng)
      : stem_(3, base_width, 3, 2, 1, rng, "stem") {
    int in = base_width;
    for (int i = 0; i < depth; ++i) {
      const int out = (i >= depth / 2) ? base_width * 2 : base_width;
      const int stride = (i == depth / 2) ? 2 : 1;
      blocks_.push_back(std::make_unique<XBlock>(in, out, stride, 8, rng,
                                                 "x" + std::to_string(i)));
      in = out;
    }
    head_ = Linear(in, num_classes, rng, "head");
  }
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = stem_(t, x, bn);
    for (auto& b : blocks_) y = (*b)(t, y, bn);
    return head_(t, global_avgpool(t, y));
  }
  void walk(ModuleRefs& refs) override { refs.add(stem_, blocks_, head_); }

 private:
  ConvBn stem_;
  std::vector<std::unique_ptr<XBlock>> blocks_;
  Linear head_;
};

// ---------------------------------------------------------------------------
// EfficientNet-mini (MBConv with squeeze-excitation and SiLU)
// ---------------------------------------------------------------------------

struct MbConvSe {
  ConvBn expand;
  ConvBn dw;
  Linear se_fc1, se_fc2;
  Conv2d project;
  BatchNorm2d bn_p;
  bool use_skip;
  MbConvSe(int in, int out, int stride, int expand_ratio, Rng& rng,
           const std::string& id)
      : expand(in, in * expand_ratio, 1, 1, 0, rng, id + ".exp"),
        dw(in * expand_ratio, in * expand_ratio, 3, stride, 1, rng, id + ".dw",
           in * expand_ratio),
        se_fc1(in * expand_ratio, std::max(2, in / 4), rng, id + ".se1"),
        se_fc2(std::max(2, in / 4), in * expand_ratio, rng, id + ".se2"),
        project(in * expand_ratio, out, 1, 1, 0, rng, id + ".proj", 1, false),
        bn_p(out),
        use_skip(stride == 1 && in == out) {}
  Node* operator()(Tape& t, Node* x, BnMode mode) {
    Node* y = silu(t, expand(t, x, mode, /*act=*/false));
    y = silu(t, dw(t, y, mode, /*act=*/false));
    // Squeeze-excitation gate.
    Node* s = global_avgpool(t, y);
    s = sigmoid(t, se_fc2(t, silu(t, se_fc1(t, s))));
    y = channel_scale(t, y, s);
    y = bn_p(t, project(t, y), mode);
    return use_skip ? add(t, y, x) : y;
  }
  void walk(ModuleRefs& refs) {
    refs.add(expand, dw, se_fc1, se_fc2, project, bn_p);
  }
};

class EffNetMini : public Classifier {
 public:
  EffNetMini(float width, int num_classes, Rng& rng)
      : stem_(3, ch(8, width), 3, 1, 1, rng, "stem") {
    const int c0 = ch(8, width), c1 = ch(16, width), c2 = ch(32, width);
    blocks_.push_back(std::make_unique<MbConvSe>(c0, c1, 2, 2, rng, "m0"));
    blocks_.push_back(std::make_unique<MbConvSe>(c1, c1, 1, 2, rng, "m1"));
    blocks_.push_back(std::make_unique<MbConvSe>(c1, c2, 2, 2, rng, "m2"));
    blocks_.push_back(std::make_unique<MbConvSe>(c2, c2, 1, 2, rng, "m3"));
    head_ = Linear(c2, num_classes, rng, "head");
  }
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = silu(t, stem_(t, x, bn, false));
    for (auto& b : blocks_) y = (*b)(t, y, bn);
    return head_(t, global_avgpool(t, y));
  }
  void walk(ModuleRefs& refs) override { refs.add(stem_, blocks_, head_); }

 private:
  static int ch(int base, float width) {
    return std::max(4, static_cast<int>(base * width + 0.5f));
  }
  ConvBn stem_;
  std::vector<std::unique_ptr<MbConvSe>> blocks_;
  Linear head_;
};

// ---------------------------------------------------------------------------
// MCUNet-mini (the paper's most fragile, tiniest model)
// ---------------------------------------------------------------------------

class McuNetMini : public Classifier {
 public:
  McuNetMini(int num_classes, Rng& rng)
      : stem_(3, 8, 3, 2, 1, rng, "stem"),
        b0_(8, 12, 2, 1, rng, "b0"),
        b1_(12, 16, 1, 2, rng, "b1"),
        head_(16, num_classes, rng, "head") {}
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = stem_(t, x, bn);
    y = b0_(t, y, bn);
    y = b1_(t, y, bn);
    return head_(t, global_avgpool(t, y));
  }
  void walk(ModuleRefs& refs) override { refs.add(stem_, b0_, b1_, head_); }

 private:
  ConvBn stem_;
  InvertedResidual b0_, b1_;
  Linear head_;
};

// ---------------------------------------------------------------------------
// ViT-mini
// ---------------------------------------------------------------------------

class VitMini : public Classifier {
 public:
  VitMini(int dim, int depth, int heads, int num_classes, Rng& rng)
      : patch_(3, dim, 4, 4, 0, rng, "patch"),
        pos_(Tensor({1, 64, dim})),
        norm_(dim),
        head_(dim, num_classes, rng, "head"),
        dim_(dim) {
    for (float& v : pos_.value.vec()) v = rng.normal_f(0.0f, 0.02f);
    for (int i = 0; i < depth; ++i)
      blocks_.emplace_back(dim, heads, 2, /*causal=*/false, rng,
                           "blk" + std::to_string(i));
  }
  Node* forward(Tape& t, Node* x, BnMode) override {
    Node* y = patch_(t, x);  // [N, dim, 8, 8]
    const int n = y->value.dim(0);
    y = nchw_to_nhwc(t, y);
    y = reshape(t, y, {n, 64, dim_});
    y = add_pos_embedding(t, y, pos_);
    for (auto& b : blocks_) y = b(t, y);
    y = norm_(t, y);
    return head_(t, mean_tokens(t, y));
  }
  void walk(ModuleRefs& refs) override {
    refs.add(patch_, pos_, blocks_, norm_, head_);
  }

 private:
  Conv2d patch_;
  Param pos_;
  std::vector<TransformerBlock> blocks_;
  LayerNorm norm_;
  Linear head_;
  int dim_;
};

// ---------------------------------------------------------------------------
// Swin-mini (windowed attention + patch merging)
// ---------------------------------------------------------------------------

class SwinMini : public Classifier {
 public:
  SwinMini(int dim, int depth1, int depth2, int heads, int num_classes, Rng& rng)
      : patch_(3, dim, 4, 4, 0, rng, "patch"),
        merge_fc_(4 * dim, 2 * dim, rng, "merge"),
        norm_(2 * dim),
        head_(2 * dim, num_classes, rng, "head"),
        dim_(dim) {
    for (int i = 0; i < depth1; ++i)
      stage1_.emplace_back(dim, heads, 2, /*causal=*/false, rng,
                           "s1b" + std::to_string(i));
    for (int i = 0; i < depth2; ++i)
      stage2_.emplace_back(2 * dim, heads, 2, /*causal=*/false, rng,
                           "s2b" + std::to_string(i));
  }
  Node* forward(Tape& t, Node* x, BnMode) override {
    Node* y = patch_(t, x);  // [N, dim, 8, 8]
    const int n = y->value.dim(0);
    y = nchw_to_nhwc(t, y);
    y = reshape(t, y, {n, 64, dim_});
    // Stage 1: attention inside 4x4 windows of the 8x8 token map.
    for (auto& b : stage1_) {
      Node* wtok = window_partition(t, y, 8, 8, 4);
      wtok = b(t, wtok);
      y = window_merge(t, wtok, 8, 8, 4, n);
    }
    // Patch merging: 8x8 -> 4x4 tokens at twice the dim.
    y = merge_fc_(t, patch_merge(t, y, 8, 8));
    // Stage 2: one 4x4 window covers the map.
    for (auto& b : stage2_) y = b(t, y);
    y = norm_(t, y);
    return head_(t, mean_tokens(t, y));
  }
  void walk(ModuleRefs& refs) override {
    refs.add(patch_, stage1_, merge_fc_, stage2_, norm_, head_);
  }

 private:
  Conv2d patch_;
  std::vector<TransformerBlock> stage1_, stage2_;
  Linear merge_fc_;
  LayerNorm norm_;
  Linear head_;
  int dim_;
};

}  // namespace

std::vector<ClassifierSpec> classifier_zoo() {
  return {
      {"MCUNet", "mcunet"},
      {"ResNet-XS", "resnet"},
      {"ResNet-S", "resnet"},
      {"ResNet-M", "resnet"},
      {"ResNet-L", "resnet"},
      {"MobileNetV2-0.5", "mobilenet"},
      {"MobileNetV2-1.0", "mobilenet"},
      {"RegNetX-S", "regnet"},
      {"RegNetX-M", "regnet"},
      {"EffNet-S", "effnet"},
      {"EffNet-M", "effnet"},
      {"ViT-T", "vit"},
      {"ViT-S", "vit"},
      {"Swin-T", "swin"},
      {"Swin-S", "swin"},
  };
}

std::unique_ptr<Classifier> make_classifier(const std::string& name, int num_classes,
                                            Rng& rng) {
  if (name == "MCUNet") return std::make_unique<McuNetMini>(num_classes, rng);
  if (name == "ResNet-XS")
    return std::make_unique<ResNetMini>(std::vector<int>{8, 16, 32},
                                        std::vector<int>{1, 1, 1}, num_classes, rng);
  if (name == "ResNet-S")
    return std::make_unique<ResNetMini>(std::vector<int>{12, 24, 48},
                                        std::vector<int>{1, 1, 1}, num_classes, rng);
  if (name == "ResNet-M")
    return std::make_unique<ResNetMini>(std::vector<int>{16, 32, 64},
                                        std::vector<int>{2, 2, 2}, num_classes, rng);
  if (name == "ResNet-L")
    return std::make_unique<ResNetMini>(std::vector<int>{24, 48, 96},
                                        std::vector<int>{2, 2, 2}, num_classes, rng);
  if (name == "MobileNetV2-0.5")
    return std::make_unique<MobileNetMini>(0.5f, num_classes, rng);
  if (name == "MobileNetV2-1.0")
    return std::make_unique<MobileNetMini>(1.0f, num_classes, rng);
  if (name == "RegNetX-S") return std::make_unique<RegNetMini>(16, 2, num_classes, rng);
  if (name == "RegNetX-M") return std::make_unique<RegNetMini>(24, 4, num_classes, rng);
  if (name == "EffNet-S") return std::make_unique<EffNetMini>(1.0f, num_classes, rng);
  if (name == "EffNet-M") return std::make_unique<EffNetMini>(1.5f, num_classes, rng);
  if (name == "ViT-T") return std::make_unique<VitMini>(32, 2, 4, num_classes, rng);
  if (name == "ViT-S") return std::make_unique<VitMini>(48, 3, 4, num_classes, rng);
  if (name == "Swin-T") return std::make_unique<SwinMini>(24, 1, 1, 4, num_classes, rng);
  if (name == "Swin-S") return std::make_unique<SwinMini>(32, 2, 1, 4, num_classes, rng);
  throw std::invalid_argument("make_classifier: unknown model " + name);
}

}  // namespace sysnoise::models
