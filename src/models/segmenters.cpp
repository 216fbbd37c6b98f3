#include "models/segmenters.h"

#include <stdexcept>
#include <vector>

#include "models/blocks.h"
#include "nn/ops_extra.h"

namespace sysnoise::models {

using namespace sysnoise::nn;

namespace {

class DeepLabMini : public Segmenter {
 public:
  DeepLabMini(int depth, int num_classes, Rng& rng)
      : stem_(3, 16, 3, 1, 1, rng, "seg.stem"),
        d1_(16, 24, 3, 2, 1, rng, "seg.d1"),
        d2_(24, 32, 3, 2, 1, rng, "seg.d2"),
        classifier_(32, num_classes, 1, 1, 0, rng, "seg.cls") {
    for (int i = 0; i < depth; ++i)
      context_.push_back(std::make_unique<ConvBn>(32, 32, 3, 1, 1, rng,
                                                  "seg.ctx" + std::to_string(i)));
  }
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* y = stem_(t, x, bn);        // 64x64
    y = maxpool2d(t, y, 3, 2, 1);     // 32x32 (ceil knob)
    y = d1_(t, y, bn);                // 16x16
    y = d2_(t, y, bn);                // 8x8
    for (auto& c : context_) y = (*c)(t, y, bn);
    y = classifier_(t, y);            // [N, C, 8, 8]
    // Decode to full resolution; each step reads the upsample knob. A
    // ceil-mode stem changes intermediate sizes, so crop back if needed.
    for (int i = 0; i < 3; ++i) y = upsample2x(t, y);
    return crop(t, y, 64, 64);
  }
  void walk(ModuleRefs& refs) override {
    refs.add(stem_, d1_, d2_, context_, classifier_);
  }
  bool has_maxpool() const override { return true; }

 private:
  ConvBn stem_, d1_, d2_;
  std::vector<std::unique_ptr<ConvBn>> context_;
  Conv2d classifier_;
};

class UNetMini : public Segmenter {
 public:
  UNetMini(int num_classes, Rng& rng)
      : enc1_(3, 12, 3, 1, 1, rng, "un.e1"),
        enc2_(12, 24, 3, 2, 1, rng, "un.e2"),
        enc3_(24, 32, 3, 2, 1, rng, "un.e3"),
        mid_(32, 32, 3, 1, 1, rng, "un.mid"),
        dec2_(32 + 24, 24, 3, 1, 1, rng, "un.d2"),
        dec1_(24 + 12, 12, 3, 1, 1, rng, "un.d1"),
        head_(12, num_classes, 1, 1, 0, rng, "un.head") {}
  Node* forward(Tape& t, Node* x, BnMode bn) override {
    Node* e1 = enc1_(t, x, bn);   // 64
    Node* e2 = enc2_(t, e1, bn);  // 32
    Node* e3 = enc3_(t, e2, bn);  // 16
    Node* m = mid_(t, e3, bn);
    Node* d2 = dec2_(t, concat_channels(t, upsample2x(t, m), e2), bn);   // 32
    Node* d1 = dec1_(t, concat_channels(t, upsample2x(t, d2), e1), bn);  // 64
    return head_(t, d1);
  }
  void walk(ModuleRefs& refs) override {
    refs.add(enc1_, enc2_, enc3_, mid_, dec2_, dec1_, head_);
  }
  bool has_maxpool() const override { return false; }

 private:
  ConvBn enc1_, enc2_, enc3_, mid_, dec2_, dec1_;
  Conv2d head_;
};

}  // namespace

std::unique_ptr<Segmenter> make_segmenter(const std::string& name, int num_classes,
                                          Rng& rng) {
  if (name == "DeepLab-S") return std::make_unique<DeepLabMini>(1, num_classes, rng);
  if (name == "DeepLab-M") return std::make_unique<DeepLabMini>(2, num_classes, rng);
  if (name == "UNet") return std::make_unique<UNetMini>(num_classes, rng);
  throw std::invalid_argument("make_segmenter: unknown model " + name);
}

}  // namespace sysnoise::models
