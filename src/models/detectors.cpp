#include "models/detectors.h"

#include <algorithm>
#include <cmath>

#include "models/blocks.h"
#include "nn/ops_extra.h"

namespace sysnoise::models {

using namespace sysnoise::nn;
using detect::AnchorGrid;
using detect::Box;
using detect::BoxCoder;
using detect::Detection;
using detect::GtBox;

constexpr int kFpnCh = 24;

struct Detector::Impl {
  // Backbone producing C3 (s4), C4 (s8), C5 (s16) features.
  std::unique_ptr<ConvBn> stem;
  bool stem_maxpool = false;
  std::vector<std::unique_ptr<ResidualBlock>> stages;  // one block per stage
  // FPN laterals + smoothing.
  std::vector<std::unique_ptr<Conv2d>> lateral;
  std::vector<std::unique_ptr<Conv2d>> smooth;
  // Shared head tower + predictors.
  std::unique_ptr<ConvBn> tower;
  std::unique_ptr<Conv2d> cls_pred;
  std::unique_ptr<Conv2d> reg_pred;
  void walk(ModuleRefs& refs) {
    refs.add(stem, stages, lateral, smooth, tower, cls_pred, reg_pred);
  }
};

Detector::Detector(const std::string& backbone, bool softmax_head, int num_classes,
                   Rng& rng)
    : impl_(std::make_shared<Impl>()),
      softmax_head_(softmax_head),
      num_classes_(num_classes) {
  const std::vector<int> chans = {16, 24, 32, 48};
  if (backbone == "resnet") {
    // Stem keeps full resolution, max-pool halves it (ceil-mode knob).
    impl_->stem = std::make_unique<ConvBn>(3, chans[0], 3, 1, 1, rng, "det.stem");
    impl_->stem_maxpool = true;
    has_maxpool_ = true;
  } else {  // mobilenet-style: strided conv stem, no pooling
    impl_->stem = std::make_unique<ConvBn>(3, chans[0], 3, 2, 1, rng, "det.stem");
  }
  for (int s = 0; s < 3; ++s)
    impl_->stages.push_back(std::make_unique<ResidualBlock>(
        chans[static_cast<std::size_t>(s)], chans[static_cast<std::size_t>(s + 1)], 2, rng,
        "det.s" + std::to_string(s), ".dn"));
  for (int lvl = 0; lvl < 3; ++lvl) {
    impl_->lateral.push_back(std::make_unique<Conv2d>(
        chans[static_cast<std::size_t>(lvl + 1)], kFpnCh, 1, 1, 0, rng,
        "det.lat" + std::to_string(lvl)));
    impl_->smooth.push_back(std::make_unique<Conv2d>(
        kFpnCh, kFpnCh, 3, 1, 1, rng, "det.smooth" + std::to_string(lvl)));
  }
  impl_->tower = std::make_unique<ConvBn>(kFpnCh, kFpnCh, 3, 1, 1, rng, "det.tower");
  const int cls_ch = softmax_head_ ? num_classes_ + 1 : num_classes_;
  impl_->cls_pred =
      std::make_unique<Conv2d>(kFpnCh, cls_ch, 3, 1, 1, rng, "det.cls");
  impl_->reg_pred = std::make_unique<Conv2d>(kFpnCh, 4, 3, 1, 1, rng, "det.reg");
  // Focal-loss style prior: bias classification outputs toward background.
  if (!softmax_head_) impl_->cls_pred->b.value.fill(-2.0f);
}

DetectorOutput Detector::forward(Tape& t, Node* x, BnMode bn) {
  Node* y = (*impl_->stem)(t, x, bn);
  if (impl_->stem_maxpool) y = maxpool2d(t, y, 3, 2, 1);
  std::vector<Node*> feats;
  for (auto& st : impl_->stages) {
    y = (*st)(t, y, bn);
    feats.push_back(y);
  }
  // Top-down FPN (the upsample2x ctx knob acts here; trained with nearest).
  std::vector<Node*> pyr(3, nullptr);
  pyr[2] = (*impl_->lateral[2])(t, feats[2]);
  for (int lvl = 1; lvl >= 0; --lvl) {
    Node* lat = (*impl_->lateral[static_cast<std::size_t>(lvl)])(t, feats[static_cast<std::size_t>(lvl)]);
    Node* up = upsample2x(t, pyr[static_cast<std::size_t>(lvl + 1)]);
    // Ceil-mode pooling can shift feature sizes off by one; crop to match.
    const int h = std::min(up->value.dim(2), lat->value.dim(2));
    const int w = std::min(up->value.dim(3), lat->value.dim(3));
    up = crop(t, up, h, w);
    lat = crop(t, lat, h, w);
    pyr[static_cast<std::size_t>(lvl)] = add(t, lat, up);
  }
  DetectorOutput out;
  for (int lvl = 0; lvl < 3; ++lvl) {
    Node* p = (*impl_->smooth[static_cast<std::size_t>(lvl)])(t, pyr[static_cast<std::size_t>(lvl)]);
    Node* tw = (*impl_->tower)(t, p, bn);
    out.cls.push_back((*impl_->cls_pred)(t, tw));
    out.reg.push_back((*impl_->reg_pred)(t, tw));
    out.shapes.emplace_back(p->value.dim(2), p->value.dim(3));
  }
  return out;
}

void Detector::walk(ModuleRefs& refs) { impl_->walk(refs); }

namespace {

// Per-anchor assignment: returns label (-1 ignore, 0..C-1 positive class,
// C = background) and matched GT index for positives.
struct Assignment {
  std::vector<int> label;
  std::vector<int> gt_index;
};

Assignment assign_anchors(const AnchorGrid& grid, const std::vector<GtBox>& gts,
                          int background_label) {
  Assignment a;
  const std::size_t n = grid.anchors.size();
  a.label.assign(n, background_label);
  a.gt_index.assign(n, -1);
  std::vector<float> best_iou(n, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < gts.size(); ++g) {
      const float v = detect::iou(grid.anchors[i], gts[g].box);
      if (v > best_iou[i]) {
        best_iou[i] = v;
        a.gt_index[i] = static_cast<int>(g);
      }
    }
    if (best_iou[i] >= 0.5f)
      a.label[i] = gts[static_cast<std::size_t>(a.gt_index[i])].label;
    else if (best_iou[i] >= 0.4f)
      a.label[i] = -1;  // ignore band
    else
      a.gt_index[i] = -1;
  }
  // Force-match each GT's best anchor so no object is unsupervised.
  for (std::size_t g = 0; g < gts.size(); ++g) {
    float best = 0.0f;
    std::size_t best_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const float v = detect::iou(grid.anchors[i], gts[g].box);
      if (v > best) {
        best = v;
        best_i = i;
      }
    }
    if (best > 0.0f) {
      a.label[best_i] = gts[g].label;
      a.gt_index[best_i] = static_cast<int>(g);
    }
  }
  return a;
}

}  // namespace

Node* detection_loss(Tape& t, Detector& det, const DetectorOutput& out,
                     const std::vector<std::vector<GtBox>>& gts, Rng& sample_rng) {
  const int batch = out.cls[0]->value.dim(0);
  const int num_classes = det.num_classes();
  const bool softmax = det.softmax_head();
  const int cls_ch = softmax ? num_classes + 1 : num_classes;
  const BoxCoder coder{0.0f};  // training convention

  const AnchorGrid grid = detect::make_anchors(
      out.shapes, det.strides(), det.anchor_sizes());

  // Per-level anchor offsets into the flattened grid.
  std::vector<std::size_t> level_begin(out.shapes.size() + 1, 0);
  for (std::size_t lvl = 0; lvl < out.shapes.size(); ++lvl)
    level_begin[lvl + 1] =
        level_begin[lvl] +
        static_cast<std::size_t>(out.shapes[lvl].first) * out.shapes[lvl].second;

  Node* total = nullptr;
  for (std::size_t lvl = 0; lvl < out.cls.size(); ++lvl) {
    const int h = out.shapes[lvl].first, w = out.shapes[lvl].second;
    const int cells = h * w;
    // Reorder heads to [N, H*W, C'] for row-wise losses.
    Node* cls = reshape(t, nchw_to_nhwc(t, out.cls[lvl]), {batch, cells, cls_ch});
    Node* reg = reshape(t, nchw_to_nhwc(t, out.reg[lvl]), {batch, cells, 4});

    // Build targets across the batch.
    Tensor cls_target({batch, cells, cls_ch});
    Tensor cls_mask({batch, cells, cls_ch});
    std::vector<int> ce_labels(static_cast<std::size_t>(batch) * cells, 0);
    std::vector<float> ce_mask(static_cast<std::size_t>(batch) * cells, 0.0f);
    Tensor reg_target({batch, cells, 4});
    Tensor reg_mask({batch, cells, 4});
    int num_pos = 0;

    for (int b = 0; b < batch; ++b) {
      const Assignment a = assign_anchors(grid, gts[static_cast<std::size_t>(b)], num_classes);
      for (int cidx = 0; cidx < cells; ++cidx) {
        const std::size_t ai = level_begin[lvl] + static_cast<std::size_t>(cidx);
        const int lbl = a.label[ai];
        const std::size_t row = static_cast<std::size_t>(b) * cells + cidx;
        if (softmax) {
          ce_labels[row] = lbl < 0 ? num_classes : lbl;
          if (lbl >= 0 && lbl < num_classes) {
            ce_mask[row] = 1.0f;  // positive
          } else if (lbl == num_classes) {
            // Sample ~30% of negatives (R-CNN-style balancing).
            ce_mask[row] = sample_rng.bernoulli(0.3) ? 1.0f : 0.0f;
          }
        } else {
          if (lbl == -1) continue;  // ignore: mask stays 0
          for (int c = 0; c < num_classes; ++c) {
            cls_mask.at3(b, cidx, c) = 1.0f;
            cls_target.at3(b, cidx, c) = (lbl == c) ? 1.0f : 0.0f;
          }
        }
        if (lbl >= 0 && lbl < num_classes) {
          ++num_pos;
          float delta[4];
          coder.encode(grid.anchors[ai],
                       gts[static_cast<std::size_t>(b)][static_cast<std::size_t>(a.gt_index[ai])].box,
                       delta);
          for (int d = 0; d < 4; ++d) {
            reg_target.at3(b, cidx, d) = delta[d];
            reg_mask.at3(b, cidx, d) = 1.0f;
          }
        }
      }
    }

    const float norm = std::max(1, num_pos);
    Node* lcls = softmax
                     ? softmax_cross_entropy_masked(t, cls, ce_labels, ce_mask, norm)
                     : sigmoid_focal_loss(t, cls, cls_target, cls_mask, 0.25f, 2.0f,
                                          norm);
    Node* lreg = smooth_l1_loss(t, reg, reg_target, reg_mask, norm);
    Node* lvl_loss = add(t, lcls, lreg);
    total = total == nullptr ? lvl_loss : add(t, total, lvl_loss);
  }
  return total;
}

namespace {

// Shared decode core: both the tape-backed and the detached overloads view
// their per-level outputs as plain tensors.
std::vector<std::vector<Detection>> postprocess_tensors(
    const Detector& det, const std::vector<const Tensor*>& cls,
    const std::vector<const Tensor*>& reg,
    const std::vector<std::pair<int, int>>& shapes, const SysNoiseConfig& cfg,
    int image_size, float score_threshold, float nms_iou, int max_dets) {
  const int batch = cls[0]->dim(0);
  const int num_classes = det.num_classes();
  const bool softmax = det.softmax_head();
  const int cls_ch = softmax ? num_classes + 1 : num_classes;
  const BoxCoder coder{cfg.proposal_offset};  // deployment knob
  const AnchorGrid grid =
      detect::make_anchors(shapes, det.strides(), det.anchor_sizes());

  std::vector<std::size_t> level_begin(shapes.size() + 1, 0);
  for (std::size_t lvl = 0; lvl < shapes.size(); ++lvl)
    level_begin[lvl + 1] =
        level_begin[lvl] +
        static_cast<std::size_t>(shapes[lvl].first) * shapes[lvl].second;

  std::vector<std::vector<Detection>> results(static_cast<std::size_t>(batch));
  for (int b = 0; b < batch; ++b) {
    std::vector<Detection> cands;
    for (std::size_t lvl = 0; lvl < cls.size(); ++lvl) {
      const int h = shapes[lvl].first, w = shapes[lvl].second;
      for (int cidx = 0; cidx < h * w; ++cidx) {
        const int cy = cidx / w, cx = cidx % w;
        // Per-anchor scores.
        float best_score = 0.0f;
        int best_label = -1;
        if (softmax) {
          // Softmax over classes+background.
          float mx = -1e30f;
          for (int c = 0; c < cls_ch; ++c)
            mx = std::max(mx, cls[lvl]->at4(b, c, cy, cx));
          double denom = 0.0;
          for (int c = 0; c < cls_ch; ++c)
            denom += std::exp(cls[lvl]->at4(b, c, cy, cx) - mx);
          for (int c = 0; c < num_classes; ++c) {
            const float p = static_cast<float>(
                std::exp(cls[lvl]->at4(b, c, cy, cx) - mx) / denom);
            if (p > best_score) {
              best_score = p;
              best_label = c;
            }
          }
        } else {
          for (int c = 0; c < num_classes; ++c) {
            const float z = cls[lvl]->at4(b, c, cy, cx);
            const float p = 1.0f / (1.0f + std::exp(-z));
            if (p > best_score) {
              best_score = p;
              best_label = c;
            }
          }
        }
        if (best_score < score_threshold || best_label < 0) continue;
        float delta[4];
        for (int d = 0; d < 4; ++d) delta[d] = reg[lvl]->at4(b, d, cy, cx);
        Box box = coder.decode(grid.anchors[level_begin[lvl] + static_cast<std::size_t>(cidx)],
                               delta);
        box.x1 = std::clamp(box.x1, 0.0f, static_cast<float>(image_size));
        box.y1 = std::clamp(box.y1, 0.0f, static_cast<float>(image_size));
        box.x2 = std::clamp(box.x2, 0.0f, static_cast<float>(image_size));
        box.y2 = std::clamp(box.y2, 0.0f, static_cast<float>(image_size));
        if (box.area() <= 0.0f) continue;
        cands.push_back({box, best_label, best_score});
      }
    }
    const std::vector<int> keep = detect::nms(cands, nms_iou);
    for (std::size_t i = 0; i < keep.size() && i < static_cast<std::size_t>(max_dets); ++i)
      results[static_cast<std::size_t>(b)].push_back(cands[static_cast<std::size_t>(keep[i])]);
  }
  return results;
}

}  // namespace

RawDetectorOutput detach_detector_output(const DetectorOutput& out) {
  RawDetectorOutput raw;
  raw.shapes = out.shapes;
  raw.cls.reserve(out.cls.size());
  raw.reg.reserve(out.reg.size());
  for (const nn::Node* n : out.cls) raw.cls.push_back(n->value);
  for (const nn::Node* n : out.reg) raw.reg.push_back(n->value);
  return raw;
}

std::vector<std::vector<Detection>> detection_postprocess(
    const Detector& det, const DetectorOutput& out, const SysNoiseConfig& cfg,
    int image_size, float score_threshold, float nms_iou, int max_dets) {
  std::vector<const Tensor*> cls, reg;
  for (const nn::Node* n : out.cls) cls.push_back(&n->value);
  for (const nn::Node* n : out.reg) reg.push_back(&n->value);
  return postprocess_tensors(det, cls, reg, out.shapes, cfg, image_size,
                             score_threshold, nms_iou, max_dets);
}

std::vector<std::vector<Detection>> detection_postprocess(
    const Detector& det, const RawDetectorOutput& out, const SysNoiseConfig& cfg,
    int image_size, float score_threshold, float nms_iou, int max_dets) {
  std::vector<const Tensor*> cls, reg;
  for (const Tensor& t : out.cls) cls.push_back(&t);
  for (const Tensor& t : out.reg) reg.push_back(&t);
  return postprocess_tensors(det, cls, reg, out.shapes, cfg, image_size,
                             score_threshold, nms_iou, max_dets);
}

}  // namespace sysnoise::models
