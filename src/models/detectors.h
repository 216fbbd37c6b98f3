// Detection models (COCO-substitute, Table 3): FPN over a small backbone
// with a one-stage anchor head.
//
// Two head styles mirror the paper's two detector families:
//  * "retinanet": per-anchor sigmoid classification trained with focal loss
//    (RetinaNet, Lin et al. 2017c);
//  * "faster_rcnn": per-anchor softmax over classes+background trained with
//    sampled cross-entropy (the R-CNN-family classification convention).
// See DESIGN.md §2 for why this one-stage simplification of Faster R-CNN
// preserves the SysNoise mechanisms (FPN upsampling, ceil-mode pooling,
// box-decode offset, precision) that Table 3 measures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "data/noise_config.h"
#include "detect/box.h"
#include "nn/layers.h"

namespace sysnoise::models {

struct DetectorOutput {
  std::vector<nn::Node*> cls;               // per level [N, C', H, W]
  std::vector<nn::Node*> reg;               // per level [N, 4, H, W]
  std::vector<std::pair<int, int>> shapes;  // feature map sizes per level
};

class Detector : public nn::Module {
 public:
  // backbone: "resnet" (max-pool stem => ceil noise applies) or "mobilenet".
  Detector(const std::string& backbone, bool softmax_head, int num_classes,
           Rng& rng);

  DetectorOutput forward(nn::Tape& t, nn::Node* x, nn::BnMode bn);
  void walk(nn::ModuleRefs& refs) override;
  bool has_maxpool() const { return has_maxpool_; }
  bool softmax_head() const { return softmax_head_; }
  int num_classes() const { return num_classes_; }
  const std::vector<int>& strides() const { return strides_; }
  const std::vector<float>& anchor_sizes() const { return anchor_sizes_; }

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
  bool has_maxpool_ = false;
  bool softmax_head_ = false;
  int num_classes_ = 0;
  std::vector<int> strides_{4, 8, 16};
  std::vector<float> anchor_sizes_{12.0f, 24.0f, 48.0f};
};

// Build the training loss for a batch (targets assigned with IoU rules,
// boxes encoded with the training-side coder offset 0).
nn::Node* detection_loss(nn::Tape& t, Detector& det, const DetectorOutput& out,
                         const std::vector<std::vector<detect::GtBox>>& gts,
                         Rng& sample_rng);

// Tape-free forward outputs: the stage-2 intermediate of the staged
// evaluation split. Holds plain tensors so post-processing (the stage that
// reads proposal_offset) can re-run without re-running the forward pass.
struct RawDetectorOutput {
  std::vector<Tensor> cls;                  // per level [N, C', H, W]
  std::vector<Tensor> reg;                  // per level [N, 4, H, W]
  std::vector<std::pair<int, int>> shapes;  // feature map sizes per level
};

// Materialize a DetectorOutput's values off the tape.
RawDetectorOutput detach_detector_output(const DetectorOutput& out);

// Decode predictions into final detections under the given deployment
// config (proposal_offset is the post-processing SysNoise knob).
std::vector<std::vector<detect::Detection>> detection_postprocess(
    const Detector& det, const DetectorOutput& out, const SysNoiseConfig& cfg,
    int image_size, float score_threshold = 0.05f, float nms_iou = 0.5f,
    int max_dets = 20);

// Same decode over detached forward outputs (staged path).
std::vector<std::vector<detect::Detection>> detection_postprocess(
    const Detector& det, const RawDetectorOutput& out, const SysNoiseConfig& cfg,
    int image_size, float score_threshold = 0.05f, float nms_iou = 0.5f,
    int max_dets = 20);

}  // namespace sysnoise::models
