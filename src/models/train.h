// Training and evaluation loops for the three vision task families.
//
// Pre-processing is injected as a callback so mitigation strategies
// (mix-training Algo. 1, data augmentation, adversarial training) can
// perturb the pipeline per sample without touching the loops.
#pragma once

#include <cstddef>
#include <functional>

#include "data/datasets.h"
#include "data/pipeline.h"
#include "models/classifiers.h"
#include "models/detectors.h"
#include "models/segmenters.h"

namespace sysnoise::models {

struct TrainConfig {
  int epochs = 10;
  int batch_size = 16;
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  float clip_norm = 5.0f;
  bool use_adam = false;  // transformers train with Adam, convnets with SGD
  std::uint64_t seed = 7;
};

// sample -> [1,3,H,W] input tensor (rng allows stochastic augmentation).
using ClsPreprocessor = std::function<Tensor(const data::ClsSample&, Rng&)>;

// The plain training-default preprocessor.
ClsPreprocessor default_cls_preprocessor(const PipelineSpec& spec);

// Trains in place; returns final training loss.
float train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
                       int num_classes, const ClsPreprocessor& prep,
                       const TrainConfig& cfg);

// Top-1 accuracy (%) under a deployment config.
double eval_classifier(Classifier& model, const std::vector<data::ClsSample>& eval,
                       const SysNoiseConfig& cfg, const PipelineSpec& spec,
                       nn::ActRanges* ranges, int batch_size = 16);

// Top-1 rule of every classification path (this loop, TENT, serving): the
// index of the first maximum of `n` values `stride` apart. A strict `>`
// keeps the earliest of tied maxima, and a NaN never wins a comparison, so
// a NaN in column 0 yields 0 and a later NaN is skipped.
inline int first_argmax(const float* v, int n, std::ptrdiff_t stride = 1) {
  int best = 0;
  for (int c = 1; c < n; ++c)
    if (v[c * stride] > v[best * stride]) best = c;
  return best;
}

// The forward+metric loop over already-materialized stage-1 batches, one
// forward pass per batch (`cfg` supplies only the inference-side knobs
// here). eval_classifier() is preprocess_cls_batches + this loop; the
// sweep adapter (ClassifierTask) and serving's offline baseline call it
// directly.
double eval_classifier_batches(Classifier& model,
                               const PreprocessedBatches& batches,
                               const std::vector<data::ClsSample>& eval,
                               const SysNoiseConfig& cfg,
                               nn::ActRanges* ranges);

// Stage-1 materialization for each task family, with the batch sizes the
// eval_* entry points use (cls 16, det 8, seg 4).
PreprocessedBatches preprocess_cls_batches(const std::vector<data::ClsSample>& eval,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec,
                                           int batch_size = 16);
PreprocessedBatches preprocess_det_batches(const data::DetDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec);
PreprocessedBatches preprocess_seg_batches(const data::SegDataset& ds,
                                           const SysNoiseConfig& cfg,
                                           const PipelineSpec& spec);

// Record activation ranges for INT8 (run on a calibration subset with the
// training-default pipeline).
void calibrate_classifier(Classifier& model,
                          const std::vector<data::ClsSample>& calib,
                          const PipelineSpec& spec, nn::ActRanges& ranges,
                          int max_samples = 32);

// ---- detection ----

float train_detector(Detector& model, const data::DetDataset& ds,
                     const PipelineSpec& spec, const TrainConfig& cfg);

// mAP@[.5:.95] (x100, COCO convention) under a deployment config.
double eval_detector(Detector& model, const data::DetDataset& ds,
                     const SysNoiseConfig& cfg, const PipelineSpec& spec,
                     nn::ActRanges* ranges);

// Staged detection split: forward -> RawDetections -> postprocess(offset)
// -> mAP. The post-processing SysNoise axis (proposal_offset) only touches
// the last step, so sweeps re-decode boxes from cached forward outputs
// instead of re-running the network.
struct RawDetections {
  std::vector<RawDetectorOutput> batches;  // forward outputs per eval batch
};

// The forward loop (see eval_classifier_batches): one tape-free
// RawDetectorOutput per stage-1 batch.
RawDetections detector_forward_batches(Detector& model,
                                       const PreprocessedBatches& batches,
                                       const SysNoiseConfig& cfg,
                                       nn::ActRanges* ranges);

double detector_map_from_raw(const Detector& model, const RawDetections& raw,
                             const data::DetDataset& ds,
                             const SysNoiseConfig& cfg);

void calibrate_detector(Detector& model, const data::DetDataset& ds,
                        const PipelineSpec& spec, nn::ActRanges& ranges,
                        int max_samples = 16);

// ---- segmentation ----

float train_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const PipelineSpec& spec, const TrainConfig& cfg);

// mIoU (%) under a deployment config.
double eval_segmenter(Segmenter& model, const data::SegDataset& ds,
                      const SysNoiseConfig& cfg, const PipelineSpec& spec,
                      nn::ActRanges* ranges);

// The forward+metric loop (see eval_classifier_batches).
double eval_segmenter_batches(Segmenter& model,
                              const PreprocessedBatches& batches,
                              const data::SegDataset& ds,
                              const SysNoiseConfig& cfg, nn::ActRanges* ranges);

void calibrate_segmenter(Segmenter& model, const data::SegDataset& ds,
                         const PipelineSpec& spec, nn::ActRanges& ranges,
                         int max_samples = 16);

// Assemble a batch tensor from per-sample [1,C,H,W] tensors.
Tensor stack_batch(const std::vector<Tensor>& items);

}  // namespace sysnoise::models
