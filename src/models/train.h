// Training and evaluation loops for the three vision task families.
//
// Pre-processing is injected as a callback so mitigation strategies
// (mix-training Algo. 1, data augmentation, adversarial training) can
// perturb the pipeline per sample without touching the loops.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

// One optimizer step's loss over the training samples `idx`, built on the
// training tape `t`. `rng` is the loop's stream: it shuffled `idx` and
// serves stochastic preprocessing and loss sampling. A step may run its
// own backward passes first (FGSM's input gradient); the loop zeroes the
// parameter grads just before the returned loss's backward.
using BatchLoss = std::function<nn::Node*(nn::Tape& t, const std::vector<int>& idx,
                                          Rng& rng)>;

// The one training loop of every image recipe: cfg.epochs shuffled passes
// over `n` samples in batches of cfg.batch_size, a cosine LR, gradient
// clipping, then an SGD (or, with cfg.use_adam, Adam) step. Trains
// `params` in place; returns the final training loss.
float train_loop(const nn::ParamRefs& params, int n, const TrainConfig& cfg,
                 const BatchLoss& batch_loss);

// The classifier recipe. Each recipe (train_detector, train_segmenter,
// core::train_classifier_fgsm) only supplies its batch-loss step to
// train_loop.
float train_classifier(Classifier& model, const std::vector<data::ClsSample>& train,
                       const ClsPreprocessor& prep, const TrainConfig& cfg);

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
// here). eval_classifier() is preprocess_samples + this loop; the
// sweep adapter (ClassifierTask) and serving's offline baseline call it
// directly.
double eval_classifier_batches(Classifier& model,
                               const PreprocessedBatches& batches,
                               const std::vector<data::ClsSample>& eval,
                               const SysNoiseConfig& cfg,
                               nn::ActRanges* ranges);

// The one stage-1 batcher: the first `count` samples' JPEGs (all of them
// by default) under `cfg`, `batch_size` per batch. The eval entry points
// and the zoo adapters use batch sizes cls 16, det 8, seg 4.
template <typename Sample>
PreprocessedBatches preprocess_samples(const std::vector<Sample>& samples,
                                       const SysNoiseConfig& cfg,
                                       const PipelineSpec& spec, int batch_size,
                                       std::size_t count = SIZE_MAX) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  for (std::size_t i = 0; i < std::min(count, samples.size()); ++i)
    jpegs.push_back(&samples[i].jpeg);
  return preprocess_batches(jpegs, cfg, spec, batch_size);
}

// Record INT8 activation ranges: one calibrating forward per batch (the zoo
// passes its first training samples under the training-default pipeline).
template <typename Model>
void calibrate(Model& model, const PreprocessedBatches& batches,
               nn::ActRanges& ranges) {
  for (const Tensor& input : batches.inputs) {
    nn::Tape t;
    t.ctx.calibrating = true;
    t.ctx.ranges = &ranges;
    model.forward(t, t.input(input), nn::BnMode::kEval);
  }
}

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

// Assemble a batch tensor from per-sample [1,C,H,W] tensors.
Tensor stack_batch(const std::vector<Tensor>& items);

}  // namespace sysnoise::models
