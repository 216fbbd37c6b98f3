// EvalTask adapters binding the trained model families to the generic
// sweep engine: each wraps a zoo model plus the shared benchmark dataset
// and pipeline spec behind core::StagedEvalTask, exposing the three-stage
// split (preprocess -> forward -> postprocess) with per-stage cache keys so
// core::sweep() can share pre-processed batches across inference-side
// configs and (for detection) forward outputs across post-processing
// configs. Every adapter's evaluate() is still the monolithic chain the
// core::ThreadPoolExecutor runs. The adapters do not opt into cross-config
// batched forwards (see core/staged_eval.h): each forward-key group runs
// its own eval_*_batches / detector_forward_batches call.
#pragma once

#include <mutex>

#include "core/staged_eval.h"
#include "core/sweep.h"
#include "models/zoo.h"

namespace sysnoise::models {

// Binary round trip for the stage-1 product (stacked input batches), shared
// by every adapter so pre-processed work persists in the disk StageCache
// across bench binaries. Returns false / nullopt-like nullptr on a
// malformed payload.
std::string encode_batches(const PreprocessedBatches& batches);
bool decode_batches(const std::string& bytes, PreprocessedBatches* out);

// Binary round trip for the detection stage-2 product (tape-free forward
// outputs), so the post-processing axis of a warm/distributed run re-decodes
// boxes from disk without re-running the network.
std::string encode_raw_detections(const RawDetections& raw);
bool decode_raw_detections(const std::string& bytes, RawDetections* out);

class ClassifierTask : public core::StagedEvalTask {
 public:
  explicit ClassifierTask(TrainedClassifier& tc) : tc_(tc) {}
  const std::string& name() const override { return tc_.name; }
  core::TaskTraits traits() const override;
  // Retrained variants (mitigation tags) share a display name but not
  // weights — fold the tag in so a shared SweepCache keeps them apart.
  std::string cache_identity() const override {
    return tc_.tag.empty() ? tc_.name : tc_.name + "#" + tc_.tag;
  }
  // Clean-pipeline metric already computed by the zoo at load time; seed a
  // SweepCache with it to skip re-evaluating the trained baseline.
  double trained_metric() const { return tc_.trained_acc; }

  // Staged split: classification has no post-processing knobs, so the
  // forward stage carries the metric and stage 3 just unwraps it.
  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

  // Disk persistence: batches depend on the dataset + spec, not the model,
  // so every classifier shares one scope (and one set of disk entries).
  std::string preprocess_scope() const override;
  bool encode_preprocess(const core::StageProduct& product,
                         std::string* bytes) const override;
  core::StageProduct decode_preprocess(const std::string& bytes) const override;

  // Forward products additionally depend on the weights, which
  // cache_identity alone does not pin (a retrained zoo keeps its names) —
  // the scope folds in a fingerprint of the loaded parameters.
  std::string forward_scope() const override;
  bool encode_forward(const core::StageProduct& product,
                      std::string* bytes) const override;
  core::StageProduct decode_forward(const std::string& bytes) const override;

 private:
  TrainedClassifier& tc_;
  mutable std::once_flag weights_fp_once_;
  mutable std::string weights_fp_;  // lazily computed fingerprint
};

class DetectorTask : public core::StagedEvalTask {
 public:
  explicit DetectorTask(TrainedDetector& td) : td_(td) {}
  const std::string& name() const override { return td_.name; }
  core::TaskTraits traits() const override;
  double trained_metric() const { return td_.trained_map; }

  // Staged split: stage 2 materializes RawDetections, stage 3 applies the
  // box-decode offset + NMS + mAP — the post-processing axis re-runs only
  // stage 3.
  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

  std::string preprocess_scope() const override;
  bool encode_preprocess(const core::StageProduct& product,
                         std::string* bytes) const override;
  core::StageProduct decode_preprocess(const std::string& bytes) const override;

  std::string forward_scope() const override;
  bool encode_forward(const core::StageProduct& product,
                      std::string* bytes) const override;
  core::StageProduct decode_forward(const std::string& bytes) const override;

 private:
  TrainedDetector& td_;
  mutable std::once_flag weights_fp_once_;
  mutable std::string weights_fp_;
};

class SegmenterTask : public core::StagedEvalTask {
 public:
  explicit SegmenterTask(TrainedSegmenter& ts) : ts_(ts) {}
  const std::string& name() const override { return ts_.name; }
  core::TaskTraits traits() const override;
  double trained_metric() const { return ts_.trained_miou; }

  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

  std::string preprocess_scope() const override;
  bool encode_preprocess(const core::StageProduct& product,
                         std::string* bytes) const override;
  core::StageProduct decode_preprocess(const std::string& bytes) const override;

  std::string forward_scope() const override;
  bool encode_forward(const core::StageProduct& product,
                      std::string* bytes) const override;
  core::StageProduct decode_forward(const std::string& bytes) const override;

 private:
  TrainedSegmenter& ts_;
  mutable std::once_flag weights_fp_once_;
  mutable std::string weights_fp_;
};

// Seed `cache` with `trained_metric` (the clean-pipeline number the zoo
// already computed at load time) for the training-default config, then run
// core::sweep() through the cache — the baseline eval is never recomputed.
// `stats` (optional) surfaces stage-cache accounting next to the SweepCache
// stats.
core::AxisReport sweep_seeded(const core::EvalTask& task, double trained_metric,
                              core::SweepCache& cache,
                              core::SweepOptions opts = {},
                              core::StageStats* stats = nullptr);

}  // namespace sysnoise::models
