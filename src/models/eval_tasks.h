// The one EvalTask adapter binding the trained image model families to the
// generic sweep engine: ZooTask<Family> wraps a zoo model plus the
// family's benchmark dataset and pipeline spec (models/zoo.h hooks) behind
// core::StagedEvalTask, exposing the three-stage split (preprocess ->
// forward -> postprocess) with per-stage cache keys so core::sweep() can
// share pre-processed batches across inference-side configs and (for
// detection) forward outputs across post-processing configs. evaluate() is
// still the monolithic chain the core::ThreadPoolExecutor runs. The adapter
// does not opt into cross-config batched forwards (see core/staged_eval.h):
// each forward-key group runs its own family forward loop.
#pragma once

#include <mutex>

#include "core/staged_eval.h"
#include "core/sweep.h"
#include "models/zoo.h"

namespace sysnoise::models {

// Binary round trip for the stage-1 product (stacked input batches), shared
// by every family so pre-processed work persists in the disk StageCache
// across bench binaries. Returns false on a malformed payload.
std::string encode_batches(const PreprocessedBatches& batches);
bool decode_batches(const std::string& bytes, PreprocessedBatches* out);

// Binary round trip for the detection stage-2 product (tape-free forward
// outputs), so the post-processing axis of a warm/distributed run re-decodes
// boxes from disk without re-running the network.
std::string encode_raw_detections(const RawDetections& raw);
bool decode_raw_detections(const std::string& bytes, RawDetections* out);

template <typename Family>
class ZooTask : public core::StagedEvalTask {
 public:
  using Trained = typename Family::Trained;

  explicit ZooTask(Trained& trained) : trained_(trained) {}
  const std::string& name() const override { return trained_.name; }
  core::TaskTraits traits() const override {
    return {Family::kKind, trained_.model->has_maxpool()};
  }
  // Retrained classifier variants (mitigation tags) share a display name
  // but not weights — fold the tag in so a shared SweepCache keeps them
  // apart.
  std::string cache_identity() const override;

  std::string preprocess_key(const SysNoiseConfig& cfg) const override;
  std::string forward_key(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_preprocess(const SysNoiseConfig& cfg) const override;
  core::StageProduct run_forward(const SysNoiseConfig& cfg,
                                 const core::StageProduct& pre) const override;
  double run_postprocess(const SysNoiseConfig& cfg,
                         const core::StageProduct& fwd) const override;

  // Disk persistence: batches depend on the dataset + spec, not the model,
  // so every model of a family shares one scope (and one set of disk
  // entries). Decoding is a trust boundary: a product whose geometry
  // differs from what run_preprocess / run_forward yield for the family's
  // eval set decodes to nullptr, so the executor recomputes it.
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
  Trained& trained_;
  mutable std::once_flag weights_fp_once_;
  mutable std::string weights_fp_;  // lazily computed fingerprint
};

extern template class ZooTask<ClsFamily>;
extern template class ZooTask<DetFamily>;
extern template class ZooTask<SegFamily>;

using ClassifierTask = ZooTask<ClsFamily>;
using DetectorTask = ZooTask<DetFamily>;
using SegmenterTask = ZooTask<SegFamily>;

}  // namespace sysnoise::models
