// Staged evaluation: the SysNoiseConfig factors into independent
// pre-processing / model-inference / post-processing stages, so a sweep
// over dozens of deployment configs can share intermediates instead of
// re-running the whole preprocess -> forward -> metric chain per config.
//
// A StagedEvalTask names each stage's inputs with a key (`preprocess_key`
// covers decoder/resize/color/normalization, `forward_key` adds the
// inference knobs) and materializes stage products behind opaque pointers.
// The StagedExecutor behind sweep()/stepwise() groups the plan by shared
// stage keys and evaluates group-by-group: pre-processed batches are
// computed once per preprocess key (and kept across calls that share a
// preprocess_scope, so several models over one dataset decode it once),
// and forward outputs once per forward key — so e.g. the detection
// post-processing axis (box-decode offset) is measured without re-running
// the forward pass at all. Results are bit-identical to the monolithic
// evaluate() chain run per config (ThreadPoolExecutor, tested); only the
// wall time changes.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "util/json.h"

namespace sysnoise::core {

// Opaque stage intermediate (stacked input batches, raw forward outputs...).
using StageProduct = std::shared_ptr<const void>;

// The most forward-key groups one stacked forward call covers
// (StagedExecutor) and one leased work unit holds (plan_work_units): it
// bounds a stack's memory and keeps leases small enough to balance.
inline constexpr std::size_t kMaxForwardBatch = 8;

// The canonical encoding of the model-inference knobs (precision, ceil
// mode, upsample — deliberately NOT proposal_offset, which only the
// post-processing stage reads). Tasks build their forward key as
// preprocess_key(cfg) + forward_key_suffix(cfg) so the knob list lives in
// exactly one place.
std::string forward_key_suffix(const SysNoiseConfig& cfg);

// An EvalTask whose evaluation factors into the three pipeline stages.
// evaluate() is the monolithic chain of the three run_* hooks, so any
// StagedEvalTask still works with the ThreadPoolExecutor.
class StagedEvalTask : public EvalTask {
 public:
  // Stable encoding of every config knob the pre-processing stage reads.
  // Configs differing only in inference/post-processing knobs must share a
  // key; configs with different pre-processing products must not.
  virtual std::string preprocess_key(const SysNoiseConfig& cfg) const = 0;
  // preprocess_key plus the model-inference knobs: the identity of the
  // forward pass. Post-processing-only knobs must NOT be folded in.
  virtual std::string forward_key(const SysNoiseConfig& cfg) const = 0;

  // Stage 1: materialize pre-processed input batches for `cfg`.
  virtual StageProduct run_preprocess(const SysNoiseConfig& cfg) const = 0;
  // Stage 2: run the network over cached stage-1 batches.
  virtual StageProduct run_forward(const SysNoiseConfig& cfg,
                                   const StageProduct& pre) const = 0;
  // Stage 3: post-process cached forward outputs into the metric.
  virtual double run_postprocess(const SysNoiseConfig& cfg,
                                 const StageProduct& fwd) const = 0;

  // --- optional cross-config batched forwards ----------------------------
  // Identity of the network invocation independent of pre-processing.
  // Configs sharing this key run the same network over different stage-1
  // products, so the executor may stack up to kMaxForwardBatch of them
  // through ONE run_forward_batched call (SweepOptions::batch_forwards).
  // The default empty key opts a task out; forward_key stays the cache
  // identity of the outputs either way.
  //
  // Opt in only when one invocation carries a fixed cost that stacking
  // amortizes (SyntheticStagedTask's fwd_overhead_rounds). The zoo, NLP and
  // TTS adapters do not: their eval forwards neither build grads nor copy
  // FP32 weights, so a stack is just a bigger GEMM that leaves executor
  // threads idle; one config per call measured faster, at lower peak RSS.
  // The path stays because the perf harness decorates these two virtuals
  // and its self-test runs a stacked synthetic sweep.
  virtual std::string forward_batch_key(const SysNoiseConfig& cfg) const {
    (void)cfg;
    return std::string();
  }
  // One batched forward covering every cfg (all sharing forward_batch_key,
  // one per distinct forward key): returns one stage-2 product per config,
  // bit-identical to calling run_forward(cfgs[i], pres[i]) per config. The
  // default runs the serial loop, so opting in via forward_batch_key alone
  // is already correct — overriding this is what makes it fast.
  virtual std::vector<StageProduct> run_forward_batched(
      const std::vector<const SysNoiseConfig*>& cfgs,
      const std::vector<StageProduct>& pres) const;

  // --- stage-1 product identity and optional disk persistence ------------
  // Scope the pre-processing products are keyed under. preprocess_key is
  // deliberately dataset-agnostic (it encodes knobs + output geometry), so
  // the scope must name the dataset/pipeline identity — tasks over the same
  // samples and spec share products across processes (disk StageCache) AND
  // across models: a StagedExecutor keeps the products of the last scope it
  // served in memory, so a later task with the same scope reuses them
  // without pre-processing. Equal scope + equal preprocess_key must
  // therefore mean a bit-identical product, whichever task computed it.
  virtual std::string preprocess_scope() const { return cache_identity(); }
  // Encode/decode a stage-1 product for the disk cache. The default "not
  // serializable" pair opts a task out; stage products then only ever live
  // in process memory.
  virtual bool encode_preprocess(const StageProduct& product,
                                 std::string* bytes) const {
    (void)product;
    (void)bytes;
    return false;
  }
  virtual StageProduct decode_preprocess(const std::string& bytes) const {
    (void)bytes;
    return nullptr;
  }

  // Scope for forward-stage products. forward_key (preprocess_key + the
  // inference knobs) is still dataset- AND model-agnostic, so the scope
  // adds both: the same dataset scope plus the task identity that names the
  // weights the outputs came from. Unlike stage-1 batches, forward products
  // are never shared across models.
  virtual std::string forward_scope() const {
    return preprocess_scope() + "|fwd=" + cache_identity();
  }
  // Encode/decode a stage-2 product (e.g. detection RawDetections) for the
  // disk cache; the default pair opts a task out, exactly as above.
  virtual bool encode_forward(const StageProduct& product,
                              std::string* bytes) const {
    (void)product;
    (void)bytes;
    return false;
  }
  virtual StageProduct decode_forward(const std::string& bytes) const {
    (void)bytes;
    return nullptr;
  }

  double evaluate(const SysNoiseConfig& cfg) const override {
    return run_postprocess(cfg, run_forward(cfg, run_preprocess(cfg)));
  }
};

// Compute-once keyed store for stage products. Concurrent requests for the
// same key block on the first computation's shared_future instead of
// recomputing. A failed computation is not kept: its waiters see the
// exception, and the next request for the key computes afresh.
class StageCache {
 public:
  // `*materialized` is set to whether this request ran `compute` (the miss)
  // rather than reusing an entry (a hit); the caller does the counting.
  StageProduct get_or_compute(const std::string& key,
                              const std::function<StageProduct()>& compute,
                              bool* materialized);

 private:
  std::mutex mu_;
  std::map<std::string, std::shared_future<StageProduct>> entries_;
};

// Stage-cache accounting for one sweep()/stepwise() call (or one
// StagedExecutor::execute), surfaced alongside the SweepOptions::cache
// (metric memo) stats. A "hit" is a planned evaluation that reused another
// evaluation's stage product — including a stage-1 product the executor
// kept from an earlier call with the same preprocess_scope.
struct StageStats {
  std::size_t preprocess_hits = 0;
  std::size_t preprocess_misses = 0;  // distinct preprocess keys materialized
  // Of the preprocess_hits, the evaluations served by a product kept from
  // an earlier execute() call (none on a call's first visit to a scope).
  std::size_t preprocess_retained = 0;
  std::size_t forward_hits = 0;
  std::size_t forward_misses = 0;  // distinct forward passes run
  std::size_t evaluations = 0;     // configs evaluated after metric memo
  // Disk-backed StageCache accounting: of the preprocess_misses, how many
  // products were loaded from disk vs computed (and how many fresh
  // computations were persisted). A warm disk cache shows computed == 0 —
  // i.e. zero JPEG decodes in the whole run.
  std::size_t preprocess_disk_hits = 0;
  std::size_t preprocess_computed = 0;
  std::size_t preprocess_persisted = 0;
  // Same split for the forward stage (tasks that opt in via encode_forward;
  // a warm cache runs zero forward passes for repeated configs).
  std::size_t forward_disk_hits = 0;
  std::size_t forward_computed = 0;
  std::size_t forward_persisted = 0;
  // Forward invocation accounting: how many network invocations the
  // executor actually issued. Only a task that opts into batching
  // (forward_batch_key) has one invocation compute several forward-key
  // groups' products; otherwise calls == forward_computed. The other two
  // count only MULTI-group invocations — genuine cross-config stacks, not
  // stage sharing within one forward group: planned evaluations covered by
  // such calls, and the largest such stack (0 when nothing stacked).
  std::size_t batched_forward_calls = 0;
  std::size_t batched_forward_configs = 0;
  std::size_t max_configs_per_batch = 0;

  StageStats& operator+=(const StageStats& o);

  // Field-per-field object (insertion order == declaration order), used by
  // the bench perf dumps and the trace summary's "stage_stats" section.
  util::Json to_json() const;
};

}  // namespace sysnoise::core
