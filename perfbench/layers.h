// Per-layer timing measured from outside the library: forwarding decorators
// around the public seams each layer is called through. Nothing here reaches
// into src/ — a decorator forwards every virtual of the interface it wraps
// and times the calls that do a layer's work.
//
//  * TimedTask wraps a core::StagedEvalTask: run_preprocess is the data layer
//    (JPEG decode, resize, color), run_forward / run_forward_batched the
//    models layer (nn, tensor, quant), run_postprocess the metric (box decode
//    + NMS + mAP for detection), decode_preprocess / decode_forward the disk
//    stage cache.
//  * RecordingModel wraps a serve::ServingModel: requests are submitted with
//    unique ids, the decorator maps each id back to its sample, stamps when
//    its batch started and finished, and checks every prediction against a
//    reference computed at setup.
//  * timed_resolver wraps the dist::TaskResolver a worker calls to turn a
//    job's task spec into a live task.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/staged_eval.h"
#include "dist/worker.h"
#include "serve/serving_model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Calls into one layer and the time spent in them, summed over threads.
struct LayerClock {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> items{0};  // configs covered, for batched calls
  std::atomic<std::uint64_t> ns{0};

  void add(Clock::duration d, std::uint64_t n_items = 1) {
    calls.fetch_add(1, std::memory_order_relaxed);
    items.fetch_add(n_items, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                         .count()),
                 std::memory_order_relaxed);
  }
  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
  void reset() {
    calls.store(0);
    items.store(0);
    ns.store(0);
  }
};

// Times one call into a layer for as long as it is in scope.
class LayerTimer {
 public:
  explicit LayerTimer(LayerClock& clock, std::uint64_t items = 1)
      : clock_(clock), items_(items), start_(Clock::now()) {}
  ~LayerTimer() { clock_.add(Clock::now() - start_, items_); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  LayerClock& clock_;
  std::uint64_t items_;
  Clock::time_point start_;
};

// The layers a StagedEvalTask's calls land in.
struct TaskLayers {
  LayerClock preprocess;
  LayerClock forward;
  LayerClock postprocess;
  LayerClock detect_postprocess;  // the detection subset of postprocess
  LayerClock decode;              // disk stage-cache decode_* calls

  double busy_ms() const {
    return preprocess.ms() + forward.ms() + postprocess.ms() + decode.ms();
  }
  void reset() {
    preprocess.reset();
    forward.reset();
    postprocess.reset();
    detect_postprocess.reset();
    decode.reset();
  }
};

class TimedTask final : public sysnoise::core::StagedEvalTask {
 public:
  using Product = sysnoise::core::StageProduct;

  TimedTask(const sysnoise::core::StagedEvalTask& inner, TaskLayers& layers)
      : inner_(inner),
        layers_(layers),
        detection_(inner.traits().kind ==
                   sysnoise::core::TaskKind::kDetection) {}

  const sysnoise::core::StagedEvalTask& inner() const { return inner_; }

  const std::string& name() const override { return inner_.name(); }
  sysnoise::core::TaskTraits traits() const override {
    return inner_.traits();
  }
  std::string cache_identity() const override {
    return inner_.cache_identity();
  }
  std::string preprocess_key(const sysnoise::SysNoiseConfig& cfg) const override {
    return inner_.preprocess_key(cfg);
  }
  std::string forward_key(const sysnoise::SysNoiseConfig& cfg) const override {
    return inner_.forward_key(cfg);
  }
  std::string forward_batch_key(
      const sysnoise::SysNoiseConfig& cfg) const override {
    return inner_.forward_batch_key(cfg);
  }

  Product run_preprocess(const sysnoise::SysNoiseConfig& cfg) const override {
    const LayerTimer t(layers_.preprocess);
    return inner_.run_preprocess(cfg);
  }
  Product run_forward(const sysnoise::SysNoiseConfig& cfg,
                      const Product& pre) const override {
    const LayerTimer t(layers_.forward);
    return inner_.run_forward(cfg, pre);
  }
  std::vector<Product> run_forward_batched(
      const std::vector<const sysnoise::SysNoiseConfig*>& cfgs,
      const std::vector<Product>& pres) const override {
    const LayerTimer t(layers_.forward, cfgs.size());
    return inner_.run_forward_batched(cfgs, pres);
  }
  double run_postprocess(const sysnoise::SysNoiseConfig& cfg,
                         const Product& fwd) const override {
    const Clock::time_point t0 = Clock::now();
    const double metric = inner_.run_postprocess(cfg, fwd);
    const Clock::duration d = Clock::now() - t0;
    layers_.postprocess.add(d);
    if (detection_) layers_.detect_postprocess.add(d);
    return metric;
  }

  std::string preprocess_scope() const override {
    return inner_.preprocess_scope();
  }
  bool encode_preprocess(const Product& product,
                         std::string* bytes) const override {
    return inner_.encode_preprocess(product, bytes);
  }
  Product decode_preprocess(const std::string& bytes) const override {
    const LayerTimer t(layers_.decode);
    return inner_.decode_preprocess(bytes);
  }
  std::string forward_scope() const override { return inner_.forward_scope(); }
  bool encode_forward(const Product& product,
                      std::string* bytes) const override {
    return inner_.encode_forward(product, bytes);
  }
  Product decode_forward(const std::string& bytes) const override {
    const LayerTimer t(layers_.decode);
    return inner_.decode_forward(bytes);
  }

 private:
  const sysnoise::core::StagedEvalTask& inner_;
  TaskLayers& layers_;
  bool detection_;
};

// Serving-side recorder. Before each server lifetime, begin() assigns the
// request ids 0..n-1 to samples; the server is then fed submit(id, id) and
// this decorator translates ids back to samples for the inner model.
class RecordingModel final : public sysnoise::serve::ServingModel {
 public:
  // `reference[s]` is the prediction for sample s that every served request
  // must reproduce (per-sample batch independence).
  RecordingModel(const sysnoise::serve::ServingModel& inner,
                 std::vector<int> reference)
      : inner_(inner), reference_(std::move(reference)) {}

  // Start a fresh request table; not concurrent with predict().
  void begin(std::vector<int> sample_of_id, Clock::time_point epoch) {
    sample_of_id_ = std::move(sample_of_id);
    epoch_ = epoch;
    start_ms_.assign(sample_of_id_.size(), -1.0);
    done_ms_.assign(sample_of_id_.size(), -1.0);
    std::lock_guard<std::mutex> lock(mu_);
    batch_sizes_.clear();
    batch_ms_.clear();
  }

  const std::string& name() const override { return inner_.name(); }
  int num_samples() const override {
    return static_cast<int>(sample_of_id_.size());
  }
  std::vector<int> predict(const std::vector<int>& ids) const override {
    const Clock::time_point t0 = Clock::now();
    std::vector<int> samples;
    samples.reserve(ids.size());
    for (const int id : ids)
      samples.push_back(sample_of_id_.at(static_cast<std::size_t>(id)));
    std::vector<int> preds = inner_.predict(samples);
    const Clock::time_point t1 = Clock::now();
    // Each id is in exactly one batch, so these writes never overlap.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto id = static_cast<std::size_t>(ids[i]);
      start_ms_[id] = ms_since(epoch_, t0);
      done_ms_[id] = ms_since(epoch_, t1);
      if (i >= preds.size() ||
          preds[i] != reference_.at(static_cast<std::size_t>(samples[i])))
        mismatches_.fetch_add(1);
    }
    std::lock_guard<std::mutex> lock(mu_);
    batch_sizes_.push_back(static_cast<int>(ids.size()));
    batch_ms_.push_back(ms_since(t0, t1));
    return preds;
  }
  bool correct(int id, int prediction) const override {
    return inner_.correct(sample_of_id_.at(static_cast<std::size_t>(id)),
                          prediction);
  }

  // Milliseconds after the epoch at which request id's batch started / its
  // prediction was returned; -1 for a request never served.
  double start_ms(std::size_t id) const { return start_ms_[id]; }
  double done_ms(std::size_t id) const { return done_ms_[id]; }
  std::vector<int> batch_sizes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_sizes_;
  }
  std::vector<double> batch_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batch_ms_;
  }
  std::size_t mismatches() const { return mismatches_.load(); }

 private:
  const sysnoise::serve::ServingModel& inner_;
  std::vector<int> reference_;
  std::vector<int> sample_of_id_;
  Clock::time_point epoch_;
  mutable std::vector<double> start_ms_;
  mutable std::vector<double> done_ms_;
  mutable std::atomic<std::size_t> mismatches_{0};
  mutable std::mutex mu_;
  mutable std::vector<int> batch_sizes_;
  mutable std::vector<double> batch_ms_;
};

// A resolver over tasks loaded at setup: the spec's (kind, model, tag) picks
// the preloaded task, which is handed out behind a TimedTask recording into
// `layers`, with the trained-baseline seeds the zoo resolver would preload.
struct PreloadedTask {
  const sysnoise::core::StagedEvalTask* task = nullptr;
  sysnoise::core::MetricMap seeds;
};

inline std::string spec_key(const std::string& kind, const std::string& model,
                            const std::string& tag) {
  return kind + "|" + model + "|" + tag;
}

sysnoise::dist::TaskResolver timed_resolver(
    const std::map<std::string, PreloadedTask>& tasks, TaskLayers& layers,
    LayerClock& resolve);

}  // namespace perfbench
