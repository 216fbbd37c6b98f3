// The serving runtime: a dynamic-micro-batching inference server plus the
// trace replayers that drive it.
//
// InferenceServer is the wall-clock server: submit() admits a request into
// a bounded queue (or sheds it, with accounting, when the queue is full —
// the explicit overload policy), and N worker threads form micro-batches
// with the classic size-or-deadline rule: a free worker launches a batch
// when the queue holds max_batch requests OR the oldest admitted request
// has waited max_delay_ms, taking min(max_batch, queue) requests. Batches
// go through ServingModel::predict (for the classifier model: stack_parts
// + one forward pass under the config's ComputeBackend, optionally fanned
// out via GemmParallelScope). drain() is the graceful shutdown: no new
// admissions, every queued request still served, workers joined.
//
// replay_wall_clock() replays a trace against a real InferenceServer,
// sleeping to each arrival. Its numbers are real and therefore noisy —
// that is the point of the wall-clock mode.
//
// replay_virtual() replays the same trace on a virtual clock: a
// discrete-event simulation applies the identical admission/shed/batching
// policy with a deterministic cost model (a batch of size b occupies a
// simulated worker for batch_base_ms + b * batch_item_ms), decides every
// batch's composition and timeline first, and only then executes the
// decided batches through the real model to obtain predictions. Because
// batch composition is fixed before any real thread runs, the report is
// bit-exact for a given (trace, options) — across repeats AND across
// compute_threads counts — which is what makes the serving test suite and
// the CI gate timing-independent.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/metrics.h"
#include "serve/serving_model.h"
#include "serve/trace.h"
#include "util/json.h"

namespace sysnoise::serve {

struct ServerOptions {
  int workers = 1;           // worker threads (virtual: simulated workers)
  int max_batch = 8;         // micro-batch cap (1 disables batching)
  double max_delay_ms = 2.0;  // batching deadline for a non-full batch
  // Admission-queue bound; an arrival finding the queue at capacity is shed
  // (counted, never served). 0 = unbounded.
  std::size_t queue_capacity = 256;
  // GemmParallelScope each wall-clock worker opens around its forwards
  // (<= 1: serial kernels).
  int gemm_workers = 1;
};

// Mergeable accounting for one server lifetime / one replay.
struct ServingStats {
  std::size_t submitted = 0;  // admission attempts (served + shed)
  std::size_t served = 0;
  std::size_t shed = 0;
  std::size_t batches = 0;     // forward invocations
  int correct = 0;             // served requests whose prediction matched
  obs::LatencyHistogram latency;    // admission -> completion, served only
  obs::GaugeStats queue_depth;      // depth seen by each arrival, pre-admission
  obs::GaugeStats batch_occupancy;  // requests per launched batch

  // 100 * correct / served, the formula (and therefore the exact double)
  // of the offline eval loops when the served multiset covers the
  // evaluation set with equal counts.
  double served_accuracy() const;

  util::Json to_json() const;
};

class InferenceServer {
 public:
  InferenceServer(const ServingModel& model, const ServerOptions& opts);
  ~InferenceServer();  // drains
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // Admit one request for `sample`. Returns false when shed (queue full)
  // or already draining; either way the attempt is accounted.
  bool submit(int id, int sample);

  // Graceful shutdown: stop admitting, serve everything queued, join the
  // workers. Idempotent.
  void drain();

  // Snapshot (thread-safe; complete once drain() returned).
  ServingStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

struct VirtualCost {
  double batch_base_ms = 1.0;   // fixed per forward invocation
  double batch_item_ms = 0.25;  // per request stacked into it
};

struct ReplayOptions {
  ServerOptions server;
  VirtualCost cost;         // virtual mode only
  int compute_threads = 1;  // virtual mode: real threads executing batches
  double time_scale = 1.0;  // wall-clock mode: trace timeline multiplier
};

struct ReplayReport {
  ServingStats stats;
  std::size_t requests = 0;     // trace length
  double duration_ms = 0.0;     // trace start -> last batch completion
  double offered_rps = 0.0;     // requests over the arrival span
  double throughput_rps = 0.0;  // served over duration_ms

  util::Json to_json() const;
};

// Deterministic virtual-clock replay (see file comment).
ReplayReport replay_virtual(const ServingModel& model,
                            const std::vector<TraceRequest>& trace,
                            const ReplayOptions& opts);

// Wall-clock replay against a real InferenceServer; arrivals are slept to
// on the steady clock (opts.time_scale compresses or stretches the trace).
ReplayReport replay_wall_clock(const ServingModel& model,
                               const std::vector<TraceRequest>& trace,
                               const ReplayOptions& opts);

}  // namespace sysnoise::serve
