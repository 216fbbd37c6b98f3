// Process-wide measurement primitives and the metrics registry.
//
// The histogram's bucket bounds are a fixed, process-wide geometric grid
// (quarter-octave steps from 1 microsecond up, plus an overflow bucket),
// so histograms recorded by different workers, replay cells or processes
// merge by adding counts — no rebinning, no information loss relative to
// either input. Quantiles are reported as exact bucket upper bounds (the
// bound of the bucket holding the ceil(q * total)-th smallest sample),
// which makes p50/p95/p99 deterministic, merge-stable, and bit-exact across
// runs: the same recorded multiset always yields the same quantile, and
// merge(a, b).quantile == concat(a, b).quantile by construction.
//
// On top of them, MetricsRegistry is the process-wide named-instrument
// store every layer records into (counters, gauges, latency histograms).
// Snapshots serialize to JSON and merge across processes —
// `sysnoise_trace --dir` sums every process's metrics file of a traced run
// into one fleet-wide view covering every process that touched the sweep.
//
// Naming convention: "<layer>.<thing>[.<detail>]" with layers
// staged / gemm / dist / svc / serve (e.g. "staged.forward_disk_hits",
// "dist.lease.granted", "svc.journal.fsync_ms"). Counters are monotonic
// event counts, gauges are sampled series (min/mean/max), histograms are
// latency distributions in milliseconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace sysnoise::obs {

class LatencyHistogram {
 public:
  LatencyHistogram();

  // The shared bucket grid: bucket i covers (bounds[i-1], bounds[i]] with
  // bounds[0] the smallest, plus one overflow bucket above the last bound.
  static const std::vector<double>& bucket_bounds();

  void record(double ms);
  // Adds `other`'s counts bucket-for-bucket (same fixed grid by
  // construction).
  void merge(const LatencyHistogram& other);

  std::size_t total() const { return total_; }
  double sum_ms() const { return sum_ms_; }
  double mean_ms() const { return total_ == 0 ? 0.0 : sum_ms_ / total_; }

  // Exact quantile bucket bound: the upper bound of the bucket containing
  // the ceil(q * total)-th smallest recorded value (q clamped to (0, 1]).
  // Returns 0 on an empty histogram. The overflow bucket reports the last
  // finite bound.
  double quantile_bound(double q) const;

  const std::vector<std::size_t>& counts() const { return counts_; }

  // {"total": n, "sum_ms": s, "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
  //  "buckets": [{"le_ms": bound, "count": c}, ...]} — only non-empty
  // buckets are listed, so the dump stays compact and merge-order-free.
  util::Json to_json() const;
  // Rebuilds a histogram from its to_json() form (bucket counts matched to
  // the fixed grid by le_ms; -1 = overflow). The round-trip is exact, so a
  // snapshot shipped across processes merges as if recorded locally.
  static LatencyHistogram from_json(const util::Json& j);

 private:
  std::vector<std::size_t> counts_;  // bucket_bounds().size() + 1 (overflow)
  std::size_t total_ = 0;
  double sum_ms_ = 0.0;
};

// Min/mean/max over a sampled series (queue depths at admission, batch
// occupancy per dispatch). Mergeable like the histogram.
struct GaugeStats {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void add(double v);
  void merge(const GaugeStats& other);
  double mean() const { return count == 0 ? 0.0 : sum / count; }

  util::Json to_json() const;
  static GaugeStats from_json(const util::Json& j);
};

// The process-wide named-instrument store. Thread-safe; instruments are
// created on first use. Every operation is one short mutex acquisition —
// instrumentation sites record per work unit / lease / request, not per
// element, so contention is negligible; truly hot sites gate on
// obs::trace_enabled() first and pay nothing when observability is off.
class MetricsRegistry {
 public:
  // Monotonic event count. The returned reference is stable for the life
  // of the registry.
  void counter_add(const std::string& name, std::uint64_t delta = 1);
  std::uint64_t counter_value(const std::string& name) const;

  // Sampled series (min/mean/max).
  void gauge_add(const std::string& name, double value);
  // Latency sample in milliseconds.
  void observe_ms(const std::string& name, double ms);

  // {"counters": {name: n}, "gauges": {name: {...}},
  //  "histograms": {name: {...}}} — maps are name-sorted, so equal
  // contents dump byte-identically regardless of creation order.
  util::Json snapshot() const;

  // Folds a snapshot() from another registry/process into this one
  // (counters add, gauges/histograms merge). Unknown names are created.
  void merge_snapshot(const util::Json& snap);

  // Drops every instrument (tests and per-sweep isolation).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, GaugeStats> gauges_;
  std::map<std::string, LatencyHistogram> histograms_;
};

// The process-global registry all instrumentation records into.
MetricsRegistry& metrics();

// Pure-JSON snapshot merge (same semantics as MetricsRegistry::merge applied
// to two snapshots) for mergers that never materialize a registry — e.g.
// the trace-merge tool folding per-process metrics files.
util::Json merge_snapshots(const util::Json& a, const util::Json& b);

}  // namespace sysnoise::obs
