// Low-overhead span tracing: the flight recorder half of the obs layer.
//
// TraceSpan is an RAII scope marker: construction records a "B" (begin)
// event, destruction an "E" (end) event, into a per-thread buffer — so
// spans nest naturally, pairs are balanced by construction, and recording
// never contends across threads (the per-buffer mutex is only taken by the
// final drain). Timestamps are microseconds on one process-wide
// steady_clock epoch, so per-thread event streams are non-decreasing and
// cross-thread ordering is meaningful within a process.
//
// Tracing is OFF by default and provably inert: every span site costs one
// relaxed atomic load when disabled, and instrumentation only reads clocks
// and appends to buffers — it never feeds back into any computation, so
// enabling it cannot change a single output byte (CI diffs traced vs
// untraced reports to enforce exactly that).
//
// Enable via TraceSession — explicitly with a directory, or from the
// SYSNOISE_TRACE=<dir> environment variable. On destruction the session
// writes three files into the directory, names suffixed with the pid so
// concurrent processes (a bench and its workers) never collide:
//
//   <name>_<pid>_trace.json    Chrome trace_event JSON ("traceEvents"
//                              array) — load in chrome://tracing or
//                              https://ui.perfetto.dev
//   <name>_<pid>_metrics.json  obs::metrics() snapshot
//   <name>_<pid>_summary.json  compact per-sweep summary: per-span-name
//                              count/total time, wall span, thread count,
//                              the metrics snapshot, plus caller extras
//                              (e.g. StageStats)
//
// `tools/sysnoise_trace` merges the per-process files of a distributed
// sweep into one timeline and validates the stream (balanced B/E,
// non-decreasing per-thread timestamps).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace sysnoise::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

// The per-span-site guard: one relaxed atomic load.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

// RAII span. Inert (one relaxed load, no allocation) when tracing is
// disabled at construction; the matching "E" is emitted even if tracing is
// disabled mid-span, keeping drained streams balanced. Attributes attach
// to the "E" event (the Chrome trace format merges B/E args per slice).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void attr(const char* key, std::string value);
  void attr(const char* key, std::int64_t value);
  void attr(const char* key, std::size_t value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  void attr(const char* key, int value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  bool active() const { return active_; }

 private:
  bool active_ = false;
  const char* name_ = nullptr;
  std::vector<std::pair<std::string, std::string>> args_;
};

// Enables recording (spans sites start appending). reset() drops every
// buffered event; drain() collects all buffered events from every thread
// into a Chrome trace JSON value {"traceEvents": [...]} and clears the
// buffers. Call drain only when no spans are in flight (end of a sweep /
// after joins) — live spans would export unbalanced.
void trace_enable();
void trace_disable();
void trace_reset();
util::Json trace_drain();

// Per-span-name aggregation over a {"traceEvents": [...]} value:
// {"spans": {name: {"count": n, "total_ms": t}}, "threads": n,
//  "events": n, "wall_us": last_ts - first_ts,
//  "top_level_ms": sum of depth-0 span durations}. Shared by TraceSession
// summaries and the sysnoise_trace merge tool.
util::Json summarize_events(const util::Json& trace);

// RAII enable + flush-to-directory. Inactive (default-constructed or empty
// dir) sessions are no-ops everywhere, so call sites need no branching.
class TraceSession {
 public:
  TraceSession() = default;
  // Resets the tracer and the global metrics registry (per-sweep
  // isolation), then enables recording.
  TraceSession(std::string dir, std::string name);
  // Active iff SYSNOISE_TRACE is set to a non-empty directory.
  static TraceSession from_env(std::string name);

  TraceSession(TraceSession&& other) noexcept;
  TraceSession& operator=(TraceSession&& other) noexcept;
  ~TraceSession();

  bool active() const { return !dir_.empty() && !finished_; }
  // Extra summary sections ("stage_stats": StageStats::to_json(), ...).
  void add_summary(const std::string& key, util::Json value);
  // Writes the three files, disables tracing, returns the summary.
  // Idempotent; the destructor calls it for active sessions.
  util::Json finish();
  std::string trace_path() const;

 private:
  std::string dir_;
  std::string name_;
  util::Json extras_ = util::Json::object();
  bool finished_ = false;
};

}  // namespace sysnoise::obs
