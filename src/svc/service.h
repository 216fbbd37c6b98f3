// The sweep service: the one lease server of the distributed sweep
// runtime. It accepts serialized SweepPlans over the wire for as long as it
// lives, queues them with priorities, leases their work units to
// authenticated workers (dist/worker.h) through the LeaseScheduler policy,
// and merges the streamed unit results, verifying that every unit reports
// each of its planned metrics and that re-reported metrics agree
// bit-exactly.
//
// With a journal path it is the resident daemon (sysnoise_svc): every
// submission, lease grant and completed unit result is journaled
// (svc/journal.h), so a service killed at any instant replays its journal
// on restart and resumes every in-flight sweep without re-running
// completed units, producing merged results bit-identical to an
// uninterrupted run. Without one it is volatile — the in-process form a
// bench's --coordinate run serves its plans from.
//
// One TCP listener serves both planes (dist/protocol.h vocabulary):
// workers introduce themselves with hello and speak the lease/heartbeat/
// result loop, fetching each job's plan with job_request; control clients
// (svc/client.h, sysnoise_ctl) send submit/cancel/status/fetch/watch
// requests. When the service was started with an auth token, both planes
// must present it and are rejected loudly otherwise.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>

#include "core/plan.h"
#include "dist/scheduler.h"
#include "util/json.h"

namespace sysnoise::svc {

struct ServiceOptions {
  int port = 0;              // 0 = ephemeral; port() reports the actual one
  std::string journal_path;  // "" = volatile (no persistence, no resume)
  std::string auth_token;    // "" = open; else hello/control token required
  std::chrono::milliseconds lease_timeout{10000};
  std::chrono::milliseconds heartbeat_interval{1000};
  bool verbose = false;
  // Fault-injection hook for tests: after journaling this many unit
  // results, drop every connection and stop serving WITHOUT any graceful
  // drain — the in-process stand-in for kill -9 at a chosen journal
  // position. -1 = never.
  int crash_after_results = -1;
  // Structured one-line JSON event stream (obs/event_log.h): job
  // submitted/started/done, worker join/leave, lease expiry — each line
  // carries a monotonic "seq". null = no events (the library default;
  // sysnoise_svc points it at stderr). Not owned.
  std::FILE* event_sink = nullptr;
};

struct ServiceStats {
  std::size_t workers_joined = 0;   // ever, across the service lifetime
  std::size_t workers_active = 0;
  std::size_t results_received = 0; // this process (replayed ones excluded)
  std::size_t results_replayed = 0; // units restored from the journal
  std::size_t auth_rejections = 0;
  std::size_t worker_errors = 0;
  std::size_t handlers_live = 0;  // connection handlers currently running
  bool crash_hook_fired = false;
  dist::SchedulerStats scheduler;  // lease grants, re-leases, expiries, ...
};

class SweepService {
 public:
  // Binds the listener (so port() is valid), replays the journal when one
  // is configured — throwing on corruption — and starts serving. stop()
  // (or destruction) shuts down gracefully: attached workers get `done` on
  // their next request, queued work stays in the journal for the next
  // incarnation.
  explicit SweepService(ServiceOptions opts);
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  int port() const;

  // Stop accepting and close every connection; idempotent. Returns once all
  // handler threads have exited.
  void stop();

  // The status document served to `status` requests: per-job progress,
  // worker roster, queue depth.
  util::Json status() const;

  // Block until every submitted job is terminal (done/canceled/failed) —
  // test convenience; a real deployment never drains.
  bool wait_idle(std::chrono::milliseconds timeout) const;

  // Block until at least `n` workers have joined over the service lifetime
  // (a --min-workers quorum); false when `timeout` ran out first.
  bool wait_workers(std::size_t n, std::chrono::milliseconds timeout) const;

  ServiceStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace sysnoise::svc
