// Control-plane client of the resident sweep service (svc/service.h):
// submit serialized SweepPlans, poll status, stream per-job progress and
// collect merged results over the dist/protocol.h control vocabulary. One
// TCP connection per request (the service closes after replying), with
// capped-backoff reconnection — a client watching a job survives the
// service being killed and restarted mid-sweep, which is exactly the
// journaled-resume scenario the service exists for. Used by sysnoise_ctl,
// DistExecutor, and benches running with --submit or --coordinate.
#pragma once

#include <chrono>
#include <functional>
#include <string>

#include "core/plan.h"
#include "util/json.h"

namespace sysnoise::svc {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string token;  // shared secret; sent with every request when set
  // Total budget for connect retries (per request) and for riding out a
  // service restart mid-watch. Connection refused/reset retries with capped
  // exponential backoff until this deadline.
  std::chrono::seconds retry_timeout{120};
  bool verbose = false;
};

class ServiceClient {
 public:
  explicit ServiceClient(ClientOptions opts) : opts_(std::move(opts)) {}

  // Submit one sweep; returns the service-assigned job id. Throws
  // std::runtime_error on rejection (bad plan, auth).
  int submit(const util::Json& task_spec, const core::SweepPlan& plan,
             int priority = 0, const std::string& name = "");

  // The service's status_report frame (queue depth, worker roster, per-job
  // progress).
  util::Json status();

  // Cancel a queued/running job. Throws if the job is unknown or terminal.
  void cancel(int job);

  // The job's job_result frame right now (state + metrics when done).
  util::Json fetch(int job);

  // Block until `job` is terminal, invoking `on_progress` for every
  // progress frame, reconnecting (and re-watching — idempotent) whenever
  // the connection drops, e.g. across a service kill + restart. Returns the
  // final job_result frame.
  util::Json watch(int job,
                   const std::function<void(const util::Json&)>& on_progress =
                       nullptr);

  // watch() + unwrap: the merged MetricMap of a job that finished "done".
  // Throws when the job ended canceled/failed instead.
  core::MetricMap collect(int job,
                          const std::function<void(const util::Json&)>&
                              on_progress = nullptr);

 private:
  // One request/reply round trip (connect, send, receive). Throws on
  // exhausted retries and on error replies.
  util::Json request(const util::Json& message);

  ClientOptions opts_;
};

}  // namespace sysnoise::svc
