// Wire protocol of the distributed sweep runtime: message vocabulary and
// the task-spec workers reconstruct their EvalTask from.
//
// Transport: length-prefixed compact JSON frames (net/frame.h) over one TCP
// connection per worker, strict request/response lockstep driven by the
// worker. The server is the sweep service (svc/service.h) — resident
// (sysnoise_svc) or in-process for a bench's --coordinate run:
//
//   worker -> service              service -> worker
//   -----------------              -----------------
//   hello {protocol, worker}       welcome {protocol, heartbeat_ms}
//   lease_request {}               lease {job, unit, configs: [i...]}
//                                  | wait {ms}       (nothing leasable yet)
//                                  | done {}         (service stopping)
//   job_request {job}              job_info {job, task, plan}
//   heartbeat {}                   ok {}             (refreshes leases)
//   result {job, unit,             ok {}
//           metrics: {key: v}}     | error {message} (rejected; closed)
//   error {message}                (connection closed)
//
// Jobs arrive while workers are attached, so a lease may name a job the
// worker has never seen: it fetches the task spec and plan with
// job_request before evaluating. The worker always speaks next; while
// evaluating a lease it keeps the conversation alive with heartbeats, so a
// worker silent for longer than a few heartbeat intervals is dead by
// definition — that silence (or a raw disconnect) is what expires its
// leases back to the scheduler.
//
// Control clients (svc/client.h, sysnoise_ctl) open a connection, send one
// request — authenticated by a "token" field when the service was started
// with a shared secret — and read the reply:
//
//   client -> service              service -> client
//   -----------------              -----------------
//   submit {task, plan,            submitted {job}
//           priority, name,
//           idem?}
//     (idem: optional idempotency key, journaled with the submission; a
//      retried submit with a known key returns the job it registered the
//      first time instead of creating a duplicate sweep)
//   cancel {job}                   ok {} | error {message}
//   status {}                      status_report {queue_depth, workers,
//                                                 jobs: [...]}
//   fetch {job}                    job_result {job, state, metrics?}
//   watch {job}                    progress {job, state, ...} stream, then
//                                  job_result {job, state, metrics?}
//
// Worker hello frames carry the same optional "token"; a service started
// with a secret rejects token-less or wrong-token peers loudly.
#pragma once

#include <string>

#include "util/json.h"

namespace sysnoise::dist {

// Bump on incompatible message changes; hello/welcome verify it. Version 2:
// the welcome no longer carries the job list, every job is fetched with
// job_request.
constexpr int kProtocolVersion = 2;

// Message type strings.
namespace msg {
inline constexpr const char* kHello = "hello";
inline constexpr const char* kWelcome = "welcome";
inline constexpr const char* kLeaseRequest = "lease_request";
inline constexpr const char* kLease = "lease";
inline constexpr const char* kWait = "wait";
inline constexpr const char* kDone = "done";
inline constexpr const char* kHeartbeat = "heartbeat";
inline constexpr const char* kResult = "result";
inline constexpr const char* kOk = "ok";
inline constexpr const char* kError = "error";
// Job discovery (worker <-> service).
inline constexpr const char* kJobRequest = "job_request";
inline constexpr const char* kJobInfo = "job_info";
// Control plane (client <-> service).
inline constexpr const char* kSubmit = "submit";
inline constexpr const char* kSubmitted = "submitted";
inline constexpr const char* kCancel = "cancel";
inline constexpr const char* kStatus = "status";
inline constexpr const char* kStatusReport = "status_report";
inline constexpr const char* kFetch = "fetch";
inline constexpr const char* kWatch = "watch";
inline constexpr const char* kProgress = "progress";
inline constexpr const char* kJobResult = "job_result";
}  // namespace msg

// Build a message envelope {"type": type}.
util::Json make_message(const char* type);
// The "type" of a parsed message ("" when absent/malformed).
std::string message_type(const util::Json& j);

// Validate a hello frame: right type, matching protocol version, and — when
// `auth_token` is non-empty — a matching shared-secret "token" field.
// Returns "" when acceptable, else the diagnostic for the error reply.
std::string check_hello(const util::Json& m, const std::string& auth_token);

// What a worker needs to rebuild the submitter's EvalTask: the task
// family plus the zoo model name (training is deterministic and disk-
// cached, so "same name" means "same weights" on every machine sharing a
// SYSNOISE_CACHE_DIR convention — and bit-identical weights even without
// sharing one). `kind` matches task_kind_name(), or names one of the
// mitigation tasks of dist/task_factory.h; `tag` is the classifier's
// recipe tag (core::get_tagged_classifier). seed_baseline carries the
// zoo's clean-pipeline metric so the worker's SweepCache starts out
// exactly like a seeded single-process sweep and never re-evaluates the
// baseline.
struct TaskSpec {
  std::string kind;
  std::string model;
  std::string tag;
  bool seed_baseline = true;

  util::Json to_json() const;
  static TaskSpec from_json(const util::Json& j);
};

}  // namespace sysnoise::dist
