// sysnoise_worker — generic distributed-sweep worker.
//
// Connects to a sweep service — the in-process one of a table/fig bench
// started with --coordinate, or a resident sysnoise_svc — rebuilds each
// leased job's task from the model zoo, and evaluates leases until the
// service says done:
//
//   sysnoise_worker --connect host:port [--threads N]
//                   [--connect-timeout-s S] [--token T] [--reconnect]
//                   [--quiet]
//
// Connection attempts retry for --connect-timeout-s (default 120s) with
// capped exponential backoff, so workers can be launched before/while a
// --coordinate bench is still training or loading its models. --token
// presents the shared secret a service started with one requires.
// --reconnect keeps serving across disconnects (the resident sweep service
// being killed and restarted mid-sweep) instead of exiting — the worker
// only stops on `done`, a rejection, or an evaluation error. Exit status: 0
// when the service reported done, 2 on usage errors, 1 otherwise.
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/disk_stage_cache.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "net/socket.h"
#include "obs/trace.h"

using namespace sysnoise;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect host:port [--threads N] "
               "[--connect-timeout-s S] [--token T] [--reconnect] "
               "[--quiet]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host;
  int port = 0;
  dist::WorkerOptions opts;
  opts.verbose = true;
  int connect_timeout_s = 120;
  bool reconnect = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &host, &port)) usage(argv[0]);
    } else if (arg == "--threads") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_int(argv[i], 0, INT_MAX, &opts.threads)) usage(argv[0]);
    } else if (arg == "--connect-timeout-s") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_int(argv[i], 0, INT_MAX, &connect_timeout_s))
        usage(argv[0]);
    } else if (arg == "--token") {
      if (++i >= argc) usage(argv[0]);
      opts.auth_token = argv[i];
    } else if (arg == "--reconnect") {
      reconnect = true;
    } else if (arg == "--quiet") {
      opts.verbose = false;
    } else {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (host.empty()) usage(argv[0]);

  // SYSNOISE_TRACE=<dir>: flush <dir>/worker_<pid>_{trace,metrics,summary}
  // .json on exit (obs/trace.h); `sysnoise_trace --dir` merges them with
  // the service's files into the fleet view.
  obs::TraceSession trace = obs::TraceSession::from_env("worker");
  core::StageStats stages;
  core::DiskStageCache disk;
  opts.stats = &stages;
  opts.disk = core::DiskStageCache::enabled_by_env() ? &disk : nullptr;

  dist::WorkerRunStats stats;
  std::size_t sessions = 0;
  while (true) {
    ++sessions;
    const dist::WorkerRunStats session =
        dist::run_worker_retrying(host, port, dist::zoo_task_resolver(), opts,
                                  std::chrono::seconds(connect_timeout_s));
    stats.leases_completed += session.leases_completed;
    stats.configs_evaluated += session.configs_evaluated;
    stats.heartbeats_sent += session.heartbeats_sent;
    stats.done = session.done;
    stats.disconnected = session.disconnected;
    stats.error = session.error;
    // Only a mid-session disconnect is worth re-serving: `done` means the
    // sweep is over, and a rejection/evaluation error would just repeat.
    if (!reconnect || !session.disconnected) break;
    std::fprintf(stderr,
                 "[worker] disconnected (session %zu); reconnecting...\n",
                 sessions);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }

  std::printf("[worker] %s: %zu leases, %zu configs, %zu heartbeats; "
              "stage cache: %zu pre loaded / %zu computed, %zu fwd loaded / "
              "%zu computed\n",
              stats.done          ? "done"
              : stats.disconnected ? "disconnected"
                                   : "stopped",
              stats.leases_completed, stats.configs_evaluated,
              stats.heartbeats_sent, stages.preprocess_disk_hits,
              stages.preprocess_computed, stages.forward_disk_hits,
              stages.forward_computed);
  if (!stats.error.empty()) {
    std::fprintf(stderr, "sysnoise_worker: %s\n", stats.error.c_str());
    return 1;
  }
  return stats.done ? 0 : 1;
}
