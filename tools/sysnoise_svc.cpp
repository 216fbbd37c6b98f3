// sysnoise_svc — the resident sweep service daemon.
//
// Runs a svc::SweepService (journaled job queue + lease scheduler + control
// plane) until SIGINT/SIGTERM:
//
//   sysnoise_svc --port P --journal PATH [--token T] [--port-file PATH]
//                [--lease-timeout-ms N] [--heartbeat-ms N]
//                [--crash-after-results N] [--verbose] [--quiet]
//
// Start it, point workers at it (sysnoise_worker --connect ... --reconnect),
// and submit sweeps with sysnoise_ctl or any bench's --submit. Restarting
// the daemon with the same --journal resumes every in-flight job without
// re-running completed work units — kill -9 included, which is exactly what
// --crash-after-results simulates deterministically for the CI resume test
// (the process exits with status 3 once the hook fires).
//
// Observability: the daemon emits structured one-line JSON events to stderr
// (job submitted/started/done, worker join/leave, lease expiry — each with
// a monotonic "seq"); --quiet silences them, --verbose adds the legacy
// human-readable prints back. SYSNOISE_TRACE=<dir> records a span trace +
// metrics snapshot flushed on shutdown (obs/trace.h).
#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#include "net/socket.h"
#include "obs/trace.h"
#include "svc/service.h"
#include "util/fs.h"

using namespace sysnoise;

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port P --journal PATH [--token T] "
               "[--port-file PATH] [--lease-timeout-ms N] "
               "[--heartbeat-ms N] [--crash-after-results N] [--verbose] "
               "[--quiet]\n",
               argv0);
  std::exit(2);
}

// Atomic, so launchers polling for the file never read a partial port
// number.
void write_port_file(const std::string& path, int port) {
  if (!util::write_file_atomic(path, std::to_string(port) + "\n")) {
    std::fprintf(stderr, "sysnoise_svc: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  svc::ServiceOptions opts;
  // Structured JSON events on stderr are the daemon's default log; the
  // legacy printf narration is opt-in via --verbose.
  opts.event_sink = stderr;
  std::string port_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_int(argv[i], 0, 65535, &opts.port)) usage(argv[0]);
    } else if (arg == "--journal") {
      if (++i >= argc) usage(argv[0]);
      opts.journal_path = argv[i];
    } else if (arg == "--token") {
      if (++i >= argc) usage(argv[0]);
      opts.auth_token = argv[i];
    } else if (arg == "--port-file") {
      if (++i >= argc) usage(argv[0]);
      port_file = argv[i];
    } else if (arg == "--lease-timeout-ms") {
      if (++i >= argc) usage(argv[0]);
      int ms = 0;
      if (!net::parse_int(argv[i], 1, INT_MAX, &ms)) usage(argv[0]);
      opts.lease_timeout = std::chrono::milliseconds(ms);
    } else if (arg == "--heartbeat-ms") {
      if (++i >= argc) usage(argv[0]);
      int ms = 0;
      if (!net::parse_int(argv[i], 1, INT_MAX, &ms)) usage(argv[0]);
      opts.heartbeat_interval = std::chrono::milliseconds(ms);
    } else if (arg == "--crash-after-results") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_int(argv[i], -1, INT_MAX, &opts.crash_after_results))
        usage(argv[0]);
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--quiet") {
      opts.verbose = false;
      opts.event_sink = nullptr;
    } else {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (opts.journal_path.empty())
    std::fprintf(stderr,
                 "sysnoise_svc: WARNING: no --journal; jobs will NOT survive "
                 "a restart\n");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    // Flushes <dir>/svc_<pid>_{trace,metrics,summary}.json on shutdown when
    // SYSNOISE_TRACE is set; inert otherwise.
    obs::TraceSession trace = obs::TraceSession::from_env("svc");
    svc::SweepService service(std::move(opts));
    if (!port_file.empty()) write_port_file(port_file, service.port());
    std::printf("[svc] sysnoise_svc serving on port %d (pid %d)\n",
                service.port(), static_cast<int>(::getpid()));
    std::fflush(stdout);
    while (!g_stop.load()) {
      if (service.stats().crash_hook_fired) {
        std::fprintf(stderr, "[svc] crash hook fired; exiting hard\n");
        return 3;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::printf("[svc] signal received, stopping...\n");
    std::fflush(stdout);
    service.stop();
    const svc::ServiceStats stats = service.stats();
    std::printf("[svc] stopped: %zu workers ever, %zu results this run, "
                "%zu replayed from journal, %zu auth rejections\n",
                stats.workers_joined, stats.results_received,
                stats.results_replayed, stats.auth_rejections);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sysnoise_svc: %s\n", e.what());
    return 1;
  }
}
