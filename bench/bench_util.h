// Shared helpers for the bench binaries: output directory handling, the
// banner each table prints, and the plan/shard/merge command line every
// table and fig bench grows in the plan -> execute -> merge lifecycle:
//
//   --emit-plan            write the bench's SweepPlans as JSON and exit
//   --shard i/N            evaluate only shard i of N (deterministic plan
//                          partition), writing a partial shard-result file
//   --merge f1 f2 ...      merge shard-result files from earlier --shard
//                          runs into the final report (no models needed)
//
// plus the distributed runtime — the sweep service (svc/service.h) and
// its workers (dist/worker.h) — on the same plan seam:
//
//   --coordinate <port> [--min-workers N] [--min-workers-timeout-s S]
//                          serve this bench's SweepPlans from an in-process
//                          volatile sweep service: once N workers
//                          (sysnoise_worker, or any bench started with
//                          --connect) joined, submit the plans, let the
//                          workers evaluate the leased work units, collect
//                          the merged results and render the ordinary
//                          report — byte-identical to the single-process
//                          run. Port 0 binds an ephemeral port; the chosen
//                          one is printed and written to
//                          <results_dir>/<bench>.port for worker launchers
//   --connect host:port    join a sweep service as a worker instead of
//                          running anything locally
//
//   --submit host:port [--priority N]
//                          submit this bench's jobs to a resident sweep
//                          service (tools/sysnoise_svc.cpp), then
//                          watch the jobs and render the merged report —
//                          byte-identical to the single-process run, even
//                          when the service is killed and restarted midway
//   --emit-jobs            write the bench's (task, plan) job list as JSON
//                          (<results_dir>/<bench>_jobs.json) for later
//                          `sysnoise_ctl submit`, and exit
//   --token T              shared-secret auth for --coordinate (require it
//                          of workers), --connect, and --submit
//   --trace DIR            flight recorder (obs/trace.h): record a span
//                          trace + metrics snapshot for this run into DIR
//                          (SYSNOISE_TRACE=DIR is the env spelling); off by
//                          default and provably inert — report bytes are
//                          identical either way
//
// Every table/fig bench is a PlanBenchDef (a list of (task, SweepPlan)
// units plus a render step) dispatched by run_standard_modes, so every mode
// above works for every bench and each renders byte-identical reports.
// Retrained mitigation variants are units over a bench-local registry;
// benches with nothing to evaluate (table 1, fig 5) have zero units and do
// all their work in render.
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/staged_eval.h"
#include "obs/trace.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "net/socket.h"
#include "svc/client.h"
#include "svc/service.h"
#include "util/json.h"

namespace sysnoise::bench {

inline std::string results_dir() {
  const char* env = std::getenv("SYSNOISE_RESULTS_DIR");
  std::string dir = env != nullptr ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

// Write <results_dir>/<name> and return its path; exits 2 when the file
// cannot be written, so an unwritable results dir never passes for a
// finished run.
inline std::string write_file(const std::string& name,
                              const std::string& content) {
  const std::string path = results_dir() + "/" + name;
  std::ofstream f(path);
  f << content;
  f.flush();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
  return path;
}

// Atomic publication for files other processes poll for (port files): write
// a temp sibling, then rename into place, so a reader never sees a partial
// write — either the old content, or the complete new one.
inline void write_file_atomic(const std::string& name,
                              const std::string& content) {
  const std::string final_path = results_dir() + "/" + name;
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream f(tmp_path, std::ios::binary | std::ios::trunc);
    f << content;
    f.flush();
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", tmp_path.c_str());
      std::exit(2);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::fprintf(stderr, "cannot publish %s: %s\n", final_path.c_str(),
                 ec.message().c_str());
    std::exit(2);
  }
}

inline std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

inline void banner(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("SysNoise reproduction — %s\n", experiment);
  std::printf("Paper reference: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

// SYSNOISE_FAST=1 trims model lists for smoke runs.
inline bool fast_mode() {
  const char* env = std::getenv("SYSNOISE_FAST");
  return env != nullptr && env[0] == '1';
}

// SYSNOISE_DISK_STAGE_CACHE=0 opts a bench out of persisting/loading stage
// products; one env contract for benches and workers alike.
inline bool disk_stage_cache_enabled() {
  return core::DiskStageCache::enabled_by_env();
}

// ---------------------------------------------------------------------------
// Shared --shard/--emit-plan/--merge command line
// ---------------------------------------------------------------------------

struct BenchCli {
  std::string bench;  // machine name, e.g. "table2_classification"
  int shard_index = 0;
  int shard_count = 1;
  bool emit_plan = false;
  std::vector<std::string> merge_files;
  int coordinate_port = -1;  // >= 0: serve the plans to remote workers
  int min_workers = 1;
  int min_workers_timeout_s = 0;  // 0 = wait forever for the quorum
  std::string connect_host;  // non-empty: join a sweep service as a worker
  int connect_port = 0;
  std::string submit_host;   // non-empty: submit jobs to a sweep service
  int submit_port = 0;
  int priority = 0;          // --submit job priority
  bool emit_jobs = false;    // write the (task, plan) job list and exit
  std::string token;         // shared-secret auth for every dist mode
  std::string trace_dir;     // --trace DIR: record a span trace (obs/trace.h)

  bool sharded() const { return shard_count > 1; }
  bool merging() const { return !merge_files.empty(); }
  bool coordinating() const { return coordinate_port >= 0; }
  bool connecting() const { return !connect_host.empty(); }
  bool submitting() const { return !submit_host.empty(); }
  // Any mode that needs the (task-spec, plan) job list instead of local
  // evaluation: coordinate it, submit it, or just write it out.
  bool dist_jobs() const {
    return coordinating() || submitting() || emit_jobs;
  }
  // Output names under results_dir().
  std::string shard_file() const {
    return bench + "_shard_" + std::to_string(shard_index) + "_of_" +
           std::to_string(shard_count) + ".json";
  }
  std::string plan_file() const { return bench + "_plan.json"; }
  std::string jobs_file() const { return bench + "_jobs.json"; }
};

[[noreturn]] inline void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--emit-plan] [--emit-jobs] [--shard i/N] "
               "[--merge file...] [--trace DIR]\n"
               "       %s --coordinate <port> [--min-workers N] "
               "[--min-workers-timeout-s S] [--token T]\n"
               "       %s --connect host:port [--token T]\n"
               "       %s --submit host:port [--priority N] [--token T]\n",
               argv0, argv0, argv0, argv0);
  std::exit(2);
}

inline BenchCli parse_cli(int argc, char** argv, const char* bench_name) {
  BenchCli cli;
  cli.bench = bench_name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--emit-plan") {
      cli.emit_plan = true;
    } else if (arg == "--shard") {
      if (++i >= argc) usage(argv[0]);
      const std::string text = argv[i];
      const std::size_t slash = text.find('/');
      int idx = -1, count = 0;
      if (slash == std::string::npos ||
          !net::parse_int(text.substr(0, slash), 0, INT_MAX, &idx) ||
          !net::parse_int(text.substr(slash + 1), 1, INT_MAX, &count) ||
          idx >= count) {
        std::fprintf(stderr, "bad --shard \"%s\" (want i/N with 0 <= i < N)\n",
                     argv[i]);
        std::exit(2);
      }
      cli.shard_index = idx;
      cli.shard_count = count;
    } else if (arg == "--merge") {
      while (i + 1 < argc && argv[i + 1][0] != '-')
        cli.merge_files.push_back(argv[++i]);
      if (cli.merge_files.empty()) usage(argv[0]);
    } else if (arg == "--coordinate") {
      // Strict parse: atoi would turn a typo'd "4510x" into a silent
      // ephemeral-port bind. 0 is the explicit "pick an ephemeral port"
      // request (the bench prints the actual one).
      if (++i >= argc ||
          !net::parse_int(argv[i], 0, 65535, &cli.coordinate_port))
        usage(argv[0]);
    } else if (arg == "--min-workers") {
      if (++i >= argc ||
          !net::parse_int(argv[i], 1, INT_MAX, &cli.min_workers))
        usage(argv[0]);
    } else if (arg == "--min-workers-timeout-s") {
      if (++i >= argc ||
          !net::parse_int(argv[i], 0, INT_MAX, &cli.min_workers_timeout_s))
        usage(argv[0]);
    } else if (arg == "--connect") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &cli.connect_host,
                                &cli.connect_port))
        usage(argv[0]);
    } else if (arg == "--submit") {
      if (++i >= argc) usage(argv[0]);
      if (!net::parse_host_port(argv[i], &cli.submit_host, &cli.submit_port))
        usage(argv[0]);
    } else if (arg == "--priority") {
      if (++i >= argc ||
          !net::parse_int(argv[i], INT_MIN, INT_MAX, &cli.priority))
        usage(argv[0]);
    } else if (arg == "--emit-jobs") {
      cli.emit_jobs = true;
    } else if (arg == "--token") {
      if (++i >= argc) usage(argv[0]);
      cli.token = argv[i];
    } else if (arg == "--trace") {
      if (++i >= argc) usage(argv[0]);
      cli.trace_dir = argv[i];
    } else {
      std::fprintf(stderr, "unknown argument \"%s\"\n", arg.c_str());
      usage(argv[0]);
    }
  }
  if (cli.merging() && (cli.sharded() || cli.emit_plan)) {
    std::fprintf(stderr, "--merge excludes --shard/--emit-plan\n");
    std::exit(2);
  }
  // Clear any previous run's port file NOW, before the (possibly long)
  // model training/loading that precedes binding: a launcher polling for
  // the file must never read a dead port from an earlier run.
  if (cli.coordinating())
    std::filesystem::remove(results_dir() + "/" + cli.bench + ".port");
  const int modes = (cli.coordinating() ? 1 : 0) + (cli.connecting() ? 1 : 0) +
                    (cli.submitting() ? 1 : 0) + (cli.emit_jobs ? 1 : 0) +
                    ((cli.merging() || cli.sharded() || cli.emit_plan) ? 1 : 0);
  if (modes > 1) {
    std::fprintf(stderr,
                 "--coordinate / --connect / --submit / --emit-jobs / "
                 "shard-lifecycle flags are mutually exclusive\n");
    std::exit(2);
  }
  return cli;
}

// ---------------------------------------------------------------------------
// Observability (obs/trace.h): --trace DIR or SYSNOISE_TRACE=DIR
// ---------------------------------------------------------------------------

// Per-bench flight recorder. Construct right after parse_cli: when tracing
// was requested (--trace DIR wins over SYSNOISE_TRACE=DIR) it resets the
// tracer + metrics registry, opens a top-level "bench.<name>" span covering
// the whole run, and finish() flushes <dir>/<bench>_<pid>_{trace,metrics,
// summary}.json — attaching the run's StageStats to the summary when given.
// When neither source is set, every member is an inert no-op, so benches
// construct it unconditionally (the report bytes are identical either way).
class BenchTrace {
 public:
  explicit BenchTrace(const BenchCli& cli)
      : label_("bench." + cli.bench),
        session_(cli.trace_dir.empty()
                     ? obs::TraceSession::from_env(cli.bench)
                     : obs::TraceSession(cli.trace_dir, cli.bench)) {
    if (session_.active())
      top_ = std::make_unique<obs::TraceSpan>(label_.c_str());
  }
  ~BenchTrace() { finish(nullptr); }
  BenchTrace(const BenchTrace&) = delete;
  BenchTrace& operator=(const BenchTrace&) = delete;

  bool active() const { return session_.active(); }

  // Close the top-level span and flush the trace files; idempotent (the
  // destructor calls it with no stats for early-exit paths).
  void finish(const core::StageStats* stages) {
    top_.reset();
    if (!session_.active()) return;
    if (stages != nullptr)
      session_.add_summary("stage_stats", stages->to_json());
    const std::string path = session_.trace_path();
    session_.finish();
    std::printf("[trace] wrote %s (+ metrics/summary siblings)\n",
                path.c_str());
  }

 private:
  // label_ outlives session_ (declaration order): the drain inside
  // session_.finish() reads the span-name pointer top_ handed it.
  std::string label_;
  obs::TraceSession session_;
  std::unique_ptr<obs::TraceSpan> top_;
};

// The one-line stage-cache summary every staged bench prints — one shape for
// all tables so eyes (and greps) can compare runs, now covering the forward
// disk cache too.
inline void print_stage_cache_stats(const BenchCli& cli,
                                    const core::StageStats& s,
                                    std::size_t memo_hits) {
  std::printf(
      "[%s] stage cache: %zu/%zu preprocess evals reused, %zu/%zu forwards "
      "reused; disk: %zu pre hits / %zu computed (%zu persisted), %zu fwd "
      "hits / %zu computed; %zu batched forward calls; metric memo %zu "
      "hits\n",
      cli.bench.c_str(), s.preprocess_hits, s.evaluations, s.forward_hits,
      s.evaluations, s.preprocess_disk_hits, s.preprocess_computed,
      s.preprocess_persisted, s.forward_disk_hits, s.forward_computed,
      s.batched_forward_calls, memo_hits);
}

// ---------------------------------------------------------------------------
// Distributed mode (shared by every bench)
// ---------------------------------------------------------------------------

// --connect: serve a sweep service as a zoo-backed worker. Returns the
// bench's exit code. Bench-agnostic — each job's task spec says which
// models to resolve, so `bench_table2 --connect` can serve a fig3 sweep.
// Connection attempts retry for ten minutes (a --coordinate bench may
// still be training/loading the models it is about to serve).
inline int run_bench_worker(const BenchCli& cli) {
  core::StageStats stages;
  core::DiskStageCache disk;
  dist::WorkerOptions opts;
  opts.stats = &stages;
  opts.disk = disk_stage_cache_enabled() ? &disk : nullptr;
  opts.verbose = true;
  opts.auth_token = cli.token;
  const dist::WorkerRunStats stats = dist::run_worker_retrying(
      cli.connect_host, cli.connect_port, dist::zoo_task_resolver(), opts,
      std::chrono::seconds(600));
  std::printf("[%s] worker %s: %zu leases, %zu configs evaluated\n",
              cli.bench.c_str(), stats.done ? "done" : "stopped",
              stats.leases_completed, stats.configs_evaluated);
  if (!stats.error.empty())
    std::fprintf(stderr, "[%s] worker error: %s\n", cli.bench.c_str(),
                 stats.error.c_str());
  return stats.done ? 0 : 1;
}

// One schedulable sweep: the opaque task spec workers resolve
// (dist/task_factory.h) plus the plan to evaluate.
struct DistJob {
  util::Json task_spec;
  core::SweepPlan plan;
};

// --emit-jobs: write the (task-spec, plan) job list as JSON for later
// `sysnoise_ctl submit` against a running sweep service.
inline void write_jobs_file(const BenchCli& cli,
                            const std::vector<DistJob>& jobs) {
  util::Json j = util::Json::object();
  j.set("bench", cli.bench);
  util::Json jjobs = util::Json::array();
  for (const DistJob& job : jobs) {
    util::Json jj = util::Json::object();
    jj.set("task", job.task_spec);
    jj.set("plan", job.plan.to_json());
    jjobs.push_back(std::move(jj));
  }
  j.set("jobs", std::move(jjobs));
  const std::string path = write_file(cli.jobs_file(), j.dump(2) + "\n");
  std::printf("wrote %s (%zu jobs)\n", path.c_str(), jobs.size());
}

// Hand the jobs to the sweep service at host:port and collect each merged
// MetricMap by watching until done — riding out service restarts, so the
// report a bench renders this way survives a kill -9 of a resident service
// byte-identically.
inline std::vector<core::MetricMap> submit_jobs(
    const BenchCli& cli, const std::string& host, int port,
    const std::vector<DistJob>& jobs) {
  svc::ClientOptions copts;
  copts.host = host;
  copts.port = port;
  copts.token = cli.token;
  copts.verbose = true;
  svc::ServiceClient client(copts);
  std::vector<int> ids;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string name = cli.bench + "#" + std::to_string(i);
    ids.push_back(client.submit(jobs[i].task_spec, jobs[i].plan, cli.priority,
                                name));
    std::printf("[%s] submitted job %d (\"%s\", priority %d)\n",
                cli.bench.c_str(), ids.back(), name.c_str(), cli.priority);
    std::fflush(stdout);
  }
  std::vector<core::MetricMap> results;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.push_back(client.collect(ids[i], [&](const util::Json& p) {
      std::printf("[%s] job %d: %s %d/%d units\n", cli.bench.c_str(), ids[i],
                  p.at("state").as_string().c_str(),
                  p.at("units_done").as_int(), p.at("units_total").as_int());
      std::fflush(stdout);
    }));
    std::printf("[%s] job %d done (%zu metrics)\n", cli.bench.c_str(), ids[i],
                results.back().size());
  }
  return results;
}

// --coordinate: serve `jobs` from an in-process volatile sweep service until
// remote workers finished every work unit; returns one full MetricMap per
// job, ready for assembly. The caller built the jobs' plans from its
// models, exactly like the single-process path. The actual bound port
// (which may be ephemeral: `--coordinate 0`) is printed AND written to
// <results_dir>/<bench>.port so scripts launching workers can read it
// instead of hard-coding a collision-prone number. The jobs are submitted
// once --min-workers workers joined; when --min-workers-timeout-s runs out
// first, the bench exits non-zero.
inline std::vector<core::MetricMap> coordinate_jobs(
    const BenchCli& cli, const std::vector<DistJob>& jobs) {
  svc::ServiceOptions opts;
  opts.port = cli.coordinate_port;
  opts.auth_token = cli.token;
  opts.verbose = true;
  svc::SweepService service(opts);
  // Atomic: worker launchers poll for this file and must never read a
  // half-written port number.
  write_file_atomic(cli.bench + ".port", std::to_string(service.port()) + "\n");
  std::printf("[%s] coordinating on port %d (min workers: %d; port file: "
              "%s/%s.port)\n",
              cli.bench.c_str(), service.port(), cli.min_workers,
              results_dir().c_str(), cli.bench.c_str());
  std::fflush(stdout);
  // --min-workers-timeout-s 0 waits for the quorum forever, an hour at a
  // time.
  const std::chrono::milliseconds quorum_wait =
      cli.min_workers_timeout_s > 0
          ? std::chrono::milliseconds(
                std::chrono::seconds(cli.min_workers_timeout_s))
          : std::chrono::hours(1);
  while (!service.wait_workers(static_cast<std::size_t>(cli.min_workers),
                               quorum_wait)) {
    if (cli.min_workers_timeout_s == 0) continue;
    const std::size_t joined = service.stats().workers_joined;
    service.stop();
    std::fprintf(stderr,
                 "[%s] only %zu of %d required workers joined within %ds\n",
                 cli.bench.c_str(), joined, cli.min_workers,
                 cli.min_workers_timeout_s);
    std::exit(1);
  }
  std::vector<core::MetricMap> results =
      submit_jobs(cli, "127.0.0.1", service.port(), jobs);
  service.stop();  // attached workers get `done` on their next request
  const svc::ServiceStats stats = service.stats();
  std::printf("[%s] distributed sweep done: %zu workers, %zu units "
              "(%zu re-leased after expiry/death), %zu results\n",
              cli.bench.c_str(), stats.workers_joined,
              stats.scheduler.completed, stats.scheduler.re_leases,
              stats.results_received);
  return results;
}

// Dispatch the dist_jobs() modes once the bench built its job list. Returns
// true with `*results` filled (coordinate/submit — the caller assembles and
// renders), or false when the invocation is complete (--emit-jobs).
inline bool dist_results(const BenchCli& cli, const std::vector<DistJob>& jobs,
                         std::vector<core::MetricMap>* results) {
  if (cli.emit_jobs) {
    write_jobs_file(cli, jobs);
    return false;
  }
  *results = cli.submitting()
                 ? submit_jobs(cli, cli.submit_host, cli.submit_port, jobs)
                 : coordinate_jobs(cli, jobs);
  return true;
}

// ---------------------------------------------------------------------------
// Shard-result files
// ---------------------------------------------------------------------------

// One executed (plan, partial metrics) pair; a shard file holds one per
// model the bench covers.
struct PlanRun {
  core::SweepPlan plan;
  core::MetricMap metrics;
};

inline void write_plan_file(const BenchCli& cli,
                            const std::vector<core::SweepPlan>& plans) {
  util::Json j = util::Json::array();
  for (const core::SweepPlan& plan : plans) j.push_back(plan.to_json());
  const std::string path = write_file(cli.plan_file(), j.dump(2) + "\n");
  std::printf("wrote %s (%zu plans)\n", path.c_str(), plans.size());
}

inline void write_shard_file(const BenchCli& cli,
                             const std::vector<PlanRun>& runs) {
  util::Json j = util::Json::object();
  j.set("bench", cli.bench);
  j.set("shard_index", cli.shard_index);
  j.set("shard_count", cli.shard_count);
  util::Json jruns = util::Json::array();
  for (const PlanRun& run : runs) {
    util::Json jr = util::Json::object();
    jr.set("fingerprint", run.plan.fingerprint());
    jr.set("plan", run.plan.to_json());
    util::Json jm = util::Json::object();
    for (const auto& [key, value] : run.metrics) jm.set(key, value);
    jr.set("metrics", std::move(jm));
    jruns.push_back(std::move(jr));
  }
  j.set("runs", std::move(jruns));
  const std::string path = write_file(cli.shard_file(), j.dump(2) + "\n");
  std::printf("wrote %s (%zu runs, shard %d/%d)\n", path.c_str(), runs.size(),
              cli.shard_index, cli.shard_count);
}

// Read shard files from --shard runs of the same bench and merge them:
// plans must agree run-for-run (verified by fingerprint), metrics union
// through ShardExecutor::merge (which verifies completeness). Exits with a
// diagnostic on any mismatch.
inline std::vector<PlanRun> merge_shard_files(
    const BenchCli& cli, const std::vector<std::string>& paths) {
  struct Partial {
    core::SweepPlan plan;
    std::string fingerprint;
    std::vector<core::MetricMap> parts;
  };
  std::vector<Partial> partials;
  for (const std::string& path : paths) {
    const util::Json j = util::Json::parse(read_file(path));
    if (j.at("bench").as_string() != cli.bench) {
      std::fprintf(stderr, "%s is a %s shard file, not %s\n", path.c_str(),
                   j.at("bench").as_string().c_str(), cli.bench.c_str());
      std::exit(2);
    }
    const util::Json& jruns = j.at("runs");
    if (!partials.empty() && partials.size() != jruns.size()) {
      std::fprintf(stderr, "%s holds %zu runs, earlier shards held %zu\n",
                   path.c_str(), jruns.size(), partials.size());
      std::exit(2);
    }
    for (std::size_t r = 0; r < jruns.size(); ++r) {
      const util::Json& jr = jruns.at(r);
      const std::string fingerprint = jr.at("fingerprint").as_string();
      if (partials.size() <= r) {
        Partial p;
        p.plan = core::SweepPlan::from_json(jr.at("plan"));
        p.fingerprint = p.plan.fingerprint();
        if (p.fingerprint != fingerprint) {
          std::fprintf(stderr, "%s run %zu: fingerprint mismatch after JSON "
                       "round trip\n", path.c_str(), r);
          std::exit(2);
        }
        partials.push_back(std::move(p));
      } else if (partials[r].fingerprint != fingerprint) {
        std::fprintf(stderr, "%s run %zu was planned differently than "
                     "earlier shards (fingerprint mismatch)\n",
                     path.c_str(), r);
        std::exit(2);
      }
      core::MetricMap metrics;
      for (const auto& [key, value] : jr.at("metrics").items())
        metrics.emplace(key, value.as_number());
      partials[r].parts.push_back(std::move(metrics));
    }
  }

  std::vector<PlanRun> merged;
  for (Partial& p : partials) {
    PlanRun run;
    run.metrics = core::ShardExecutor::merge(p.plan, p.parts);
    run.plan = std::move(p.plan);
    merged.push_back(std::move(run));
  }
  return merged;
}

// Raw metric of the planned config with `role` (and, for kOption, the given
// axis name + option label) — how a bench renders legacy table cells from a
// plan run without re-evaluating anything.
inline double planned_metric(const PlanRun& run,
                             core::PlannedConfig::Role role,
                             const std::string& axis = "",
                             const std::string& label = "") {
  for (const core::PlannedConfig& p : run.plan.configs) {
    if (p.role != role) continue;
    if (role == core::PlannedConfig::Role::kOption &&
        (run.plan.axes[static_cast<std::size_t>(p.axis)].name != axis ||
         p.label != label))
      continue;
    return run.metrics.at(p.metric_key);
  }
  throw std::out_of_range("plan for \"" + run.plan.task +
                          "\" holds no config for axis \"" + axis +
                          "\" option \"" + label + "\"");
}

// planned_metric of each option `labels` names on `axis`, in that order.
inline std::vector<double> option_metrics(const PlanRun& run,
                                          const std::string& axis,
                                          const std::vector<std::string>& labels) {
  std::vector<double> out;
  for (const std::string& label : labels)
    out.push_back(
        planned_metric(run, core::PlannedConfig::Role::kOption, axis, label));
  return out;
}

// Train x test accuracy matrix (tables 7-9): row r is training recipe
// trains[r], with its accuracy under each test option, then their mean and
// population std. Prints the table and writes <bench>.txt and <bench>.csv
// (one "train,test,acc" line per cell).
inline void write_accuracy_matrix(const std::string& bench,
                                  const std::vector<std::string>& tests,
                                  const std::vector<std::string>& trains,
                                  const std::vector<std::vector<double>>& accs) {
  std::vector<std::string> headers = {"Train \\ Test"};
  headers.insert(headers.end(), tests.begin(), tests.end());
  headers.push_back("Mean");
  headers.push_back("Std.");
  core::TextTable table(headers);
  std::string csv = "train,test,acc\n";
  for (std::size_t r = 0; r < trains.size(); ++r) {
    std::vector<std::string> cells = {trains[r]};
    double sum = 0.0, sq = 0.0;
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const double acc = accs[r][t];
      cells.push_back(core::fmt(acc));
      csv += trains[r] + "," + tests[t] + "," + core::fmt(acc) + "\n";
      sum += acc;
      sq += acc * acc;
    }
    const double n = static_cast<double>(tests.size());
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    cells.push_back(core::fmt(mean));
    cells.push_back(core::fmt(std::sqrt(std::max(var, 0.0)), 3));
    table.add_row(std::move(cells));
  }
  std::fputs(table.str().c_str(), stdout);
  write_file(bench + ".txt", table.str());
  write_file(bench + ".csv", csv);
}

// ---------------------------------------------------------------------------
// run_standard_modes: the one mode dispatcher every table/fig bench uses
// ---------------------------------------------------------------------------

// One unit of a bench: a live task plus its SweepPlan and the
// dist-factory spec that lets a remote worker rebuild the task.
struct PlanUnit {
  util::Json task_spec;                  // dist::*_spec(...).to_json()
  core::SweepPlan plan;
  const core::EvalTask* task = nullptr;  // borrowed from `owner`
  double seed_metric = 0.0;              // training-default metric...
  bool has_seed = false;                 // ...seeded into the cache when set
  std::shared_ptr<void> owner;           // keeps the trained model alive
};

// The unit for the zoo task `spec` names, planned over `registry` by `plan`
// (a sweep unless given plan_stepwise) and resolved through
// dist::resolve_zoo_task exactly as a worker resolves it, so the local run
// and a distributed one train, load and seed the same task.
inline PlanUnit zoo_unit(const dist::TaskSpec& spec,
                         const core::AxisRegistry& registry,
                         core::SweepPlan (*plan)(const core::EvalTask&,
                                                 const core::AxisRegistry&) =
                             core::plan_sweep) {
  dist::ResolvedWorkerTask resolved = dist::resolve_zoo_task(spec.to_json());
  PlanUnit unit;
  unit.task_spec = spec.to_json();
  unit.plan = plan(*resolved.task, registry);
  unit.task = resolved.task;
  unit.has_seed = !resolved.seeds.empty();  // the training-default metric
  if (unit.has_seed) unit.seed_metric = resolved.seeds.begin()->second;
  unit.owner = std::move(resolved.owner);
  return unit;
}

// A bench: `make(i)` trains/loads unit i and returns it; `render(runs)`
// assembles and writes the final report from one complete (plan, metrics)
// pair per unit, in unit order. The driver owns every mode: --connect,
// --merge, --emit-plan, --coordinate/--submit/--emit-jobs, --shard, and the
// plain local run — all byte-identical on the same plans. A bench with
// `units = 0` does all its work in render, which then runs exactly where a
// report is due (local run, --merge, --coordinate, --submit).
struct PlanBenchDef {
  std::size_t units = 0;
  std::function<PlanUnit(std::size_t)> make;
  std::function<void(const std::vector<PlanRun>&)> render;
};

inline int run_standard_modes(const BenchCli& cli, BenchTrace& trace,
                              const PlanBenchDef& def) {
  if (cli.connecting()) return run_bench_worker(cli);
  if (cli.merging()) {
    def.render(merge_shard_files(cli, cli.merge_files));
    return 0;
  }

  core::SweepCache cache;
  core::StageStats stages;
  core::DiskStageCache disk;
  core::DiskStageCache* disk_ptr =
      disk_stage_cache_enabled() ? &disk : nullptr;
  const core::StagedExecutor staged(&stages, disk_ptr);

  std::vector<core::SweepPlan> plans;
  std::vector<PlanRun> runs;
  std::vector<DistJob> jobs;
  std::vector<std::shared_ptr<void>> owners;
  for (std::size_t i = 0; i < def.units; ++i) {
    PlanUnit unit = def.make(i);
    if (cli.emit_plan) {
      plans.push_back(std::move(unit.plan));
      continue;
    }
    if (cli.dist_jobs()) {
      jobs.push_back({std::move(unit.task_spec), std::move(unit.plan)});
      continue;
    }
    if (unit.has_seed)
      cache.seed(*unit.task, SysNoiseConfig::training_default(),
                 unit.seed_metric);
    core::SweepOptions opts;
    opts.cache = &cache;
    if (cli.sharded()) {
      const core::ShardExecutor shard(staged, cli.shard_index,
                                      cli.shard_count);
      runs.push_back({unit.plan, shard.execute(*unit.task, unit.plan, opts)});
    } else {
      runs.push_back({unit.plan, staged.execute(*unit.task, unit.plan, opts)});
    }
    // The model must outlive the executor calls above; benches sharing one
    // model across units return the same owner repeatedly, which is fine.
    owners.push_back(std::move(unit.owner));
  }

  if (cli.emit_plan) {
    write_plan_file(cli, plans);
    return 0;
  }
  if (cli.dist_jobs()) {
    std::vector<core::MetricMap> results;
    if (!dist_results(cli, jobs, &results)) return 0;  // --emit-jobs
    std::vector<PlanRun> out;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      out.push_back({std::move(jobs[i].plan), std::move(results[i])});
    def.render(out);
    return 0;
  }
  print_stage_cache_stats(cli, stages, cache.hits());
  trace.finish(&stages);
  if (cli.sharded()) {
    write_shard_file(cli, runs);
    return 0;
  }
  def.render(runs);
  return 0;
}

}  // namespace sysnoise::bench
