// perfbench: the end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--work-dir DIR]
//   perfbench --prepare-zoo
//
// Runs one workload (workloads.h) and prints, as the last line of standard
// output, {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones. Lines before it
// carry the host/provenance block, the workload's detail (sample counts,
// per-phase percentiles) and, for traced runs, the per-layer table; the same
// record is written to <work-dir>/results/. --setup-only stops after set-up
// and reports setup_s and peak_rss_mb alone. --prepare-zoo trains whatever
// zoo model the cache lacks and prints what it trained, so no timed run ever
// trains.
//
// Run it through run.py, which builds it, prepares the zoo once and takes
// the median set-up time and memory over several processes.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "models/zoo.h"
#include "tensor/backend.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using sysnoise::util::Json;
namespace fs = std::filesystem;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--setup-only] [--work-dir DIR]\n"
               "       perfbench --prepare-zoo\n",
               why);
  std::exit(2);
}

bool release_build() {
#ifdef NDEBUG
  return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' ? v : fallback;
}

Json read_json_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Json();
  std::string text((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  try {
    return Json::parse(text);
  } catch (const std::exception&) {
    return Json();
  }
}

Json provenance(const perfbench::RunArgs& a) {
  Json p = Json::object();
  p.set("workload", a.workload);
  p.set("seed", static_cast<double>(a.seed));
  p.set("seconds", a.seconds);
  p.set("trace", a.trace);
  p.set("simd_isa", sysnoise::simd_isa_name());
  p.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  p.set("default_backend",
        sysnoise::backend_name(sysnoise::default_backend()));
  p.set("compiler", PERFBENCH_COMPILER);
  p.set("build_type", PERFBENCH_BUILD_TYPE);
  p.set("release", release_build());
  p.set("git_commit", env_or("PERFBENCH_GIT_COMMIT", "unknown"));
  // What the zoo preparation step trained, from its record in the cache.
  p.set("zoo", read_json_file(sysnoise::models::cache_dir() +
                              "/perfbench_zoo.json"));
  return p;
}

// Aggregate CPU time from /proc/stat as {total, steal} jiffies; zeros when
// unavailable. On a virtual machine, steal is time the host gave our vCPUs to
// someone else — the first thing to check when a run reads slow.
std::pair<double, double> cpu_jiffies() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return {0.0, 0.0};
  double total = 0.0;
  for (double& x : v) {
    if (!(f >> x)) return {0.0, 0.0};
    total += x;
  }
  return {total, v[7]};
}

Json metric_json(double value, const std::string& unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

void print_layer_table(const perfbench::Report& rep) {
  std::printf("per-layer metrics (traced half of the run; see README.md):\n");
  for (const auto& [name, unit] : perfbench::per_layer_catalog())
    for (const perfbench::Metric& m : rep.per_layer)
      if (m.name == name)
        std::printf("  %-36s %14.4f %s\n", name.c_str(), m.value,
                    unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs a;
  a.work_dir = ".bench_build/work";
  bool trace_given = false, prepare = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
      trace_given = true;
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--prepare-zoo") {
      prepare = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }

  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (NDEBUG %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
                 "set"
#else
                 "unset"
#endif
    );
    return 3;
  }

  try {
    if (prepare) {
      const Json record = perfbench::prepare_zoo();
      std::printf("%s\n", record.dump().c_str());
      return 0;
    }
    bool known = false;
    for (const std::string& w : perfbench::workload_names())
      known = known || w == a.workload;
    if (!known) usage(("unknown workload \"" + a.workload + "\"").c_str());
    if (!trace_given) usage("--trace is required");
    if (!(a.seconds > 0)) usage("--seconds must be positive");
    fs::create_directories(a.work_dir);

    const auto [total0, steal0] = cpu_jiffies();
    perfbench::Report rep = perfbench::run_workload(a);
    const auto [total1, steal1] = cpu_jiffies();
    if (total1 > total0)
      rep.detail.set("host_steal_pct",
                     100.0 * (steal1 - steal0) / (total1 - total0));
    Json metrics = Json::object();
    if (a.setup_only || !a.trace) {
      // A set-up-only run ends before measuring: end_to_end is empty.
      metrics.set("setup_s", metric_json(rep.setup_s, "s"));
      metrics.set("peak_rss_mb", metric_json(rep.setup_peak_rss_mb, "MiB"));
      for (const perfbench::Metric& m : rep.end_to_end)
        metrics.set(m.name, metric_json(m.value, m.unit));
    } else {
      for (const auto& [name, unit] : perfbench::per_layer_catalog()) {
        double value = 0.0;
        for (const perfbench::Metric& m : rep.per_layer)
          if (m.name == name) value = m.value;
        metrics.set(name, metric_json(value, unit));
      }
    }

    Json result = Json::object();
    result.set("correct", rep.correct);
    result.set("attempted", rep.attempted);
    result.set("failed", rep.failed);
    result.set("metrics", std::move(metrics));

    Json record = Json::object();
    record.set("provenance", provenance(a));
    record.set("detail", rep.detail);
    Json failures = Json::array();
    for (const std::string& f : rep.failures) failures.push_back(f);
    record.set("failures", std::move(failures));
    record.set("result", result);
    if (!a.setup_only) {
      const std::string dir = a.work_dir + "/results";
      fs::create_directories(dir);
      std::ofstream(dir + "/" + a.workload + "_seed" +
                    std::to_string(a.seed) + "_trace" +
                    (a.trace ? "1" : "0") + ".json")
          << record.dump(1) << "\n";
    }

    std::printf("provenance %s\n", record.at("provenance").dump().c_str());
    std::printf("detail %s\n", rep.detail.dump().c_str());
    for (const std::string& f : rep.failures)
      std::printf("FAILED %s\n", f.c_str());
    if (a.trace) print_layer_table(rep);
    std::printf("%s\n", result.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
