// The benchmark's workloads. Each one sets up from the model zoo, repeats
// its unit of work for the requested number of seconds with fresh in-memory
// caches, checks every output against an oracle, and fills a Report.
//
//  sweep_image   fast Table 2 (MCUNet, ResNet-XS, ResNet-S) + fast Table 3
//                (FasterRCNN-ResNet) plans through core::StagedExecutor
//  sweep_nlp     fast Table 5 (OPT-mini, four multiple-choice subtasks)
//  serve_mcunet  open-loop Poisson arrivals into serve::InferenceServer
//  dist_warm     the sweep_image plans through an in-process
//                svc::SweepService and two dist::run_worker threads that
//                share a warmed DiskStageCache
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       // per-layer run: obs tracing on for half of it
  bool setup_only = false;  // set up, report setup time and exit
  std::string work_dir;     // scratch directory for journals, caches, traces
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;  // false once any output disagreed with its oracle
  double setup_s = 0.0;
  double setup_peak_rss_mb = 0.0;  // peak resident memory when set-up ended
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  sysnoise::util::Json detail = sysnoise::util::Json::object();
  std::vector<std::string> failures;  // the first few, for the log

  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  // `n` failed operations. A wrong output also clears `correct`; a refused
  // request (shed) counts as failed without being a wrong answer.
  void fail(const std::string& why, std::size_t n = 1, bool wrong = true);
};

// The per-layer metrics every traced run reports, in order, with units;
// layers a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

const std::vector<std::string>& workload_names();

Report run_workload(const RunArgs& args);

// Train any zoo model the workloads need that the cache lacks. Returns
// {"trained": [names...]} — the record of what this step had to train.
sysnoise::util::Json prepare_zoo();

}  // namespace perfbench
