#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/axis.h"
#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "dist/protocol.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "layers.h"
#include "models/classifiers.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "nlp/eval_task.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"
#include "nn/serialize.h"
#include "obs/trace.h"
#include "percentile.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "svc/client.h"
#include "svc/service.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace sysnoise;
namespace fs = std::filesystem;

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  end_to_end.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  for (Metric& m : per_layer)
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  per_layer.push_back({name, value, unit});
}

void Report::fail(const std::string& why, std::size_t n, bool wrong) {
  failed += n;
  if (wrong) correct = false;
  if (failures.size() < 8) failures.push_back(why);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"data.preprocess.calls", "count"},
      {"data.preprocess.busy_ms", "ms"},
      {"models.forward.calls", "count"},
      {"models.forward.busy_ms", "ms"},
      {"models.forward.configs_per_call", "count"},
      {"models.forward.ms_per_config", "ms"},
      {"detect.postprocess.busy_ms", "ms"},
      {"core.executor.idle_share", "ratio"},
      {"core.stage.preprocess_hit_ratio", "ratio"},
      {"tensor.gemm.fanout_ms", "ms"},
      {"tensor.gemm.fanout_count", "count"},
      {"serve.queue_wait_ms.p50", "ms"},
      {"serve.queue_wait_ms.p99", "ms"},
      {"serve.batch_size.mean", "count"},
      {"serve.predict_ms.p50", "ms"},
      {"serve.predict_ms_per_item", "ms"},
      {"serve.shed", "count"},
      {"serve.gen_lag_ms.p99", "ms"},
      {"dist.resolve_ms", "ms"},
      {"dist.eval_busy_ms", "ms"},
      {"dist.overhead_ms_per_unit", "ms"},
      {"dist.units", "count"},
      {"dist.re_leases", "count"},
      {"core.disk_stage_cache.decode_ms", "ms"},
      {"core.disk_stage_cache.hit_ratio", "ratio"},
      {"svc.journal.fsync_ms.p50", "ms"},
      {"models.zoo_load_ms", "ms"},
      {"data.dataset_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return kCatalog;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"sweep_image", "sweep_nlp",
                                                  "serve_mcunet", "dist_warm"};
  return kNames;
}

namespace {

// Executor threads of the sweep workloads, fixed so that hosts with more
// cores run the same schedule.
constexpr int kExecutorThreads = 4;
// The fast Table 2 rows are the first three classifiers of the zoo; the fast
// Table 3 row is one detector; the fast Table 5 row is the smallest LM.
constexpr std::size_t kFastClassifiers = 3;
const char* const kFastDetector = "FasterRCNN-ResNet";
// Configs per plan re-evaluated through the monolithic oracle.
constexpr std::size_t kOracleConfigsPerPlan = 2;

// serve_mcunet: server shape, offered rates and the latency objective.
constexpr int kServeWorkers = 2;
constexpr int kServeMaxBatch = 8;
constexpr double kServeMaxDelayMs = 2.0;
constexpr std::size_t kServeQueue = 256;
constexpr double kLowRps = 1000.0;
constexpr double kHighRps = 3000.0;
constexpr double kSearchCeilingRps = 12000.0;
constexpr int kSearchProbes = 4;
constexpr double kSloP99Ms = 10.0;

// dist_warm: two workers, each evaluating leases on two threads; idle
// workers re-poll for leases every kDistPollMs. ServiceClient::collect
// learns that a job finished on the service's kWatchTickMs watch tick, and
// the whole repetition is only a few ticks long: with a fixed phase its wall
// time would read as k ticks or k + 1 ticks from one run to the next. Seeded
// delays spread both phases uniformly — one in [0, poll) before submitting
// (untimed), one in [0, tick) before collecting — so the median repetition
// is the work plus half a poll and half a tick on average.
constexpr int kDistWorkers = 2;
constexpr int kDistWorkerThreads = 2;
constexpr int kDistPollMs = 10;
constexpr double kWatchTickMs = 50.0;

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up ends here: its duration, and the process's peak resident memory so
// far. Memory is read at this point rather than at exit because the timed
// repetitions only redo set-up's work, and their peak depends on how threads
// happened to interleave frees across allocator arenas.
void finish_setup(Report& rep, Clock::time_point setup_start) {
  rep.setup_s = seconds_since(setup_start);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  rep.setup_peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

// ---------------------------------------------------------------------------
// Zoo: the sweep units each workload loads at setup
// ---------------------------------------------------------------------------

template <typename Trained, typename Task>
struct Holder {
  Trained trained;
  Task task;
  explicit Holder(Trained t) : trained(std::move(t)), task(trained) {}
};

struct SweepUnit {
  std::shared_ptr<void> owner;  // keeps the trained model alive
  const core::StagedEvalTask* task = nullptr;
  core::SweepPlan plan;
  dist::TaskSpec spec;  // how a dist worker rebuilds the task (dist_warm)
  double seed_metric = 0.0;  // the zoo's clean-pipeline metric...
  bool has_seed = false;     // ...seeded into the metric memo as benches do
};

struct Loaded {
  std::vector<SweepUnit> units;
  double dataset_ms = 0.0;
  double zoo_load_ms = 0.0;
};

std::vector<std::string> fast_classifier_names() {
  std::vector<std::string> names;
  for (const models::ClassifierSpec& spec : models::classifier_zoo())
    if (names.size() < kFastClassifiers) names.push_back(spec.name);
  return names;
}

Loaded load_image_units() {
  Loaded out;
  Clock::time_point t0 = Clock::now();
  models::benchmark_cls_dataset();
  models::benchmark_det_dataset();
  out.dataset_ms = ms_since(t0, Clock::now());

  t0 = Clock::now();
  using ClsHolder = Holder<models::TrainedClassifier, models::ClassifierTask>;
  using DetHolder = Holder<models::TrainedDetector, models::DetectorTask>;
  std::vector<std::shared_ptr<ClsHolder>> cls;
  for (const std::string& name : fast_classifier_names())
    cls.push_back(std::make_shared<ClsHolder>(models::get_classifier(name)));
  auto det = std::make_shared<DetHolder>(models::get_detector(kFastDetector));
  out.zoo_load_ms = ms_since(t0, Clock::now());

  for (auto& h : cls) {
    SweepUnit u;
    u.task = &h->task;
    u.plan = core::plan_sweep(h->task, core::AxisRegistry::global());
    u.spec = dist::classifier_spec(h->trained.name);
    u.seed_metric = h->trained.trained_acc;
    u.has_seed = true;
    u.owner = h;
    out.units.push_back(std::move(u));
  }
  SweepUnit u;
  u.task = &det->task;
  u.plan = core::plan_sweep(det->task, core::AxisRegistry::global());
  u.spec = dist::detector_spec(kFastDetector);
  u.seed_metric = det->trained.trained_map;
  u.has_seed = true;
  u.owner = det;
  out.units.push_back(std::move(u));
  return out;
}

// The zoo retrains OPT-mini in every process, so the benchmark keeps the
// trained weights next to the zoo's own cache.
const nlp::LmSpec& fast_lm_spec() {
  static const nlp::LmSpec spec = nlp::opt_mini_zoo().front();
  return spec;
}

std::string lm_stem(const std::string& name) {
  return models::cache_dir() + "/perfbench_lm_" + name;
}

nn::ParamRefs lm_params(nlp::CausalLm& lm) {
  nn::ParamRefs params;
  lm.collect(params);
  return params;
}

bool load_lm(const nlp::LmSpec& spec, nlp::TrainedLm* out) {
  out->name = spec.name;
  Rng rng(77);
  out->lm = std::make_unique<nlp::CausalLm>(spec, nlp::kVocab, rng);
  const std::string stem = lm_stem(spec.name);
  return nn::load_params(stem + ".weights", lm_params(*out->lm)) &&
         nn::load_ranges(stem + ".ranges", out->ranges);
}

Loaded load_nlp_units() {
  Loaded out;
  Clock::time_point t0 = Clock::now();
  auto lm = std::make_shared<nlp::TrainedLm>();
  if (!load_lm(fast_lm_spec(), lm.get()))
    throw std::runtime_error("OPT-mini weights missing from the zoo cache "
                             "(run --prepare-zoo first)");
  out.zoo_load_ms = ms_since(t0, Clock::now());

  struct NlpHolder {
    std::shared_ptr<nlp::TrainedLm> lm;
    nlp::NlpChoiceTask task;
    NlpHolder(std::shared_ptr<nlp::TrainedLm> l, nlp::TaskKind k)
        : lm(std::move(l)), task(*lm, k) {}
  };
  t0 = Clock::now();
  std::vector<std::shared_ptr<NlpHolder>> holders;
  for (int k = 0; k < nlp::kNumTasks; ++k)
    holders.push_back(
        std::make_shared<NlpHolder>(lm, static_cast<nlp::TaskKind>(k)));
  out.dataset_ms = ms_since(t0, Clock::now());  // the eval items per subtask

  for (auto& h : holders) {
    SweepUnit u;
    u.task = &h->task;
    u.plan = core::plan_sweep(h->task, core::AxisRegistry::global());
    u.owner = h;
    out.units.push_back(std::move(u));
  }
  return out;
}

std::size_t planned_configs(const std::vector<SweepUnit>& units) {
  std::size_t n = 0;
  for (const SweepUnit& u : units) n += u.plan.configs.size();
  return n;
}

void seed_baselines(const std::vector<SweepUnit>& units,
                    core::SweepCache& cache) {
  for (const SweepUnit& u : units)
    if (u.has_seed)
      cache.seed(*u.task, SysNoiseConfig::training_default(), u.seed_metric);
}

// Compare `got` with `want` on every planned config of `u`; each missing or
// differing metric is one failed operation.
void check_plan_maps(const SweepUnit& u, const core::MetricMap& got,
                     const core::MetricMap& want, const char* what,
                     Report& rep) {
  for (const core::PlannedConfig& p : u.plan.configs) {
    const auto g = got.find(p.metric_key);
    const auto w = want.find(p.metric_key);
    if (g == got.end())
      rep.fail(std::string(what) + ": no metric for " + p.metric_key);
    else if (w == want.end() || !bits_equal(g->second, w->second))
      rep.fail(std::string(what) + ": " + p.metric_key + " differs");
  }
}

// ---------------------------------------------------------------------------
// Tracing: obs::TraceSession over a window, read back from its summary
// ---------------------------------------------------------------------------

obs::TraceSession open_trace(const std::string& work_dir,
                             const std::string& workload) {
  const std::string dir = work_dir + "/trace/" + workload;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return obs::TraceSession(dir, workload);
}

const util::Json* path_get(const util::Json& j,
                           std::initializer_list<const char*> path) {
  const util::Json* cur = &j;
  for (const char* key : path) {
    if (cur == nullptr || !cur->is_object()) return nullptr;
    cur = cur->get(key);
  }
  return cur;
}

double json_number(const util::Json& j,
                   std::initializer_list<const char*> path) {
  const util::Json* v = path_get(j, path);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

void report_gemm_fanout(const util::Json& summary, double reps, Report& rep) {
  rep.layer("tensor.gemm.fanout_ms",
            json_number(summary, {"spans", "gemm.fanout", "total_ms"}) / reps,
            "ms");
  rep.layer("tensor.gemm.fanout_count",
            json_number(summary, {"spans", "gemm.fanout", "count"}) / reps,
            "count");
}

void report_task_layers(const TaskLayers& layers, double reps, Report& rep) {
  const double fwd_calls = static_cast<double>(layers.forward.calls.load());
  const double fwd_items = static_cast<double>(layers.forward.items.load());
  rep.layer("data.preprocess.calls",
            static_cast<double>(layers.preprocess.calls.load()) / reps,
            "count");
  rep.layer("data.preprocess.busy_ms", layers.preprocess.ms() / reps, "ms");
  rep.layer("models.forward.calls", fwd_calls / reps, "count");
  rep.layer("models.forward.busy_ms", layers.forward.ms() / reps, "ms");
  rep.layer("models.forward.configs_per_call",
            fwd_calls > 0 ? fwd_items / fwd_calls : 0.0, "count");
  rep.layer("models.forward.ms_per_config",
            fwd_items > 0 ? layers.forward.ms() / fwd_items : 0.0, "ms");
  rep.layer("detect.postprocess.busy_ms",
            layers.detect_postprocess.ms() / reps, "ms");
}

// ---------------------------------------------------------------------------
// sweep_image / sweep_nlp
// ---------------------------------------------------------------------------

struct SweepRep {
  double wall_ms = 0.0;
  std::size_t produced = 0;
  std::vector<core::MetricMap> maps;
  core::StageStats stats;
};

// Execute the first `plans` plans (all of them for a timed repetition).
SweepRep run_sweep_rep(const std::vector<SweepUnit>& units,
                       const std::vector<std::unique_ptr<TimedTask>>& timed,
                       std::size_t plans) {
  SweepRep r;
  r.maps.resize(plans);
  core::SweepCache cache;  // fresh metric memo per repetition
  seed_baselines(units, cache);
  const core::StagedExecutor executor(&r.stats);
  core::SweepOptions opts;
  opts.threads = kExecutorThreads;
  opts.cache = &cache;
  opts.batch_forwards = true;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < plans; ++i)
    r.maps[i] = executor.execute(*timed[i], units[i].plan, opts);
  r.wall_ms = ms_since(t0, Clock::now());
  for (std::size_t i = 0; i < plans; ++i)
    for (const core::PlannedConfig& p : units[i].plan.configs)
      r.produced += r.maps[i].count(p.metric_key);
  return r;
}

// Re-evaluate a seeded subset of every plan through the monolithic
// ThreadPoolExecutor (each config's full evaluate() chain, no stage sharing,
// no seeded baseline) and require bit-identical metrics.
void oracle_check(const std::vector<SweepUnit>& units,
                  const std::vector<core::MetricMap>& maps,
                  std::uint64_t seed, Report& rep) {
  std::mt19937_64 rng(seed ^ 0x6f7261636c65ull);
  for (std::size_t i = 0; i < units.size(); ++i) {
    const SweepUnit& u = units[i];
    std::vector<std::size_t> idx(u.plan.configs.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::shuffle(idx.begin(), idx.end(), rng);
    idx.resize(std::min(idx.size(), kOracleConfigsPerPlan));
    std::sort(idx.begin(), idx.end());
    const core::SweepPlan slice = u.plan.slice(idx);
    core::SweepOptions opts;
    opts.threads = kExecutorThreads;
    const core::MetricMap oracle =
        core::ThreadPoolExecutor().execute(*u.task, slice, opts);
    rep.attempted += slice.configs.size();
    for (const core::PlannedConfig& p : slice.configs) {
      const auto o = oracle.find(p.metric_key);
      const auto s = maps[i].find(p.metric_key);
      if (o == oracle.end() || s == maps[i].end() ||
          !bits_equal(o->second, s->second))
        rep.fail("oracle: " + p.metric_key + " staged != monolithic");
    }
  }
}

// Repeat `body` until `budget_s` seconds have passed (at least once).
template <typename Body>
void repeat_for(double budget_s, Body&& body) {
  const Clock::time_point start = Clock::now();
  do {
    body();
  } while (seconds_since(start) < budget_s);
}

Report sweep_workload(const RunArgs& a, Loaded (*load)()) {
  Report rep;
  const Clock::time_point setup_start = Clock::now();
  const Loaded loaded = load();
  const std::vector<SweepUnit>& units = loaded.units;
  TaskLayers layers;
  std::vector<std::unique_ptr<TimedTask>> timed;
  for (const SweepUnit& u : units)
    timed.push_back(std::make_unique<TimedTask>(*u.task, layers));
  // One untimed pass over the first plan finishes the lazy process-level
  // set-up (worker pools, scratch arenas, allocator growth).
  run_sweep_rep(units, timed, 1);
  finish_setup(rep, setup_start);
  rep.layer("models.zoo_load_ms", loaded.zoo_load_ms, "ms");
  rep.layer("data.dataset_ms", loaded.dataset_ms, "ms");
  if (a.setup_only) return rep;

  std::vector<SweepRep> plain, traced;
  util::Json summary = util::Json::object();
  const auto rep_into = [&](std::vector<SweepRep>& out) {
    out.push_back(run_sweep_rep(units, timed, units.size()));
  };
  if (!a.trace) {
    repeat_for(a.seconds, [&] { rep_into(plain); });
  } else {
    repeat_for(a.seconds / 2, [&] { rep_into(plain); });
    layers.reset();
    obs::TraceSession session = open_trace(a.work_dir, a.workload);
    repeat_for(a.seconds / 2, [&] { rep_into(traced); });
    summary = session.finish();
  }

  // Every repetition must produce every planned metric and reproduce the
  // first repetition bit for bit.
  const std::vector<core::MetricMap>& first = plain.front().maps;
  std::vector<double> tput, wall;
  for (const std::vector<SweepRep>* set : {&plain, &traced})
    for (const SweepRep& r : *set) {
      rep.attempted += planned_configs(units);
      for (std::size_t i = 0; i < units.size(); ++i)
        check_plan_maps(units[i], r.maps[i], first[i], "repeat", rep);
    }
  for (const SweepRep& r : plain) {
    tput.push_back(static_cast<double>(r.produced) / (r.wall_ms / 1000.0));
    wall.push_back(r.wall_ms);
  }
  oracle_check(units, first, a.seed, rep);

  rep.e2e("throughput_per_s", median(tput), "1/s");
  rep.e2e("latency_ms", median(wall), "ms");
  rep.detail.set("configs_per_rep", planned_configs(units));
  rep.detail.set("reps", plain.size());
  util::Json jwall = util::Json::array();
  for (const double w : wall) jwall.push_back(w);
  rep.detail.set("rep_wall_ms", std::move(jwall));
  rep.detail.set("stage_stats", plain.front().stats.to_json());

  if (a.trace) {
    const double n = static_cast<double>(traced.size());
    double traced_wall = 0.0;
    std::vector<double> traced_tput;
    core::StageStats stats;
    for (const SweepRep& r : traced) {
      traced_wall += r.wall_ms;
      traced_tput.push_back(static_cast<double>(r.produced) /
                            (r.wall_ms / 1000.0));
      stats += r.stats;
    }
    report_task_layers(layers, n, rep);
    rep.layer("core.executor.idle_share",
              1.0 - layers.busy_ms() / (kExecutorThreads * traced_wall),
              "ratio");
    rep.layer("core.stage.preprocess_hit_ratio",
              stats.evaluations > 0
                  ? static_cast<double>(stats.preprocess_hits) /
                        static_cast<double>(stats.evaluations)
                  : 0.0,
              "ratio");
    report_gemm_fanout(summary, n, rep);
    const double traced_median = median(traced_tput);
    rep.layer("trace.overhead_pct",
              100.0 * (median(tput) / traced_median - 1.0), "%");
    rep.detail.set("traced_reps", traced.size());
    rep.detail.set("traced_throughput_per_s", traced_median);
  }
  return rep;
}

// ---------------------------------------------------------------------------
// serve_mcunet
// ---------------------------------------------------------------------------

// Tail latency is taken per window of kWindow consecutive requests (a p99
// with 10 samples beyond it) and the median window is reported. The host's
// scheduler now and then stalls every thread for 10-30 ms; one such stall
// decides a phase-wide p99 on its own, and it says nothing about the code.
// The phase-wide percentiles stay in the detail record.
constexpr std::size_t kWindow = 1000;
constexpr double kWithheld = 1e300;  // a percentile without enough samples

struct Phase {
  double rate_rps = 0.0;
  std::size_t requests = 0;
  std::size_t shed = 0;
  std::vector<double> latency_ms;     // due -> completion, served, in order
  std::vector<double> queue_wait_ms;  // sent -> batch start, served requests
  std::vector<double> gen_lag_ms;     // due -> sent, every request
  std::vector<int> batch_sizes;
  std::vector<double> batch_ms;
  bool reconciled = true;  // served + shed == requests, stamps agree

  std::vector<Percentiles> windows() const {
    std::vector<Percentiles> out;
    for (std::size_t b = 0; b + kWindow <= latency_ms.size(); b += kWindow)
      out.emplace_back(std::vector<double>(
          latency_ms.begin() + static_cast<std::ptrdiff_t>(b),
          latency_ms.begin() + static_cast<std::ptrdiff_t>(b + kWindow)));
    return out;
  }
  // Median over windows of the window's quantile q.
  double windowed(double q) const {
    std::vector<double> v;
    for (const Percentiles& w : windows()) v.push_back(w.at_or(q, kWithheld));
    return v.empty() ? kWithheld : median(v);
  }
  double p99() const { return windowed(0.99); }
  double p50() const { return windowed(0.5); }
  // A growing backlog shows as a final window whose median misses the SLO.
  bool backlog() const {
    const std::vector<Percentiles> w = windows();
    return w.empty() || w.back().at_or(0.5, kWithheld) > kSloP99Ms;
  }
  bool meets_slo() const {
    return shed == 0 && p99() <= kSloP99Ms && !backlog();
  }
};

serve::ServerOptions serve_options() {
  serve::ServerOptions o;
  o.workers = kServeWorkers;
  o.max_batch = kServeMaxBatch;
  o.max_delay_ms = kServeMaxDelayMs;
  o.queue_capacity = kServeQueue;
  return o;
}

// One open-loop phase: Poisson arrivals at `rate` for `seconds`, each
// request for a uniformly drawn sample, from one generator thread into a
// fresh server. Latency runs from each request's due time, so generator
// lateness and stalls count against the server.
Phase run_phase(RecordingModel& rec, int num_samples, double rate,
                double seconds, std::mt19937_64& rng) {
  Phase ph;
  ph.rate_rps = rate;
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<int> pick(0, num_samples - 1);
  std::vector<double> due_ms;
  std::vector<int> samples;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    due_ms.push_back(t * 1000.0);
    samples.push_back(pick(rng));
  }
  const std::size_t n = due_ms.size();
  ph.requests = n;
  std::vector<double> sent_ms(n, 0.0);
  std::vector<char> admitted(n, 0);
  const Clock::time_point epoch = Clock::now() + std::chrono::milliseconds(5);
  rec.begin(samples, epoch);
  serve::ServingStats stats;
  {
    serve::InferenceServer server(rec, serve_options());
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          epoch + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(due_ms[i])));
      sent_ms[i] = ms_since(epoch, Clock::now());
      admitted[i] = server.submit(static_cast<int>(i), static_cast<int>(i));
    }
    server.drain();
    stats = server.stats();
  }
  for (std::size_t i = 0; i < n; ++i) {
    ph.gen_lag_ms.push_back(sent_ms[i] - due_ms[i]);
    if (!admitted[i]) {
      ++ph.shed;
      continue;
    }
    if (rec.done_ms(i) < 0.0) {
      ph.reconciled = false;
      continue;
    }
    ph.latency_ms.push_back(rec.done_ms(i) - due_ms[i]);
    ph.queue_wait_ms.push_back(rec.start_ms(i) - sent_ms[i]);
  }
  ph.batch_sizes = rec.batch_sizes();
  ph.batch_ms = rec.batch_ms();
  if (stats.served + stats.shed != n || stats.shed != ph.shed ||
      stats.served != ph.latency_ms.size())
    ph.reconciled = false;
  return ph;
}

util::Json phase_json(const Phase& ph) {
  util::Json j = util::Json::object();
  j.set("rate_rps", ph.rate_rps);
  j.set("requests", ph.requests);
  j.set("shed", ph.shed);
  j.set("latency_ms", Percentiles(ph.latency_ms).to_json());
  j.set("windows", ph.windows().size());
  j.set("window_p50_ms", ph.p50());
  j.set("window_p99_ms", ph.p99());
  j.set("predict_ms", Percentiles(ph.batch_ms).to_json());
  j.set("gen_lag_ms", Percentiles(ph.gen_lag_ms).to_json());
  j.set("meets_slo", ph.meets_slo());
  return j;
}

// Highest offered rate meeting the SLO: bisect between a passing and a
// failing rate, then interpolate the windowed-p99 crossing inside the final
// bracket so the estimate is not quantized to the bisection grid.
double slo_rate(RecordingModel& rec, int num_samples, const Phase& low,
                const Phase& high, double probe_s, std::mt19937_64& rng,
                util::Json* probes) {
  double lo = high.meets_slo() ? high.rate_rps : low.rate_rps;
  double lo_p99 = high.meets_slo() ? high.p99() : low.p99();
  double hi = high.meets_slo() ? kSearchCeilingRps : high.rate_rps;
  double hi_p99 = high.meets_slo() ? -1.0 : high.p99();
  for (int k = 0; k < kSearchProbes; ++k) {
    const double mid = 0.5 * (lo + hi);
    const Phase ph = run_phase(rec, num_samples, mid, probe_s, rng);
    probes->push_back(phase_json(ph));
    if (ph.meets_slo()) {
      lo = mid;
      lo_p99 = ph.p99();
    } else {
      hi = mid;
      hi_p99 = ph.p99();
    }
  }
  double frac = 0.5;  // failure not visible in p99 (shed, backlog)
  if (hi_p99 > kSloP99Ms && hi_p99 < kWithheld && hi_p99 > lo_p99)
    frac = (kSloP99Ms - lo_p99) / (hi_p99 - lo_p99);
  return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
}

void report_serve_layers(const Phase& high, const std::vector<Phase>& phases,
                         Report& rep) {
  const Percentiles wait(high.queue_wait_ms);
  rep.layer("serve.queue_wait_ms.p50", wait.at_or(0.5, 0.0), "ms");
  rep.layer("serve.queue_wait_ms.p99", wait.at_or(0.99, 0.0), "ms");
  double items = 0.0, busy = 0.0;
  for (const int b : high.batch_sizes) items += b;
  for (const double ms : high.batch_ms) busy += ms;
  const double batches = static_cast<double>(high.batch_sizes.size());
  rep.layer("serve.batch_size.mean", batches > 0 ? items / batches : 0.0,
            "count");
  rep.layer("serve.predict_ms.p50", Percentiles(high.batch_ms).at_or(0.5, 0.0),
            "ms");
  rep.layer("serve.predict_ms_per_item", items > 0 ? busy / items : 0.0, "ms");
  std::size_t shed = 0;
  for (const Phase& ph : phases) shed += ph.shed;
  rep.layer("serve.shed", static_cast<double>(shed), "count");
  rep.layer("serve.gen_lag_ms.p99",
            Percentiles(high.gen_lag_ms).at_or(0.99, 0.0), "ms");
  // The forward is the predict call: one per micro-batch.
  rep.layer("models.forward.calls", batches, "count");
  rep.layer("models.forward.busy_ms", busy, "ms");
  rep.layer("models.forward.configs_per_call",
            batches > 0 ? items / batches : 0.0, "count");
  rep.layer("models.forward.ms_per_config", items > 0 ? busy / items : 0.0,
            "ms");
}

Report serve_workload(const RunArgs& a) {
  Report rep;
  const Clock::time_point setup_start = Clock::now();
  Clock::time_point t0 = Clock::now();
  const auto& eval = models::benchmark_cls_dataset().eval;
  rep.layer("data.dataset_ms", ms_since(t0, Clock::now()), "ms");
  t0 = Clock::now();
  models::TrainedClassifier tc = models::get_classifier("MCUNet");
  rep.layer("models.zoo_load_ms", ms_since(t0, Clock::now()), "ms");
  // Serving-side preprocessing: every sample's input tensor, once.
  const serve::ClassifierServingModel model(
      tc, eval, models::cls_pipeline_spec(), SysNoiseConfig::training_default());
  const int n = model.num_samples();
  std::vector<int> reference;
  for (int s = 0; s < n; s += kServeMaxBatch) {
    std::vector<int> batch;
    for (int k = s; k < std::min(n, s + kServeMaxBatch); ++k)
      batch.push_back(k);
    for (const int p : model.predict(batch)) reference.push_back(p);
  }
  finish_setup(rep, setup_start);
  if (a.setup_only) return rep;

  RecordingModel rec(model, reference);
  std::mt19937_64 rng(a.seed);
  std::vector<Phase> counted;  // low/high phases: every request must succeed
  util::Json probes = util::Json::array();
  if (!a.trace) {
    const double phase_s = 0.3 * a.seconds;
    counted.push_back(run_phase(rec, n, kLowRps, phase_s, rng));
    counted.push_back(run_phase(rec, n, kHighRps, phase_s, rng));
    const double rate = slo_rate(rec, n, counted[0], counted[1],
                                 0.1 * a.seconds, rng, &probes);
    // Gated: goodput at the high rate and the median latency at the low
    // rate. The SLO rate sits at the knee of the latency curve, where a
    // shared host's scheduling noise moves it by a third between runs; it is
    // reported, not gated.
    rep.e2e("throughput_per_s",
            static_cast<double>(counted[1].latency_ms.size()) / phase_s, "1/s");
    rep.e2e("latency_ms", Percentiles(counted[0].latency_ms).at_or(0.5, 0.0),
            "ms");
    rep.detail.set("slo_rate_rps", rate);
  } else {
    const double phase_s = 0.25 * a.seconds;
    counted.push_back(run_phase(rec, n, kLowRps, phase_s, rng));
    counted.push_back(run_phase(rec, n, kHighRps, phase_s, rng));
    obs::TraceSession session = open_trace(a.work_dir, a.workload);
    counted.push_back(run_phase(rec, n, kLowRps, phase_s, rng));
    counted.push_back(run_phase(rec, n, kHighRps, phase_s, rng));
    session.finish();
    report_serve_layers(counted[3], counted, rep);
    rep.layer("trace.overhead_pct",
              100.0 * (counted[3].p50() / counted[1].p50() - 1.0), "%");
  }

  util::Json jphases = util::Json::array();
  for (const Phase& ph : counted) {
    jphases.push_back(phase_json(ph));
    rep.attempted += ph.requests;
    if (ph.shed > 0)
      rep.fail("shed " + std::to_string(ph.shed) + " requests at " +
                   std::to_string(static_cast<int>(ph.rate_rps)) + " req/s",
               ph.shed, /*wrong=*/false);
    if (!ph.reconciled)
      rep.fail("served + shed != submitted at " +
               std::to_string(static_cast<int>(ph.rate_rps)) + " req/s");
  }
  rep.detail.set("phases", std::move(jphases));
  rep.detail.set("slo_probes", std::move(probes));
  rep.detail.set("slo_p99_ms", kSloP99Ms);

  // Coverage pass: every sample once through an unbounded queue; served
  // accuracy must equal the offline sweep metric for this config.
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  rec.begin(all, Clock::now());
  serve::ServingStats cover;
  {
    serve::ServerOptions o = serve_options();
    o.queue_capacity = 0;
    serve::InferenceServer server(rec, o);
    for (int i = 0; i < n; ++i) server.submit(i, i);
    server.drain();
    cover = server.stats();
  }
  rep.attempted += static_cast<std::size_t>(n);
  const double offline = model.offline_accuracy();
  if (cover.served != static_cast<std::size_t>(n) ||
      !bits_equal(cover.served_accuracy(), offline))
    rep.fail("coverage pass: served " + std::to_string(cover.served) + "/" +
             std::to_string(n) + ", accuracy " +
             std::to_string(cover.served_accuracy()) + " vs offline " +
             std::to_string(offline));
  rep.detail.set("served_accuracy", cover.served_accuracy());
  rep.detail.set("offline_accuracy", offline);
  if (rec.mismatches() > 0)
    rep.fail(std::to_string(rec.mismatches()) +
                 " served predictions differ from the reference",
             rec.mismatches());
  return rep;
}

// ---------------------------------------------------------------------------
// dist_warm
// ---------------------------------------------------------------------------

struct DistRep {
  double wall_ms = 0.0;
  std::size_t produced = 0;
  std::size_t units = 0;  // leases completed by both workers
  std::vector<core::MetricMap> maps;
  core::StageStats stats;
  std::vector<std::string> errors;
};

// Stops the service and joins the worker threads on every exit path.
class WorkerFleet {
 public:
  WorkerFleet(svc::SweepService& service, const dist::TaskResolver& resolver,
              core::DiskStageCache& disk)
      : service_(service), stats_(kDistWorkers), runs_(kDistWorkers) {
    for (int w = 0; w < kDistWorkers; ++w) {
      dist::WorkerOptions opts;
      opts.threads = kDistWorkerThreads;
      opts.stats = &stats_[static_cast<std::size_t>(w)];
      opts.disk = &disk;
      threads_.emplace_back([this, w, opts, &resolver] {
        dist::WorkerRunStats& out = runs_[static_cast<std::size_t>(w)];
        try {
          out = dist::run_worker("127.0.0.1", service_.port(), resolver, opts);
        } catch (const std::exception& e) {
          out.error = e.what();
        }
      });
    }
  }
  ~WorkerFleet() { stop(); }
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  void stop() {
    service_.stop();
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
  }
  const std::vector<core::StageStats>& stats() const { return stats_; }
  const std::vector<dist::WorkerRunStats>& runs() const { return runs_; }

 private:
  svc::SweepService& service_;
  std::vector<core::StageStats> stats_;
  std::vector<dist::WorkerRunStats> runs_;
  std::vector<std::thread> threads_;  // last: joined before the rest go
};

DistRep run_dist_rep(const std::vector<SweepUnit>& units,
                     const dist::TaskResolver& resolver,
                     core::DiskStageCache& disk, const std::string& journal,
                     int rep_index, double poll_phase_ms,
                     double tick_phase_ms) {
  DistRep r;
  r.maps.resize(units.size());
  fs::remove(journal);
  svc::ServiceOptions so;
  so.port = 0;
  so.journal_path = journal;
  so.heartbeat_interval = std::chrono::milliseconds(kDistPollMs);
  svc::SweepService service(so);
  WorkerFleet fleet(service, resolver, disk);

  svc::ClientOptions co;
  co.port = service.port();
  co.retry_timeout = std::chrono::seconds(30);
  svc::ServiceClient client(co);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(poll_phase_ms));
  const Clock::time_point t0 = Clock::now();
  std::vector<int> ids(units.size(), -1);
  for (std::size_t i = 0; i < units.size(); ++i)
    ids[i] = client.submit(units[i].spec.to_json(), units[i].plan, 0,
                           "perfbench-r" + std::to_string(rep_index) + "-" +
                               std::to_string(i));
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(tick_phase_ms));
  // Last submitted first: leases go out in submission order, so once the
  // last job is done the others are too, and only one collect waits on ticks.
  for (std::size_t i = units.size(); i-- > 0;)
    r.maps[i] = client.collect(ids[i]);
  r.wall_ms = ms_since(t0, Clock::now());
  fleet.stop();

  for (std::size_t i = 0; i < units.size(); ++i)
    for (const core::PlannedConfig& p : units[i].plan.configs)
      r.produced += r.maps[i].count(p.metric_key);
  for (const dist::WorkerRunStats& w : fleet.runs()) {
    r.units += w.leases_completed;
    if (!w.error.empty()) r.errors.push_back(w.error);
  }
  for (const core::StageStats& s : fleet.stats()) r.stats += s;
  return r;
}

Report dist_workload(const RunArgs& a) {
  Report rep;
  const Clock::time_point setup_start = Clock::now();
  const Loaded loaded = load_image_units();
  const std::vector<SweepUnit>& units = loaded.units;
  rep.layer("models.zoo_load_ms", loaded.zoo_load_ms, "ms");
  rep.layer("data.dataset_ms", loaded.dataset_ms, "ms");
  // Warm the shared disk stage cache with the in-process sweep whose maps
  // the distributed results must reproduce.
  const std::string stage_dir = a.work_dir + "/dist_stages";
  fs::remove_all(stage_dir);
  core::DiskStageCache disk(stage_dir);
  std::vector<core::MetricMap> local(units.size());
  {
    core::SweepCache cache;
    seed_baselines(units, cache);
    const core::StagedExecutor executor(nullptr, &disk);
    core::SweepOptions opts;
    opts.threads = kExecutorThreads;
    opts.cache = &cache;
    for (std::size_t i = 0; i < units.size(); ++i)
      local[i] = executor.execute(*units[i].task, units[i].plan, opts);
  }
  finish_setup(rep, setup_start);
  if (a.setup_only) return rep;

  std::map<std::string, PreloadedTask> preloaded;
  for (const SweepUnit& u : units) {
    PreloadedTask p;
    p.task = u.task;
    if (u.has_seed)
      p.seeds.emplace(core::SweepCache::key_for(
                          *u.task, SysNoiseConfig::training_default()),
                      u.seed_metric);
    preloaded.emplace(spec_key(u.spec.kind, u.spec.model, u.spec.tag), p);
  }
  TaskLayers layers;
  LayerClock resolve;
  const dist::TaskResolver resolver =
      timed_resolver(preloaded, layers, resolve);
  const std::string journal = a.work_dir + "/dist_journal.jsonl";

  std::vector<DistRep> plain, traced;
  util::Json summary = util::Json::object();
  std::size_t disk_hits0 = 0, disk_misses0 = 0;
  int rep_index = 0;
  std::mt19937_64 rng(a.seed);
  std::uniform_real_distribution<double> phase(0.0, 1.0);
  const auto rep_into = [&](std::vector<DistRep>& out) {
    const double poll_phase = kDistPollMs * phase(rng);
    const double tick_phase = kWatchTickMs * phase(rng);
    out.push_back(run_dist_rep(units, resolver, disk, journal, rep_index++,
                               poll_phase, tick_phase));
  };
  if (!a.trace) {
    repeat_for(a.seconds, [&] { rep_into(plain); });
  } else {
    repeat_for(a.seconds / 2, [&] { rep_into(plain); });
    layers.reset();
    resolve.reset();
    disk_hits0 = disk.hits();
    disk_misses0 = disk.misses();
    obs::TraceSession session = open_trace(a.work_dir, a.workload);
    repeat_for(a.seconds / 2, [&] { rep_into(traced); });
    summary = session.finish();
  }

  std::vector<double> tput, wall;
  for (const std::vector<DistRep>* set : {&plain, &traced})
    for (const DistRep& r : *set) {
      rep.attempted += planned_configs(units);
      for (std::size_t i = 0; i < units.size(); ++i)
        check_plan_maps(units[i], r.maps[i], local[i], "dist vs local", rep);
      for (const std::string& e : r.errors) rep.fail("worker: " + e);
    }
  for (const DistRep& r : plain) {
    tput.push_back(static_cast<double>(r.produced) / (r.wall_ms / 1000.0));
    wall.push_back(r.wall_ms);
  }
  rep.e2e("throughput_per_s", median(tput), "1/s");
  rep.e2e("latency_ms", median(wall), "ms");
  rep.detail.set("configs_per_rep", planned_configs(units));
  rep.detail.set("reps", plain.size());
  rep.detail.set("units_per_rep", plain.front().units);

  if (a.trace) {
    const double n = static_cast<double>(traced.size());
    double traced_wall = 0.0, units_total = 0.0;
    std::vector<double> traced_tput;
    core::StageStats stats;
    for (const DistRep& r : traced) {
      traced_wall += r.wall_ms;
      units_total += static_cast<double>(r.units);
      traced_tput.push_back(static_cast<double>(r.produced) /
                            (r.wall_ms / 1000.0));
      stats += r.stats;
    }
    report_task_layers(layers, n, rep);
    const double busy = layers.busy_ms();
    rep.layer("dist.resolve_ms", resolve.ms() / n, "ms");
    rep.layer("dist.eval_busy_ms", busy / n, "ms");
    rep.layer("dist.overhead_ms_per_unit",
              units_total > 0
                  ? (kDistWorkers * traced_wall - busy - resolve.ms()) /
                        units_total
                  : 0.0,
              "ms");
    rep.layer("dist.units", units_total / n, "count");
    rep.layer("dist.re_leases",
              json_number(summary,
                          {"metrics", "counters", "dist.lease.re_leased"}) /
                  n,
              "count");
    rep.layer("core.disk_stage_cache.decode_ms", layers.decode.ms() / n, "ms");
    const double hits = static_cast<double>(disk.hits() - disk_hits0);
    const double misses = static_cast<double>(disk.misses() - disk_misses0);
    rep.layer("core.disk_stage_cache.hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    rep.layer("svc.journal.fsync_ms.p50",
              json_number(summary, {"metrics", "histograms",
                                    "svc.journal.fsync_ms", "p50_ms"}),
              "ms");
    rep.layer("core.executor.idle_share",
              1.0 - busy / (kDistWorkers * kDistWorkerThreads * traced_wall),
              "ratio");
    rep.layer("core.stage.preprocess_hit_ratio",
              stats.evaluations > 0
                  ? static_cast<double>(stats.preprocess_hits) /
                        static_cast<double>(stats.evaluations)
                  : 0.0,
              "ratio");
    report_gemm_fanout(summary, n, rep);
    const double traced_median = median(traced_tput);
    rep.layer("trace.overhead_pct",
              100.0 * (median(tput) / traced_median - 1.0), "%");
    rep.detail.set("traced_reps", traced.size());
  }
  return rep;
}

}  // namespace

dist::TaskResolver timed_resolver(
    const std::map<std::string, PreloadedTask>& tasks, TaskLayers& layers,
    LayerClock& resolve) {
  return [&tasks, &layers, &resolve](const util::Json& spec_json) {
    const LayerTimer t(resolve);
    const dist::TaskSpec spec = dist::TaskSpec::from_json(spec_json);
    const auto it = tasks.find(spec_key(spec.kind, spec.model, spec.tag));
    if (it == tasks.end())
      throw std::invalid_argument("no preloaded task for " + spec.kind + "/" +
                                  spec.model);
    auto timed = std::make_shared<TimedTask>(*it->second.task, layers);
    dist::ResolvedWorkerTask out;
    out.task = timed.get();
    out.seeds = it->second.seeds;
    out.owner = std::move(timed);
    return out;
  };
}

Report run_workload(const RunArgs& a) {
  if (a.workload == "sweep_image") return sweep_workload(a, load_image_units);
  if (a.workload == "sweep_nlp") return sweep_workload(a, load_nlp_units);
  if (a.workload == "serve_mcunet") return serve_workload(a);
  if (a.workload == "dist_warm") return dist_workload(a);
  throw std::invalid_argument("unknown workload \"" + a.workload + "\"");
}

util::Json prepare_zoo() {
  util::Json trained = util::Json::array();
  const auto weights_files = [] {
    std::set<std::string> out;
    for (const auto& e : fs::directory_iterator(models::cache_dir()))
      if (e.path().extension() == ".weights")
        out.insert(e.path().stem().string());
    return out;
  };
  // The zoo trains and persists on a cache miss; what appeared is what this
  // step trained.
  const std::set<std::string> before = weights_files();
  for (const std::string& name : fast_classifier_names())
    models::get_classifier(name);
  models::get_detector(kFastDetector);
  for (const std::string& stem : weights_files())
    if (before.count(stem) == 0) trained.push_back(stem);

  nlp::TrainedLm cached;
  if (!load_lm(fast_lm_spec(), &cached)) {
    nlp::TrainedLm lm = nlp::get_lm(fast_lm_spec().name);
    const std::string stem = lm_stem(lm.name);
    nn::ParamRefs params = lm_params(*lm.lm);
    nn::save_params(stem + ".weights", params);
    nn::save_ranges(stem + ".ranges", lm.ranges);
    // The cached model must score exactly like the freshly trained one, at
    // FP32 and at INT8 (which reads the calibration ranges).
    if (!load_lm(fast_lm_spec(), &cached))
      throw std::runtime_error("cached OPT-mini did not load back");
    const nlp::NlpChoiceTask fresh(lm, nlp::TaskKind::kPiqa);
    const nlp::NlpChoiceTask loaded(cached, nlp::TaskKind::kPiqa);
    SysNoiseConfig int8 = SysNoiseConfig::training_default();
    int8.precision = nn::Precision::kINT8;
    for (const SysNoiseConfig& cfg :
         {SysNoiseConfig::training_default(), int8})
      if (!bits_equal(fresh.evaluate(cfg), loaded.evaluate(cfg)))
        throw std::runtime_error("cached OPT-mini scores differently");
    trained.push_back("perfbench_lm_" + lm.name);
  }
  util::Json out = util::Json::object();
  out.set("trained", std::move(trained));
  return out;
}

}  // namespace perfbench
