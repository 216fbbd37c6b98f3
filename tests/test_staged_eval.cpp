// Tests of the staged evaluation pipeline: stage-key structure
// (preprocess_key injectivity over every registry pre-processing option
// combination), staged == monolithic bit-identity per task kind, stage-
// cache hit accounting (and the StageStats identities with the disk cache
// off, cold and warm), the headline reuse guarantees — pre-processed
// batches computed once per key, and the detection post-processing axis
// evaluated without re-running the forward pass — shared decoding (stage 1
// under a decode memo is byte-equal to fresh decodes, and one call decodes
// each sample once per vendor), and stage retention: one executor serving
// several models of one preprocess scope computes their stage-1 products
// once, and releases them when the scope changes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "data/pipeline.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise::core {
namespace {

void expect_reports_identical(const AxisReport& a, const AxisReport& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.combined, b.combined);
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].axis, b.axes[i].axis);
    EXPECT_EQ(a.axes[i].mean, b.axes[i].mean) << a.axes[i].axis;
    EXPECT_EQ(a.axes[i].max, b.axes[i].max) << a.axes[i].axis;
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

// The oracle: every planned config runs the task's full evaluate() chain.
AxisReport monolithic_sweep(const EvalTask& task, const SweepOptions& opts) {
  const SweepPlan plan = plan_sweep(task, registry_or_global(opts));
  return assemble_report(plan, ThreadPoolExecutor().execute(task, plan, opts));
}

std::vector<StepPoint> monolithic_stepwise(const EvalTask& task,
                                           const SweepOptions& opts) {
  const SweepPlan plan = plan_stepwise(task, registry_or_global(opts));
  return assemble_steps(plan, ThreadPoolExecutor().execute(task, plan, opts));
}

// ---------------------------------------------------------------------------
// Stage keys
// ---------------------------------------------------------------------------

// Every combination of the registry's pre-processing option sets (training
// default included).
std::vector<SysNoiseConfig> all_preprocessing_combinations() {
  std::vector<jpeg::DecoderVendor> decoders = {SysNoiseConfig{}.decoder};
  for (auto v : decoder_noise_options()) decoders.push_back(v);
  std::vector<ResizeMethod> resizes = {SysNoiseConfig{}.resize};
  for (auto m : resize_noise_options()) resizes.push_back(m);
  std::vector<ColorMode> colors = {SysNoiseConfig{}.color};
  for (auto m : color_noise_options()) colors.push_back(m);
  std::vector<NormStats> norms = {SysNoiseConfig{}.norm};
  for (auto s : norm_noise_options()) norms.push_back(s);
  std::vector<float> crops = {SysNoiseConfig{}.crop_fraction};
  for (auto f : crop_noise_options()) crops.push_back(f);
  std::vector<ChannelLayout> layouts = {SysNoiseConfig{}.layout};
  for (auto l : layout_noise_options()) layouts.push_back(l);

  std::vector<SysNoiseConfig> combos;
  for (auto d : decoders)
    for (auto r : resizes)
      for (auto c : colors)
        for (auto n : norms)
          for (auto f : crops)
            for (auto l : layouts) {
              SysNoiseConfig cfg;
              cfg.decoder = d;
              cfg.resize = r;
              cfg.color = c;
              cfg.norm = n;
              cfg.crop_fraction = f;
              cfg.layout = l;
              combos.push_back(cfg);
            }
  EXPECT_EQ(combos.size(), decoders.size() * resizes.size() * colors.size() *
                               norms.size() * crops.size() * layouts.size());
  return combos;
}

TEST(PreprocessKey, InjectiveOverAllRegistryPreprocessingCombinations) {
  // Every combination must map to a distinct stage-1 key.
  const PipelineSpec spec;
  const std::vector<SysNoiseConfig> combos = all_preprocessing_combinations();
  std::set<std::string> keys;
  for (const SysNoiseConfig& cfg : combos) keys.insert(preprocess_key(cfg, spec));
  EXPECT_EQ(keys.size(), combos.size());
}

TEST(Preprocess, SharedDecodeMatchesFreshDecode) {
  // For every pre-processing combination, stage 1 under one call-wide
  // decode memo equals stage 1 decoding its own JPEGs, byte for byte.
  const auto& eval = models::benchmark_cls_dataset().eval;
  const JpegList jpegs = {&eval[0].jpeg, &eval[1].jpeg, &eval[2].jpeg};
  const PipelineSpec spec = models::cls_pipeline_spec();
  DecodeMemo memo;
  for (const SysNoiseConfig& cfg : all_preprocessing_combinations()) {
    const PreprocessedBatches fresh = preprocess_batches(jpegs, cfg, spec, 2);
    const DecodeMemoScope scope(memo);
    const PreprocessedBatches shared = preprocess_batches(jpegs, cfg, spec, 2);
    ASSERT_EQ(shared.inputs.size(), fresh.inputs.size());
    for (std::size_t b = 0; b < fresh.inputs.size(); ++b) {
      const Tensor& x = shared.inputs[b];
      const Tensor& y = fresh.inputs[b];
      ASSERT_EQ(x.shape(), y.shape());
      EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(float)), 0)
          << preprocess_key(cfg, spec) << " batch " << b;
    }
  }
}

TEST(PreprocessKey, IgnoresInferenceAndPostprocessingKnobs) {
  const PipelineSpec spec;
  SysNoiseConfig base;
  SysNoiseConfig deploy = base;
  deploy.precision = nn::Precision::kINT8;
  deploy.ceil_mode = true;
  deploy.upsample = nn::UpsampleMode::kBilinear;
  deploy.proposal_offset = 1.0f;
  EXPECT_EQ(preprocess_key(base, spec), preprocess_key(deploy, spec));
}

TEST(PreprocessKey, DependsOnPipelineSpec) {
  const SysNoiseConfig cfg;
  EXPECT_NE(preprocess_key(cfg, models::cls_pipeline_spec()),
            preprocess_key(cfg, models::det_pipeline_spec()));
}

TEST(StagedTask, ForwardKeyRefinesPreprocessKeyButNotPostproc) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SysNoiseConfig base;
  SysNoiseConfig int8 = base;
  int8.precision = nn::Precision::kINT8;
  SysNoiseConfig offset = base;
  offset.proposal_offset = 1.0f;
  // Inference knobs split forward groups within one preprocess group...
  EXPECT_EQ(task.preprocess_key(base), task.preprocess_key(int8));
  EXPECT_NE(task.forward_key(base), task.forward_key(int8));
  // ...while post-processing knobs split neither.
  EXPECT_EQ(task.forward_key(base), task.forward_key(offset));
}

// ---------------------------------------------------------------------------
// Engine: bit-identity and stage reuse (synthetic)
// ---------------------------------------------------------------------------

TEST(StagedEngine, MatchesMonolithicBitIdenticallySerialAndParallel) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const AxisReport mono = monolithic_sweep(task, serial);
  expect_reports_identical(mono, sweep(task, serial));
  expect_reports_identical(mono, sweep(task, parallel));

  const auto steps_mono = monolithic_stepwise(task, serial);
  const auto steps_staged = stepwise(task, parallel);
  ASSERT_EQ(steps_mono.size(), steps_staged.size());
  for (std::size_t i = 0; i < steps_mono.size(); ++i) {
    EXPECT_EQ(steps_mono[i].step, steps_staged[i].step);
    EXPECT_EQ(steps_mono[i].delta, steps_staged[i].delta);
  }
}

TEST(StagedEngine, PreprocessOncePerKeyAndPostprocReusesForward) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  task.reset();
  StageStats stats;
  sweep(task, {}, &stats);

  // Detection full-table plan: base + 3 decode + 10 resize + 1 color +
  // 2 norm + 1 layout + 2 precision + 2 backend + 1 ceil + 1 upsample +
  // 1 post-proc + combined = 26 planned evaluations.
  EXPECT_EQ(stats.evaluations, 26u);
  // Distinct preprocess keys: the default pipeline (shared by base,
  // precision, backend, ceil, upsample and post-proc configs) + 3+10+1+2+1
  // pre-processing options + combined = 19.
  EXPECT_EQ(task.pre_runs(), 19);
  EXPECT_EQ(stats.preprocess_misses, 19u);
  EXPECT_EQ(stats.preprocess_hits, 26u - 19u);
  // Distinct forward keys: every config forwards once except the post-proc
  // option, which shares the training-default forward pass = 25.
  EXPECT_EQ(task.fwd_runs(), 25);
  EXPECT_EQ(stats.forward_misses, 25u);
  EXPECT_EQ(stats.forward_hits, 1u);
  // Post-processing runs once per planned evaluation.
  EXPECT_EQ(task.post_runs(), 26);
}

TEST(StagedEngine, StepwiseSharesStagesAcrossCumulativeSteps) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  task.reset();
  StageStats stats;
  stepwise(task, {}, &stats);

  // base + 10 cumulative steps; the five inference/post-processing steps
  // re-use the pre-processing of the last pre-processing step (+NHWC), and
  // the final post-proc step re-uses the previous step's forward outputs.
  EXPECT_EQ(stats.evaluations, 11u);
  EXPECT_EQ(task.pre_runs(), 6);
  EXPECT_EQ(task.fwd_runs(), 10);
  EXPECT_EQ(task.post_runs(), 11);
}

TEST(StagedEngine, SharedSweepCacheStillMemoizesAcrossCalls) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  SweepCache cache;
  SweepOptions opts;
  opts.cache = &cache;
  const AxisReport first = sweep(task, opts);
  task.reset();
  const AxisReport second = sweep(task, opts);
  expect_reports_identical(first, second);
  // Every metric came out of the memo; no stage ran at all.
  EXPECT_EQ(task.pre_runs(), 0);
  EXPECT_EQ(task.fwd_runs(), 0);
  EXPECT_EQ(task.post_runs(), 0);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(StageCacheT, ComputesOncePerKeyAndCountsHits) {
  StageCache cache;
  int computes = 0;
  auto make = [&] {
    ++computes;
    return std::make_shared<const int>(7);
  };
  bool first_missed = false, second_missed = true;
  const auto a = cache.get_or_compute("k", make, &first_missed);
  const auto b = cache.get_or_compute("k", make, &second_missed);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(computes, 1);
  EXPECT_TRUE(first_missed);
  EXPECT_FALSE(second_missed);
  EXPECT_EQ(*static_cast<const int*>(a.get()), 7);
}

// ---------------------------------------------------------------------------
// Real models: staged == monolithic, bit-identical, per task kind
// ---------------------------------------------------------------------------

// Small private registries keep the real-model matrix affordable while
// still covering every stage boundary (pre-processing, inference and
// post-processing knobs).
AxisRegistry tiny_registry(bool with_postproc) {
  AxisRegistry reg;
  {
    NoiseAxis a;
    a.name = "Resize";
    a.key = "resize";
    a.option_labels = {"opencv-nearest"};
    a.apply = [](SysNoiseConfig& cfg, int) {
      cfg.resize = ResizeMethod::kOpenCVNearest;
    };
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Very High";
    reg.add(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Normalize";
    a.key = "normalize";
    a.option_labels = {"0.5/0.5"};
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.norm = NormStats::kHalfHalf; };
    a.stage = "Pre-processing";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "Middle";
    reg.add(std::move(a));
  }
  {
    NoiseAxis a;
    a.name = "Precision";
    a.key = "precision";
    a.option_labels = {"FP16"};
    a.apply = [](SysNoiseConfig& cfg, int) {
      cfg.precision = nn::Precision::kFP16;
    };
    a.stage = "Model inference";
    a.tasks_label = "Cls/Det/Seg";
    a.effect_level = "High";
    reg.add(std::move(a));
  }
  if (with_postproc) {
    NoiseAxis a;
    a.name = "Post-proc";
    a.key = "postproc";
    a.option_labels = {"offset-1"};
    a.applies = [](const TaskTraits& t) {
      return t.kind == TaskKind::kDetection;
    };
    a.apply = [](SysNoiseConfig& cfg, int) { cfg.proposal_offset = 1.0f; };
    a.stage = "Post-processing";
    a.tasks_label = "Det";
    a.effect_level = "Middle";
    reg.add(std::move(a));
  }
  return reg;
}

TEST(StagedRealModels, ClassifierStagedMatchesMonolithic) {
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  const AxisRegistry reg = tiny_registry(false);
  SweepOptions opts;
  opts.registry = &reg;
  StageStats stats;
  expect_reports_identical(monolithic_sweep(task, opts),
                           sweep(task, opts, &stats));
  // base+FP16 share one preprocess key; resize and norm options and the
  // combined config each get their own.
  EXPECT_EQ(stats.evaluations, 5u);
  EXPECT_EQ(stats.preprocess_misses, 4u);
  EXPECT_EQ(stats.preprocess_hits, 1u);
}

TEST(StagedRealModels, DetectorStagedMatchesMonolithicWithoutPostprocForward) {
  auto td = models::get_detector("RetinaNet-MobileNet");
  models::DetectorTask task(td);
  const AxisRegistry reg = tiny_registry(true);
  SweepOptions opts;
  opts.registry = &reg;
  StageStats stats;
  expect_reports_identical(monolithic_sweep(task, opts),
                           sweep(task, opts, &stats));
  // The post-proc option rode on the training-default forward pass: one
  // forward fewer than planned evaluations.
  EXPECT_EQ(stats.evaluations, 6u);
  EXPECT_EQ(stats.forward_misses, 5u);
  EXPECT_EQ(stats.forward_hits, 1u);

  // And the raw-output split reproduces the monolithic detector eval for
  // the post-processing knob end to end.
  SysNoiseConfig offset_cfg;
  offset_cfg.proposal_offset = 1.0f;
  const auto& ds = models::benchmark_det_dataset();
  const auto spec = models::det_pipeline_spec();
  const auto batches = models::preprocess_samples(ds.eval, offset_cfg, spec, 8);
  const auto raw = models::detector_forward_batches(*td.model, batches,
                                                    offset_cfg, &td.ranges);
  EXPECT_EQ(models::detector_map_from_raw(*td.model, raw, ds, offset_cfg),
            models::eval_detector(*td.model, ds, offset_cfg, spec, &td.ranges));
}

TEST(StagedRealModels, SegmenterStagedMatchesMonolithic) {
  auto ts = models::get_segmenter("UNet");
  models::SegmenterTask task(ts);
  const AxisRegistry reg = tiny_registry(false);
  SweepOptions opts;
  opts.registry = &reg;
  expect_reports_identical(monolithic_sweep(task, opts), sweep(task, opts));
}

TEST(StagedRealModels, TracedCallDecodesEachSampleOncePerVendor) {
  // Decoder and resize options: many stage-1 keys over four vendors. One
  // call decodes each eval JPEG once per vendor, however many keys share it.
  AxisRegistry reg;
  for (const NoiseAxis& a : builtin_axes())
    if (a.key == "decode" || a.key == "resize") reg.add(a);
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  const SweepPlan plan = plan_sweep(task, reg);
  std::set<jpeg::DecoderVendor> vendors;
  std::set<std::string> pre_keys;
  for (const PlannedConfig& p : plan.configs) {
    vendors.insert(p.cfg.decoder);
    pre_keys.insert(task.preprocess_key(p.cfg));
  }
  ASSERT_EQ(vendors.size(), 4u);
  ASSERT_GT(pre_keys.size(), 2 * vendors.size());
  const std::size_t samples = models::benchmark_cls_dataset().eval.size();

  // Serial, so the count is exact: a parallel call may re-decode a set that
  // was released while a group that wants it had not yet asked.
  SweepOptions serial;
  serial.threads = 1;
  obs::metrics().reset();
  obs::trace_enable();
  StageStats stats;
  const MetricMap traced = StagedExecutor(&stats).execute(task, plan, serial);
  obs::trace_disable();
  obs::trace_reset();
  EXPECT_EQ(obs::metrics().counter_value("jpeg.decode.images"),
            vendors.size() * samples);
  EXPECT_EQ(stats.preprocess_computed, pre_keys.size());
  obs::metrics().reset();

  // Tracing changes no metric, nor does sharing the decodes: the parallel
  // engine and the monolithic oracle (which decodes per config) agree.
  SweepOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(StagedExecutor().execute(task, plan, parallel), traced);
  EXPECT_EQ(ThreadPoolExecutor().execute(task, plan, parallel), traced);
  EXPECT_EQ(obs::metrics().counter_value("jpeg.decode.images"), 0u);
}

// The StageStats identities every executor run must satisfy: each planned
// evaluation either materialized a stage key or reused one, and each
// materialized key was either loaded from disk or computed.
void expect_counters_reconcile(const StageStats& s, const std::string& where) {
  EXPECT_EQ(s.preprocess_hits + s.preprocess_misses, s.evaluations) << where;
  EXPECT_LE(s.preprocess_retained, s.preprocess_hits) << where;
  EXPECT_EQ(s.forward_hits + s.forward_misses, s.evaluations) << where;
  EXPECT_EQ(s.preprocess_computed + s.preprocess_disk_hits,
            s.preprocess_misses)
      << where;
  EXPECT_EQ(s.forward_computed + s.forward_disk_hits, s.forward_misses)
      << where;
}

TEST(StagedRealModels, StageCountersReconcileWithDiskCacheOffColdAndWarm) {
  auto td = models::get_detector("RetinaNet-MobileNet");
  models::DetectorTask task(td);
  const AxisRegistry reg = tiny_registry(true);
  const SweepPlan plan = plan_sweep(task, reg);
  const auto dir = std::filesystem::temp_directory_path() /
                   "sysnoise_test_stage_counters";
  std::filesystem::remove_all(dir);
  // Separate instances over one directory: the warm run starts with no
  // in-memory state, as a second process would.
  DiskStageCache cold_disk(dir.string());
  DiskStageCache warm_disk(dir.string());
  const std::pair<const char*, DiskStageCache*> runs[] = {
      {"disk off", nullptr}, {"cold", &cold_disk}, {"warm", &warm_disk}};
  MetricMap first;
  for (const auto& [where, disk] : runs) {
    StageStats s;
    const MetricMap metrics = StagedExecutor(&s, disk).execute(task, plan);
    if (first.empty())
      first = metrics;
    else
      EXPECT_EQ(metrics, first) << where;
    EXPECT_EQ(s.evaluations, 6u) << where;
    expect_counters_reconcile(s, where);
    // The zoo adapters never stack configs: one network invocation per
    // computed forward group, and no cross-config stack ever forms.
    EXPECT_EQ(s.batched_forward_calls, s.forward_computed) << where;
    EXPECT_EQ(s.batched_forward_configs, 0u) << where;
    EXPECT_EQ(s.max_configs_per_batch, 0u) << where;
    if (disk == &cold_disk) {
      EXPECT_EQ(s.forward_disk_hits, 0u);
      EXPECT_EQ(s.forward_persisted, s.forward_computed);
    } else if (disk == &warm_disk) {
      // Every forward product loads from disk, so stage 1 never runs.
      EXPECT_EQ(s.forward_computed, 0u);
      EXPECT_EQ(s.preprocess_misses, 0u);
    }
  }
  std::filesystem::remove_all(dir);

  // A task that opts into stacking still reconciles; its invocations are
  // then fewer than the forward groups they computed.
  const SyntheticStagedTask stacked(TaskKind::kDetection, true, 1, 1, 1,
                                    /*fwd_overhead_rounds=*/2);
  StageStats s;
  sweep(stacked, {}, &s);
  expect_counters_reconcile(s, "synthetic stacked");
  EXPECT_LT(s.batched_forward_calls, s.forward_computed);
  EXPECT_GT(s.batched_forward_configs, 0u);
}

// ---------------------------------------------------------------------------
// Stage retention: one StagedExecutor keeps the stage-1 products of the last
// preprocess scope it served, across execute() calls and across models
// ---------------------------------------------------------------------------

// Forwards every StagedEvalTask hook to `inner`, counting the stage-1 work
// it is asked for and recording (weakly) every product run_preprocess
// returns, so a test can tell when the executor has released them.
class RecordingTask final : public StagedEvalTask {
 public:
  explicit RecordingTask(const StagedEvalTask& inner) : inner_(inner) {}

  const std::string& name() const override { return inner_.name(); }
  TaskTraits traits() const override { return inner_.traits(); }
  std::string cache_identity() const override {
    return inner_.cache_identity();
  }
  std::string preprocess_key(const SysNoiseConfig& cfg) const override {
    return inner_.preprocess_key(cfg);
  }
  std::string forward_key(const SysNoiseConfig& cfg) const override {
    return inner_.forward_key(cfg);
  }
  StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
    StageProduct p = inner_.run_preprocess(cfg);
    std::lock_guard<std::mutex> lock(mu_);
    products_.push_back(p);
    return p;
  }
  StageProduct run_forward(const SysNoiseConfig& cfg,
                           const StageProduct& pre) const override {
    return inner_.run_forward(cfg, pre);
  }
  double run_postprocess(const SysNoiseConfig& cfg,
                         const StageProduct& fwd) const override {
    return inner_.run_postprocess(cfg, fwd);
  }
  std::string preprocess_scope() const override {
    return inner_.preprocess_scope();
  }
  bool encode_preprocess(const StageProduct& product,
                         std::string* bytes) const override {
    return inner_.encode_preprocess(product, bytes);
  }
  StageProduct decode_preprocess(const std::string& bytes) const override {
    decodes_.fetch_add(1);
    return inner_.decode_preprocess(bytes);
  }
  std::string forward_scope() const override { return inner_.forward_scope(); }
  bool encode_forward(const StageProduct& product,
                      std::string* bytes) const override {
    return inner_.encode_forward(product, bytes);
  }
  StageProduct decode_forward(const std::string& bytes) const override {
    return inner_.decode_forward(bytes);
  }

  std::size_t preprocess_runs() const {
    std::lock_guard<std::mutex> lock(mu_);
    return products_.size();
  }
  int preprocess_decodes() const { return decodes_.load(); }
  // How many recorded stage-1 products are still owned by someone.
  std::size_t live_products() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t live = 0;
    for (const std::weak_ptr<const void>& p : products_)
      live += p.expired() ? 0 : 1;
    return live;
  }

 private:
  const StagedEvalTask& inner_;
  mutable std::mutex mu_;
  mutable std::vector<std::weak_ptr<const void>> products_;
  mutable std::atomic<int> decodes_{0};
};

// The perfbench sweep_image shape at test size (StageRetentionRealModels;
// the StageRetention suite proper is synthetic and cheap enough for the
// sanitizer jobs): the three fast zoo
// classifiers (one dataset, one preprocess scope) followed by a detector
// (another scope), each over tiny_registry's pre-processing, inference and
// post-processing options.
struct RetentionModels {
  std::vector<models::TrainedClassifier> cls;
  models::TrainedDetector det;
  std::vector<std::unique_ptr<StagedEvalTask>> tasks;  // cls..., det
  std::vector<SweepPlan> plans;

  RetentionModels() : det(models::get_detector("RetinaNet-MobileNet")) {
    const AxisRegistry reg = tiny_registry(true);
    const std::vector<models::ClassifierSpec> zoo = models::classifier_zoo();
    cls.reserve(3);
    for (std::size_t i = 0; i < 3; ++i)
      cls.push_back(models::get_classifier(zoo[i].name));
    for (models::TrainedClassifier& tc : cls)
      tasks.push_back(std::make_unique<models::ClassifierTask>(tc));
    tasks.push_back(std::make_unique<models::DetectorTask>(det));
    for (const auto& t : tasks) plans.push_back(plan_sweep(*t, reg));
  }
};

TEST(StageRetentionRealModels, OneExecutorMatchesFreshExecutorsAndMonolithic) {
  const RetentionModels m;
  ASSERT_EQ(m.tasks[0]->preprocess_scope(), m.tasks[2]->preprocess_scope());
  ASSERT_NE(m.tasks[0]->preprocess_scope(), m.tasks[3]->preprocess_scope());
  SweepOptions opts;
  opts.threads = 3;
  const StagedExecutor shared;
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    const MetricMap kept = shared.execute(*m.tasks[i], m.plans[i], opts);
    const std::string where = m.tasks[i]->cache_identity();
    EXPECT_EQ(kept, StagedExecutor().execute(*m.tasks[i], m.plans[i], opts))
        << where;
    EXPECT_EQ(kept,
              ThreadPoolExecutor().execute(*m.tasks[i], m.plans[i], opts))
        << where;
  }
}

TEST(StageRetentionRealModels, LaterModelsReuseEveryProductUntilTheScopeChanges) {
  const RetentionModels m;
  const auto dir = std::filesystem::temp_directory_path() /
                   "sysnoise_test_stage_retention";
  std::filesystem::remove_all(dir);
  DiskStageCache disk(dir.string());
  StageStats s;
  const StagedExecutor ex(&s, &disk);
  std::vector<StageStats> per_call;
  std::vector<std::unique_ptr<RecordingTask>> recorded;
  std::vector<std::size_t> first_live;  // first model's products, per call
  for (std::size_t i = 0; i < m.tasks.size(); ++i) {
    recorded.push_back(std::make_unique<RecordingTask>(*m.tasks[i]));
    s = StageStats();
    ex.execute(*recorded.back(), m.plans[i]);
    per_call.push_back(s);
    first_live.push_back(recorded[0]->live_products());
    expect_counters_reconcile(s, m.tasks[i]->cache_identity());
  }
  std::filesystem::remove_all(dir);

  // The first model's batches stay alive (held only by the executor) while
  // the classifiers share the scope, and are released by the detector call.
  const std::size_t made = recorded[0]->preprocess_runs();
  EXPECT_EQ(first_live, (std::vector<std::size_t>{made, made, made, 0}));

  // The first classifier materializes its products (a cold disk, so by
  // computing them); the next two find every one kept: no pre-processing,
  // no disk load, and every evaluation is a retained hit.
  EXPECT_EQ(per_call[0].preprocess_retained, 0u);
  EXPECT_EQ(per_call[0].preprocess_computed, per_call[0].preprocess_misses);
  EXPECT_GT(recorded[0]->preprocess_runs(), 0u);
  for (std::size_t i = 1; i < 3; ++i) {
    const StageStats& c = per_call[i];
    EXPECT_EQ(c.preprocess_computed, 0u) << i;
    EXPECT_EQ(c.preprocess_disk_hits, 0u) << i;
    EXPECT_EQ(c.preprocess_misses, 0u) << i;
    EXPECT_EQ(c.preprocess_hits, c.evaluations) << i;
    EXPECT_EQ(c.preprocess_retained, c.evaluations) << i;
    EXPECT_EQ(recorded[i]->preprocess_runs(), 0u) << i;
    EXPECT_EQ(recorded[i]->preprocess_decodes(), 0) << i;
    // Forward products are per model: every group still runs its network.
    EXPECT_EQ(c.forward_computed, c.forward_misses) << i;
  }
  // The detector is another scope: nothing to reuse.
  EXPECT_EQ(per_call[3].preprocess_retained, 0u);
  EXPECT_GT(per_call[3].preprocess_computed, 0u);
}

TEST(StageRetention, ProductsLiveUntilACallWithAnotherScope) {
  // Same name, other pre_rounds: another preprocess scope.
  const SyntheticStagedTask inner(TaskKind::kClassification, false, 1, 1, 1);
  const SyntheticStagedTask sibling(TaskKind::kClassification, false, 1, 2, 1);
  const SyntheticStagedTask other(TaskKind::kClassification, false, 2, 1, 1);
  ASSERT_EQ(inner.preprocess_scope(), sibling.preprocess_scope());
  ASSERT_NE(inner.preprocess_scope(), other.preprocess_scope());
  const RecordingTask first(inner);
  const StagedExecutor ex;
  ex.execute(first, plan_sweep(first, AxisRegistry::global()));
  const std::size_t made = first.preprocess_runs();
  ASSERT_GT(made, 0u);
  // Kept by the executor after the call returned...
  EXPECT_EQ(first.live_products(), made);
  // ...and through a call of the same scope (another "model"), which
  // pre-processes nothing...
  const RecordingTask second(sibling);
  ex.execute(second, plan_sweep(second, AxisRegistry::global()));
  EXPECT_EQ(second.preprocess_runs(), 0u);
  EXPECT_EQ(first.live_products(), made);
  // ...until a call with another scope drops them.
  ex.execute(other, plan_sweep(other, AxisRegistry::global()));
  EXPECT_EQ(first.live_products(), 0u);
}

TEST(StageRetention, FailedPreprocessingIsNotKept) {
  // A task whose pre-processing throws on its first attempt only.
  class FlakyTask final : public SyntheticStagedTask {
   public:
    FlakyTask() : SyntheticStagedTask(TaskKind::kClassification, false) {}
    StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
      if (!failed_.exchange(true)) throw std::runtime_error("flaky");
      return SyntheticStagedTask::run_preprocess(cfg);
    }

   private:
    mutable std::atomic<bool> failed_{false};
  };
  const FlakyTask flaky;
  const SyntheticStagedTask clean(TaskKind::kClassification, false);
  const SweepPlan plan = plan_sweep(flaky, AxisRegistry::global());
  const StagedExecutor ex;
  EXPECT_THROW(ex.execute(flaky, plan), std::runtime_error);
  // Same scope: the products that were computed are reused, the failed one
  // is computed afresh rather than rethrown.
  EXPECT_EQ(ex.execute(flaky, plan), StagedExecutor().execute(clean, plan));
}

TEST(StageRetention, ConcurrentCallsAlternatingScopesStayBitIdentical) {
  // Different pre_rounds: different preprocess scopes AND different stage-1
  // products under the same preprocess keys, so a product served across
  // scopes would change the metrics.
  const SyntheticStagedTask a(TaskKind::kDetection, true, /*pre_rounds=*/1);
  const SyntheticStagedTask b(TaskKind::kDetection, true, /*pre_rounds=*/2);
  ASSERT_NE(a.preprocess_scope(), b.preprocess_scope());
  const SweepPlan plan_a = plan_sweep(a, AxisRegistry::global());
  const SweepPlan plan_b = plan_sweep(b, AxisRegistry::global());
  const MetricMap want_a = ThreadPoolExecutor().execute(a, plan_a);
  const MetricMap want_b = ThreadPoolExecutor().execute(b, plan_b);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < plan_a.configs.size(); ++i)
    differ += want_a.at(plan_a.configs[i].metric_key) !=
              want_b.at(plan_b.configs[i].metric_key);
  ASSERT_GT(differ, 0u);

  SweepOptions opts;
  opts.threads = 2;  // each call fans its groups out too
  StageStats s;
  const StagedExecutor ex(&s);
  constexpr int kRounds = 24;
  std::atomic<int> mismatches{0};
  const auto hammer = [&](const EvalTask& first, const SweepPlan& first_plan,
                          const MetricMap& first_want, const EvalTask& second,
                          const SweepPlan& second_plan,
                          const MetricMap& second_want) {
    for (int r = 0; r < kRounds; ++r) {
      const bool odd = (r % 2) != 0;
      const MetricMap got = ex.execute(odd ? second : first,
                                       odd ? second_plan : first_plan, opts);
      if (got != (odd ? second_want : first_want)) mismatches.fetch_add(1);
    }
  };
  std::thread t1(hammer, std::cref(a), std::cref(plan_a), std::cref(want_a),
                 std::cref(b), std::cref(plan_b), std::cref(want_b));
  std::thread t2(hammer, std::cref(b), std::cref(plan_b), std::cref(want_b),
                 std::cref(a), std::cref(plan_a), std::cref(want_a));
  t1.join();
  t2.join();
  EXPECT_EQ(mismatches.load(), 0);
  expect_counters_reconcile(s, "concurrent");
  EXPECT_EQ(s.evaluations, 2u * kRounds * plan_a.configs.size());
}

}  // namespace
}  // namespace sysnoise::core
