// Tests of the plan/execute/merge lifecycle: SweepPlan + config/report JSON
// round trips, executor bit-identity (thread-pool vs staged vs sharded),
// shard-partition invariance (union of N shard results merged == the
// single-process sweep, bit-identical, per task kind and for N in {1,2,3}),
// the disk-backed StageCache (warm runs perform zero pre-processing), and
// the registry key lookup.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/disk_stage_cache.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "data/pipeline.h"
#include "image/synthetic.h"
#include "jpeg/codec.h"
#include "models/eval_tasks.h"
#include "models/zoo.h"
#include "tensor/half.h"
#include "util/json.h"

namespace sysnoise::core {
namespace {

void expect_reports_identical(const AxisReport& a, const AxisReport& b) {
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.trained, b.trained);
  EXPECT_EQ(a.combined, b.combined);
  ASSERT_EQ(a.axes.size(), b.axes.size());
  for (std::size_t i = 0; i < a.axes.size(); ++i) {
    EXPECT_EQ(a.axes[i].axis, b.axes[i].axis);
    EXPECT_EQ(a.axes[i].key, b.axes[i].key);
    EXPECT_EQ(a.axes[i].mean, b.axes[i].mean) << a.axes[i].axis;
    EXPECT_EQ(a.axes[i].max, b.axes[i].max) << a.axes[i].axis;
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

std::filesystem::path fresh_temp_dir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("sysnoise_test_") + tag);
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// JSON round trips
// ---------------------------------------------------------------------------

TEST(JsonUtil, ValueTreeRoundTrips) {
  util::Json obj = util::Json::object();
  obj.set("s", "a \"quoted\"\nline");
  obj.set("i", 42);
  obj.set("d", 0.30000000000000004);
  obj.set("b", true);
  util::Json arr = util::Json::array();
  arr.push_back(1);
  arr.push_back("two");
  obj.set("a", std::move(arr));

  const util::Json back = util::Json::parse(obj.dump());
  EXPECT_EQ(back.at("s").as_string(), "a \"quoted\"\nline");
  EXPECT_EQ(back.at("i").as_int(), 42);
  EXPECT_EQ(back.at("d").as_number(), 0.30000000000000004);  // bit-exact
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_EQ(back.at("a").at(1).as_string(), "two");
  EXPECT_EQ(back.dump(), obj.dump());
  EXPECT_THROW(util::Json::parse("{\"unterminated\": "), std::runtime_error);
}

TEST(JsonUtil, NestingDepthIsCappedInsteadOfOverflowingTheStack) {
  // A million unclosed '[' used to recurse once per level until the stack
  // ran out; now the parser refuses past the cap, with objects counted too.
  EXPECT_THROW(util::Json::parse(std::string(1000000, '[')), std::runtime_error);
  const int cap = util::Json::kMaxParseDepth;
  const std::string ok =
      std::string(static_cast<std::size_t>(cap), '[') +
      std::string(static_cast<std::size_t>(cap), ']');
  EXPECT_EQ(util::Json::parse(ok).dump(), ok);
  EXPECT_THROW(util::Json::parse("[" + ok + "]"), std::runtime_error);
  std::string objects;
  for (int i = 0; i <= cap; ++i) objects += "{\"k\":";
  objects += "1" + std::string(static_cast<std::size_t>(cap) + 1, '}');
  EXPECT_THROW(util::Json::parse(objects), std::runtime_error);
}

TEST(ConfigJson, RoundTripsEveryAxisOption) {
  // Flip every knob away from default, one sweep-plan config at a time, and
  // require a lossless round trip (describe() is the canonical identity).
  const AxisRegistry& reg = AxisRegistry::global();
  for (const NoiseAxis& axis : reg.axes())
    for (int i = 0; i < axis.num_options(); ++i) {
      SysNoiseConfig cfg;
      axis.apply(cfg, i);
      const SysNoiseConfig back = SysNoiseConfig::from_json(
          util::Json::parse(cfg.to_json().dump()));
      EXPECT_EQ(back.describe(), cfg.describe()) << axis.name << "/" << i;
    }
  const SysNoiseConfig comb = combined_config({TaskKind::kDetection, true});
  EXPECT_EQ(SysNoiseConfig::from_json(comb.to_json()).describe(),
            comb.describe());
  EXPECT_THROW(decoder_vendor_from_name("no-such-vendor"),
               std::invalid_argument);
}

TEST(PlanJson, SweepPlanRoundTripsLosslessly) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  // Stage keys are captured for staged tasks.
  EXPECT_FALSE(plan.configs.front().preprocess_key.empty());
  EXPECT_FALSE(plan.configs.front().forward_key.empty());

  const SweepPlan back =
      SweepPlan::from_json(util::Json::parse(plan.to_json().dump()));
  EXPECT_EQ(back.to_json().dump(), plan.to_json().dump());
  EXPECT_EQ(back.fingerprint(), plan.fingerprint());
  ASSERT_EQ(back.configs.size(), plan.configs.size());
  for (std::size_t i = 0; i < plan.configs.size(); ++i) {
    EXPECT_EQ(back.configs[i].metric_key, plan.configs[i].metric_key);
    EXPECT_EQ(back.configs[i].cfg.describe(), plan.configs[i].cfg.describe());
  }

  const SweepPlan steps = plan_stepwise(task, AxisRegistry::global());
  const SweepPlan steps_back =
      SweepPlan::from_json(util::Json::parse(steps.to_json().dump()));
  EXPECT_EQ(steps_back.to_json().dump(), steps.to_json().dump());
}

TEST(PlanJson, PlainTaskPlansCarryNoStageKeys) {
  const SyntheticTask task(TaskKind::kClassification, false);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  EXPECT_TRUE(plan.configs.front().preprocess_key.empty());
  EXPECT_EQ(SweepPlan::from_json(plan.to_json()).fingerprint(),
            plan.fingerprint());
}

// ---------------------------------------------------------------------------
// Executors: bit-identity and shard-partition invariance
// ---------------------------------------------------------------------------

TEST(Executors, ThreadPoolAndStagedAgreeWithLegacyEntryPoints) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  const AxisReport via_sweep = sweep(task);
  expect_reports_identical(
      via_sweep,
      assemble_report(plan, ThreadPoolExecutor().execute(task, plan)));
  expect_reports_identical(
      via_sweep, assemble_report(plan, StagedExecutor().execute(task, plan)));
}

TEST(Executors, StagedFallsBackForUnstagedTasks) {
  const SyntheticTask task(TaskKind::kSegmentation, false);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  expect_reports_identical(
      assemble_report(plan, ThreadPoolExecutor().execute(task, plan)),
      assemble_report(plan, StagedExecutor().execute(task, plan)));
}

TEST(Executors, ShardPartitionInvariantPerTaskKindAndShardCount) {
  // The tentpole guarantee: for N in {1,2,3}, the union of the N shard
  // results merged reproduces the single-process staged sweep bit-
  // identically — for every task kind.
  for (const TaskKind kind : {TaskKind::kClassification, TaskKind::kDetection,
                              TaskKind::kSegmentation}) {
    const SyntheticStagedTask task(kind, true);
    const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
    const AxisReport single = sweep(task);
    const auto single_steps = stepwise(task);
    const SweepPlan step_plan = plan_stepwise(task, AxisRegistry::global());

    for (int n = 1; n <= 3; ++n) {
      const StagedExecutor staged;
      std::vector<MetricMap> parts, step_parts;
      for (int i = 0; i < n; ++i) {
        const ShardExecutor shard(staged, i, n);
        parts.push_back(shard.execute(task, plan));
        step_parts.push_back(shard.execute(task, step_plan));
      }
      expect_reports_identical(
          single, assemble_report(plan, ShardExecutor::merge(plan, parts)));
      const auto merged_steps =
          assemble_steps(step_plan, ShardExecutor::merge(step_plan, step_parts));
      ASSERT_EQ(merged_steps.size(), single_steps.size())
          << task_kind_name(kind) << " N=" << n;
      for (std::size_t s = 0; s < single_steps.size(); ++s) {
        EXPECT_EQ(merged_steps[s].step, single_steps[s].step);
        EXPECT_EQ(merged_steps[s].delta, single_steps[s].delta);
      }
    }
  }
}

TEST(Executors, ShardsCoverThePlanExactlyOnce) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  for (int n = 1; n <= 3; ++n) {
    std::set<std::size_t> seen;
    std::size_t total = 0;
    for (int i = 0; i < n; ++i) {
      const auto indices = plan.shard_indices(i, n);
      total += indices.size();
      seen.insert(indices.begin(), indices.end());
    }
    EXPECT_EQ(total, plan.configs.size());
    EXPECT_EQ(seen.size(), plan.configs.size());
  }
  EXPECT_THROW(plan.shard_indices(2, 2), std::invalid_argument);
  EXPECT_THROW(ShardExecutor(StagedExecutor(), 3, 2), std::invalid_argument);
}

TEST(Executors, MergeRejectsGapsAndDisagreement) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  const StagedExecutor staged;
  const MetricMap half = ShardExecutor(staged, 0, 2).execute(task, plan);
  // Missing the other shard: incomplete coverage must throw.
  EXPECT_THROW(ShardExecutor::merge(plan, {half}), std::out_of_range);
  // A conflicting duplicate entry must throw.
  MetricMap corrupted = half;
  corrupted.begin()->second += 1.0;
  EXPECT_THROW(ShardExecutor::merge(plan, {half, corrupted}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Disk-backed StageCache
// ---------------------------------------------------------------------------

TEST(DiskStageCacheT, StoresAndReloadsWithScopeIsolation) {
  const auto dir = fresh_temp_dir("disk_cache_basic");
  DiskStageCache cache(dir.string());
  std::string bytes;
  EXPECT_FALSE(cache.load("scope-a", "key", &bytes));
  cache.store("scope-a", "key", "payload\x01\x02");
  ASSERT_TRUE(cache.load("scope-a", "key", &bytes));
  EXPECT_EQ(bytes, "payload\x01\x02");
  // Same key under another scope is a distinct entry.
  EXPECT_FALSE(cache.load("scope-b", "key", &bytes));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.stores(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(DiskStageCacheT, WarmRunSkipsAllPreprocessing) {
  const auto dir = fresh_temp_dir("disk_cache_warm");
  const SyntheticStagedTask task(TaskKind::kDetection, true);

  DiskStageCache cold_disk(dir.string());
  StageStats cold;
  const StagedExecutor cold_ex(&cold, &cold_disk);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  const AxisReport cold_report = assemble_report(plan, cold_ex.execute(task, plan));
  EXPECT_GT(cold.preprocess_computed, 0u);
  EXPECT_EQ(cold.preprocess_persisted, cold.preprocess_computed);
  EXPECT_EQ(cold.preprocess_disk_hits, 0u);

  // Fresh executor + fresh memo: only the disk survives — and it carries
  // the entire stage-1 workload.
  task.reset();
  DiskStageCache warm_disk(dir.string());
  StageStats warm;
  const StagedExecutor warm_ex(&warm, &warm_disk);
  const AxisReport warm_report = assemble_report(plan, warm_ex.execute(task, plan));
  expect_reports_identical(cold_report, warm_report);
  EXPECT_EQ(warm.preprocess_computed, 0u);
  EXPECT_EQ(task.pre_runs(), 0);  // run_preprocess never invoked
  EXPECT_EQ(warm.preprocess_disk_hits, warm.preprocess_misses);
  std::filesystem::remove_all(dir);
}

TEST(DiskStageCacheT, ShardsShareProductsThroughTheDisk) {
  // Shard 0 materializes its products; shard 1 (same directory) reuses any
  // keys it shares instead of recomputing them.
  const auto dir = fresh_temp_dir("disk_cache_shards");
  const SyntheticStagedTask task(TaskKind::kClassification, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());

  DiskStageCache disk0(dir.string());
  const StagedExecutor ex0(nullptr, &disk0);
  const MetricMap part0 = ShardExecutor(ex0, 0, 2).execute(task, plan);

  DiskStageCache disk1(dir.string());
  StageStats stats1;
  const StagedExecutor ex1(&stats1, &disk1);
  const MetricMap part1 = ShardExecutor(ex1, 1, 2).execute(task, plan);
  EXPECT_GT(stats1.preprocess_disk_hits, 0u);

  expect_reports_identical(
      sweep(task),
      assemble_report(plan, ShardExecutor::merge(plan, {part0, part1})));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Real-model batches: encode/decode and warm-cache zero-decode guarantee
// ---------------------------------------------------------------------------

TEST(BatchEncoding, PreprocessedBatchesRoundTripBitExactly) {
  SysNoiseConfig cfg;
  cfg.resize = ResizeMethod::kOpenCVNearest;
  const auto& ds = models::benchmark_cls_dataset();
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  for (std::size_t i = 0; i < 5 && i < ds.eval.size(); ++i)
    jpegs.push_back(&ds.eval[i].jpeg);
  const PreprocessedBatches batches =
      preprocess_batches(jpegs, cfg, models::cls_pipeline_spec(), 2);

  PreprocessedBatches back;
  ASSERT_TRUE(models::decode_batches(models::encode_batches(batches), &back));
  EXPECT_EQ(back.batch_size, batches.batch_size);
  EXPECT_EQ(back.num_samples, batches.num_samples);
  ASSERT_EQ(back.inputs.size(), batches.inputs.size());
  for (std::size_t i = 0; i < batches.inputs.size(); ++i) {
    EXPECT_EQ(back.inputs[i].shape(), batches.inputs[i].shape());
    EXPECT_EQ(back.inputs[i].vec(), batches.inputs[i].vec());
  }
  PreprocessedBatches junk;
  EXPECT_FALSE(models::decode_batches("not a batch payload", &junk));
}

// Counting wrapper: every JPEG decode of the classifier eval path happens
// inside run_preprocess, so run_preprocess never firing == zero decodes.
class CountingClassifierTask : public models::ClassifierTask {
 public:
  using models::ClassifierTask::ClassifierTask;
  StageProduct run_preprocess(const SysNoiseConfig& cfg) const override {
    ++preprocess_runs;
    return models::ClassifierTask::run_preprocess(cfg);
  }
  mutable int preprocess_runs = 0;
};

// Tiny registry keeps the real-model matrix affordable while spanning a
// pre-processing and an inference knob.
AxisRegistry resize_and_precision_registry() {
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
    a.tasks_label = "Cls";
    a.effect_level = "Very High";
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
    a.tasks_label = "Cls";
    a.effect_level = "High";
    reg.add(std::move(a));
  }
  return reg;
}

TEST(DiskStageCacheT, WarmRealClassifierRunPerformsZeroJpegDecodes) {
  const auto dir = fresh_temp_dir("disk_cache_real");
  auto tc = models::get_classifier("MCUNet");
  CountingClassifierTask task(tc);

  const SweepPlan plan = plan_sweep(task, resize_and_precision_registry());

  DiskStageCache cold_disk(dir.string());
  const StagedExecutor cold_ex(nullptr, &cold_disk);
  const AxisReport cold = assemble_report(plan, cold_ex.execute(task, plan));
  EXPECT_GT(task.preprocess_runs, 0);

  task.preprocess_runs = 0;
  DiskStageCache warm_disk(dir.string());
  StageStats stats;
  const StagedExecutor warm_ex(&stats, &warm_disk);
  const AxisReport warm = assemble_report(plan, warm_ex.execute(task, plan));
  expect_reports_identical(cold, warm);
  EXPECT_EQ(task.preprocess_runs, 0);  // zero JPEG decodes on the warm run
  EXPECT_EQ(stats.preprocess_computed, 0u);
  EXPECT_EQ(stats.preprocess_disk_hits, stats.preprocess_misses);
  std::filesystem::remove_all(dir);
}

// Bitwise MetricMap equality (== would equate +0.0 and -0.0).
bool same_bits(const MetricMap& a, const MetricMap& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib)
    if (ia->first != ib->first ||
        std::memcmp(&ia->second, &ib->second, sizeof(double)) != 0)
      return false;
  return true;
}

// Decoded stage products are untrusted input: a well-formed entry whose
// geometry differs from what the task computes for its eval set (planted
// under the real scope/key, e.g. by another build or by hand) must count as
// a miss and be recomputed, never indexed past the eval set.
TEST(DiskStageCacheT, MisshapenStageOneProductsAreRecomputed) {
  auto tc = models::get_classifier("MCUNet");
  const models::ClassifierTask task(tc);
  const SweepPlan plan = plan_sweep(task, resize_and_precision_registry());
  const MetricMap cold = StagedExecutor().execute(task, plan);

  const std::vector<std::function<void(PreprocessedBatches&)>> manglers = {
      [](PreprocessedBatches& b) {  // every batch twice
        std::vector<Tensor> doubled;
        for (const Tensor& t : b.inputs) {
          doubled.push_back(t);
          doubled.push_back(t);
        }
        b.inputs = std::move(doubled);
      },
      [](PreprocessedBatches& b) { b.inputs.pop_back(); },  // truncated
      [](PreprocessedBatches& b) { b.batch_size = 8; },      // wrong header
  };
  for (std::size_t m = 0; m < manglers.size(); ++m) {
    const auto dir = fresh_temp_dir("disk_cache_misshapen");
    DiskStageCache disk(dir.string());
    std::set<std::string> planted;
    for (const PlannedConfig& pc : plan.configs) {
      if (!planted.insert(pc.preprocess_key).second) continue;
      PreprocessedBatches batches = *static_cast<const PreprocessedBatches*>(
          task.run_preprocess(pc.cfg).get());
      manglers[m](batches);
      disk.store(task.preprocess_scope(), pc.preprocess_key,
                 models::encode_batches(batches));
    }
    StageStats stats;
    const MetricMap warm = StagedExecutor(&stats, &disk).execute(task, plan);
    EXPECT_TRUE(same_bits(warm, cold)) << "mangler " << m;
    EXPECT_EQ(stats.preprocess_disk_hits, 0u) << "mangler " << m;
    EXPECT_EQ(stats.preprocess_computed, planted.size()) << "mangler " << m;
    std::filesystem::remove_all(dir);
  }
}

TEST(DiskStageCacheT, MisshapenDetectionForwardProductsAreRecomputed) {
  auto td = models::get_detector("RetinaNet-MobileNet");
  const models::DetectorTask task(td);
  const SweepPlan plan = plan_sweep(task, resize_and_precision_registry());
  const MetricMap cold = StagedExecutor().execute(task, plan);

  const std::vector<std::function<void(models::RawDetections&)>> manglers = {
      [](models::RawDetections& r) { r.batches.push_back(r.batches.front()); },
      [](models::RawDetections& r) { r.batches.pop_back(); },
      [](models::RawDetections& r) {  // a level one row short
        Tensor& cls = r.batches.front().cls.front();
        cls = Tensor({cls.dim(0) - 1, cls.dim(1), cls.dim(2), cls.dim(3)});
      },
  };
  for (std::size_t m = 0; m < manglers.size(); ++m) {
    const auto dir = fresh_temp_dir("disk_cache_misshapen_fwd");
    DiskStageCache disk(dir.string());
    std::set<std::string> planted;
    for (const PlannedConfig& pc : plan.configs) {
      if (!planted.insert(pc.forward_key).second) continue;
      models::RawDetections raw = *static_cast<const models::RawDetections*>(
          task.run_forward(pc.cfg, task.run_preprocess(pc.cfg)).get());
      manglers[m](raw);
      disk.store(task.forward_scope(), pc.forward_key,
                 models::encode_raw_detections(raw));
    }
    StageStats stats;
    const MetricMap warm = StagedExecutor(&stats, &disk).execute(task, plan);
    EXPECT_TRUE(same_bits(warm, cold)) << "mangler " << m;
    EXPECT_EQ(stats.forward_disk_hits, 0u) << "mangler " << m;
    EXPECT_EQ(stats.forward_computed, planted.size()) << "mangler " << m;
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Registry key lookup + Crop axis
// ---------------------------------------------------------------------------

TEST(AxisRegistryLookup, FindsByNameAndByKey) {
  const AxisRegistry& reg = AxisRegistry::global();
  for (const NoiseAxis& axis : reg.axes()) {
    EXPECT_EQ(reg.find(axis.name), &axis);
    EXPECT_EQ(reg.find_by_key(axis.key), &axis);
  }
  // The two namespaces are distinct: "Color Mode" is the name, "color" the
  // key — and plan/CSV round trips reference the key.
  EXPECT_NE(reg.find("Color Mode"), nullptr);
  EXPECT_EQ(reg.find("color"), nullptr);
  EXPECT_NE(reg.find_by_key("color"), nullptr);
  EXPECT_EQ(reg.find_by_key("Color Mode"), nullptr);
  EXPECT_EQ(reg.find_by_key("no-such-key"), nullptr);

  AxisRegistry dup;
  NoiseAxis a;
  a.name = "A";
  a.key = "shared";
  a.option_labels = {"x"};
  a.apply = [](SysNoiseConfig&, int) {};
  dup.add(a);
  NoiseAxis b = a;
  b.name = "B";  // distinct name, duplicate key
  EXPECT_THROW(dup.add(std::move(b)), std::invalid_argument);
}

TEST(CropAxis, ChangesPreprocessingOnlyForCroppedFractions) {
  // Synthesize a sample JPEG and check the crop path actually changes the
  // pre-processed image while keeping the output geometry.
  Rng rng(11);
  const TextureParams params = class_texture(2, 10, rng);
  const auto jpeg_bytes =
      jpeg::encode(render_texture(params, 96, 96, rng), {.quality = 90});
  const PipelineSpec spec = models::cls_pipeline_spec();

  SysNoiseConfig base;
  SysNoiseConfig cropped;
  cropped.crop_fraction = 0.875f;
  const ImageU8 img_base = preprocess_image(jpeg_bytes, base, spec);
  const ImageU8 img_crop = preprocess_image(jpeg_bytes, cropped, spec);
  EXPECT_EQ(img_crop.height(), spec.out_h);
  EXPECT_EQ(img_crop.width(), spec.out_w);
  ASSERT_EQ(img_base.size(), img_crop.size());
  bool differs = false;
  for (std::size_t i = 0; i < img_base.size() && !differs; ++i)
    differs = img_base.vec()[i] != img_crop.vec()[i];
  EXPECT_TRUE(differs);
  // And the knob is stage-1-keyed, so the sweep engine never conflates the
  // two pipelines.
  EXPECT_NE(preprocess_key(base, spec), preprocess_key(cropped, spec));
}

TEST(LayoutAxis, NhwcRoundTripPerturbsTheTensorAndSplitsTheStageKey) {
  Rng rng(12);
  const TextureParams params = class_texture(1, 10, rng);
  const auto jpeg_bytes =
      jpeg::encode(render_texture(params, 64, 64, rng), {.quality = 90});
  const PipelineSpec spec = models::cls_pipeline_spec();

  SysNoiseConfig base;
  SysNoiseConfig nhwc;
  nhwc.layout = ChannelLayout::kNHWCRoundTrip;
  const Tensor t_base = preprocess(jpeg_bytes, base, spec);
  const Tensor t_nhwc = preprocess(jpeg_bytes, nhwc, spec);
  ASSERT_EQ(t_base.shape(), t_nhwc.shape());
  // The staging round trip is exactly one FP16 rounding per element —
  // deterministic, non-zero noise in the same geometry.
  bool differs = false;
  for (std::size_t i = 0; i < t_base.size(); ++i) {
    EXPECT_EQ(t_nhwc[i], fp16_round(t_base[i]));
    differs |= t_nhwc[i] != t_base[i];
  }
  EXPECT_TRUE(differs);
  EXPECT_NE(preprocess_key(base, spec), preprocess_key(nhwc, spec));
}

// ---------------------------------------------------------------------------
// Forward-stage disk persistence + write atomicity
// ---------------------------------------------------------------------------

TEST(DiskStageCacheT, WarmRunSkipsForwardPassesToo) {
  const auto dir = fresh_temp_dir("disk_cache_fwd");
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());

  DiskStageCache cold_disk(dir.string());
  StageStats cold;
  const StagedExecutor cold_ex(&cold, &cold_disk);
  const AxisReport cold_report = assemble_report(plan, cold_ex.execute(task, plan));
  EXPECT_GT(cold.forward_computed, 0u);
  EXPECT_EQ(cold.forward_persisted, cold.forward_computed);
  EXPECT_EQ(cold.forward_disk_hits, 0u);

  task.reset();
  DiskStageCache warm_disk(dir.string());
  StageStats warm;
  const StagedExecutor warm_ex(&warm, &warm_disk);
  const AxisReport warm_report = assemble_report(plan, warm_ex.execute(task, plan));
  expect_reports_identical(cold_report, warm_report);
  // Forward products cover every group, so the warm run touches NEITHER
  // stage 1 nor stage 2 — only post-processing re-runs.
  EXPECT_EQ(warm.forward_computed, 0u);
  EXPECT_EQ(task.fwd_runs(), 0);
  EXPECT_EQ(task.pre_runs(), 0);
  EXPECT_GT(task.post_runs(), 0);
  EXPECT_EQ(warm.forward_disk_hits, warm.forward_misses);
  std::filesystem::remove_all(dir);
}

TEST(BatchEncoding, RawDetectionsRoundTripBitExactly) {
  Rng rng(17);
  models::RawDetections raw;
  for (int b = 0; b < 2; ++b) {
    models::RawDetectorOutput batch;
    for (int level = 0; level < 3; ++level) {
      Tensor cls({2, 6, 4 - level, 4 - level});
      Tensor reg({2, 4, 4 - level, 4 - level});
      for (auto& v : cls.vec()) v = rng.uniform_f(-4.0f, 4.0f);
      for (auto& v : reg.vec()) v = rng.uniform_f(-4.0f, 4.0f);
      batch.shapes.emplace_back(4 - level, 4 - level);
      batch.cls.push_back(std::move(cls));
      batch.reg.push_back(std::move(reg));
    }
    raw.batches.push_back(std::move(batch));
  }

  models::RawDetections back;
  ASSERT_TRUE(
      models::decode_raw_detections(models::encode_raw_detections(raw), &back));
  ASSERT_EQ(back.batches.size(), raw.batches.size());
  for (std::size_t b = 0; b < raw.batches.size(); ++b) {
    EXPECT_EQ(back.batches[b].shapes, raw.batches[b].shapes);
    ASSERT_EQ(back.batches[b].cls.size(), raw.batches[b].cls.size());
    for (std::size_t l = 0; l < raw.batches[b].cls.size(); ++l) {
      EXPECT_EQ(back.batches[b].cls[l].vec(), raw.batches[b].cls[l].vec());
      EXPECT_EQ(back.batches[b].reg[l].vec(), raw.batches[b].reg[l].vec());
    }
  }
  models::RawDetections junk;
  EXPECT_FALSE(models::decode_raw_detections("garbage", &junk));
}

TEST(DiskStageCacheT, ConcurrentStoresNeverExposeTornEntries) {
  // Hammer one key from many writers while readers load continuously: with
  // temp-file + rename every successful load must observe one writer's
  // payload in full, and no temp files survive.
  const auto dir = fresh_temp_dir("disk_cache_torn");
  DiskStageCache cache(dir.string());
  const int kWriters = 8, kRounds = 50;
  std::vector<std::string> payloads;
  for (int w = 0; w < kWriters; ++w)
    payloads.push_back(std::string(10000 + w, static_cast<char>('a' + w)));

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&] {
    std::string bytes;
    while (!stop.load()) {
      DiskStageCache reader_cache(dir.string());
      if (!reader_cache.load("scope", "key", &bytes)) continue;
      bool ok = false;
      for (const std::string& p : payloads) ok |= bytes == p;
      if (!ok) torn.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r)
        cache.store("scope", "key", payloads[static_cast<std::size_t>(w)]);
    });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);

  std::size_t temp_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().string().find(".tmp.") != std::string::npos) ++temp_files;
  EXPECT_EQ(temp_files, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sysnoise::core
