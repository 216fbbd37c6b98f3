// Tests of the NoiseAxis registry and the unified sweep engine: taxonomy
// shape, axis applicability, parallel-vs-serial determinism, memoization,
// and extensibility (registering a new axis without touching the engine,
// report renderer or benches).
#include <gtest/gtest.h>

#include "core/axis.h"
#include "core/report.h"
#include "core/sweep.h"
#include "core/synthetic_task.h"
#include "models/eval_tasks.h"

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

// ---------------------------------------------------------------------------
// Registry / taxonomy
// ---------------------------------------------------------------------------

TEST(AxisRegistry, MatchesTable1Taxonomy) {
  const auto& axes = AxisRegistry::global().axes();
  ASSERT_EQ(axes.size(), 14u);
  const std::vector<std::string> names = {"Decode",    "Resize",
                                          "Crop",       "Color Mode",
                                          "Normalize",  "Layout",
                                          "Precision",  "Backend",
                                          "Ceil Mode",  "Upsample",
                                          "Post-proc",  "Tokenizer",
                                          "Resample",   "Stft"};
  for (std::size_t i = 0; i < names.size(); ++i) EXPECT_EQ(axes[i].name, names[i]);

  // Option counts mirror the implemented option sets (Table 1 categories
  // are options + the training default).
  EXPECT_EQ(AxisRegistry::global().find("Decode")->taxonomy_categories(),
            jpeg::kNumDecoderVendors);
  EXPECT_EQ(AxisRegistry::global().find("Resize")->taxonomy_categories(),
            kNumResizeMethods);
  EXPECT_EQ(AxisRegistry::global().find("Precision")->num_options(), 2);
  EXPECT_EQ(AxisRegistry::global().find("Precision")->option_labels,
            (std::vector<std::string>{"FP16", "INT8"}));
  EXPECT_EQ(AxisRegistry::global().find("Normalize")->taxonomy_categories(),
            kNumNormStats);
  EXPECT_EQ(AxisRegistry::global().find("Normalize")->option_labels,
            (std::vector<std::string>{"rounded-u8", "0.5/0.5"}));
  EXPECT_EQ(AxisRegistry::global().find("Normalize")->stage, "Pre-processing");
  for (const char* single :
       {"Crop", "Color Mode", "Layout", "Ceil Mode", "Upsample", "Post-proc"})
    EXPECT_EQ(AxisRegistry::global().find(single)->taxonomy_categories(), 2)
        << single;
  EXPECT_EQ(AxisRegistry::global().find("Layout")->option_labels,
            (std::vector<std::string>{"NHWC-fp16"}));
  EXPECT_EQ(AxisRegistry::global().find("Layout")->stage, "Pre-processing");
  EXPECT_EQ(AxisRegistry::global().find("Crop")->option_labels,
            (std::vector<std::string>{"center-0.875"}));
  // Backend options are relative to the process default (reference under
  // the test harness): the two kernel families training doesn't use.
  EXPECT_EQ(AxisRegistry::global().find("Backend")->option_labels,
            (std::vector<std::string>{"blocked", "simd"}));
  EXPECT_EQ(AxisRegistry::global().find("Backend")->stage, "Model inference");
  // Every axis carries taxonomy metadata for the Table 1 bench.
  for (const NoiseAxis& a : axes) {
    EXPECT_FALSE(a.stage.empty()) << a.name;
    EXPECT_FALSE(a.tasks_label.empty()) << a.name;
    EXPECT_FALSE(a.effect_level.empty()) << a.name;
  }
}

TEST(AxisRegistry, ApplicabilityFollowsTaskTraits) {
  auto names = [](const std::vector<const NoiseAxis*>& axes) {
    std::vector<std::string> out;
    for (const NoiseAxis* a : axes) out.push_back(a->name);
    return out;
  };
  const auto& reg = AxisRegistry::global();
  EXPECT_EQ(names(reg.applicable({TaskKind::kClassification, false})),
            (std::vector<std::string>{"Decode", "Resize", "Crop", "Color Mode",
                                      "Normalize", "Layout", "Precision",
                                      "Backend"}));
  EXPECT_EQ(names(reg.applicable({TaskKind::kDetection, true})),
            (std::vector<std::string>{"Decode", "Resize", "Color Mode",
                                      "Normalize", "Layout", "Precision",
                                      "Backend", "Ceil Mode", "Upsample",
                                      "Post-proc"}));
  EXPECT_EQ(names(reg.applicable({TaskKind::kSegmentation, false})),
            (std::vector<std::string>{"Decode", "Resize", "Color Mode",
                                      "Normalize", "Layout", "Precision",
                                      "Backend", "Upsample"}));
}

TEST(AxisRegistry, CombinedConfigMatchesLegacyFlags) {
  const SysNoiseConfig via_traits =
      combined_config({TaskKind::kDetection, true});
  const SysNoiseConfig via_flags = combined_config(true, true, true);
  EXPECT_EQ(via_traits.describe(), via_flags.describe());
  EXPECT_EQ(via_traits.decoder, jpeg::DecoderVendor::kDALI);
  EXPECT_EQ(via_traits.resize, ResizeMethod::kOpenCVNearest);
  EXPECT_EQ(via_traits.precision, nn::Precision::kINT8);
  EXPECT_TRUE(via_traits.ceil_mode);
  EXPECT_FLOAT_EQ(via_traits.proposal_offset, 1.0f);

  // The flag form keeps the old runner's independent-flag semantics even
  // for combinations no TaskKind produces (postproc without upsample).
  const SysNoiseConfig odd = combined_config(true, false, true);
  EXPECT_EQ(odd.upsample, nn::UpsampleMode::kNearest);
  EXPECT_FLOAT_EQ(odd.proposal_offset, 1.0f);
}

// ---------------------------------------------------------------------------
// Sweep engine: determinism, memoization, stepwise
// ---------------------------------------------------------------------------

TEST(SweepEngine, ParallelMatchesSerialBitIdentically) {
  const SyntheticTask task(TaskKind::kDetection, true);
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  expect_reports_identical(sweep(task, serial), sweep(task, parallel));

  const auto steps_serial = stepwise(task, serial);
  const auto steps_parallel = stepwise(task, parallel);
  ASSERT_EQ(steps_serial.size(), steps_parallel.size());
  for (std::size_t i = 0; i < steps_serial.size(); ++i) {
    EXPECT_EQ(steps_serial[i].step, steps_parallel[i].step);
    EXPECT_EQ(steps_serial[i].delta, steps_parallel[i].delta);
  }
}

TEST(SweepEngine, MemoCacheSkipsDuplicateEvalsWithoutChangingResults) {
  const SyntheticTask task(TaskKind::kDetection, true);

  SweepOptions no_memo;
  no_memo.threads = 1;
  no_memo.memoize = false;
  const AxisReport plain = sweep(task, no_memo);
  const auto plain_steps = stepwise(task, no_memo);
  const int evals_without = task.evals();

  task.reset();
  SweepCache cache;
  SweepOptions memo;
  memo.threads = 2;
  memo.cache = &cache;
  const AxisReport memoized = sweep(task, memo);
  const auto memo_steps = stepwise(task, memo);
  const int evals_with = task.evals();

  expect_reports_identical(plain, memoized);
  ASSERT_EQ(plain_steps.size(), memo_steps.size());
  for (std::size_t i = 0; i < plain_steps.size(); ++i)
    EXPECT_EQ(plain_steps[i].delta, memo_steps[i].delta) << plain_steps[i].step;

  // stepwise() reuses the baseline and the first step (identical config to
  // the Decode axis option) from the sweep via the shared cache.
  EXPECT_LT(evals_with, evals_without);
  EXPECT_GT(cache.hits(), 0u);
}

TEST(SweepEngine, SeededCacheSkipsTrainedBaselineEval) {
  const SyntheticTask task(TaskKind::kClassification, false);
  const double trained = task.evaluate(SysNoiseConfig::training_default());
  const int base_evals = task.evals();

  SweepCache cache;
  cache.seed(task, SysNoiseConfig::training_default(), trained);
  SweepOptions opts;
  opts.cache = &cache;
  const AxisReport report = sweep(task, opts);
  // Options: 3 decode + 10 resize + 1 crop + 1 color + 2 norm + 1 layout +
  // 2 precision + 2 backend + combined = 23; the baseline itself came from
  // the seed.
  EXPECT_EQ(task.evals() - base_evals, 23);
  EXPECT_EQ(report.trained, trained);
}

TEST(SweepEngine, RetrainedVariantsGetDistinctCacheKeys) {
  // Mitigation studies retrain under the same display name with a tag; a
  // shared SweepCache must not hand one variant the other's metrics.
  models::TrainedClassifier plain;
  plain.name = "ResNet-S";
  models::TrainedClassifier variant;
  variant.name = "ResNet-S";
  variant.tag = "f4_AugMix";
  const models::ClassifierTask plain_task(plain);
  const models::ClassifierTask variant_task(variant);
  const SysNoiseConfig base = SysNoiseConfig::training_default();
  EXPECT_NE(SweepCache::key_for(plain_task, base),
            SweepCache::key_for(variant_task, base));
  EXPECT_EQ(plain_task.name(), variant_task.name());
}

TEST(SweepEngine, StepwiseAccumulatesInRegistryOrder) {
  const SyntheticTask task(TaskKind::kDetection, true);
  const auto steps = stepwise(task);
  const std::vector<std::string> expected = {
      "Decode",     "+Resize",    "+Color Mode",      "+Normalize",
      "+NHWC",      "+INT8",      "+SIMD",            "+Ceil Mode",
      "+Upsample",  "+Post processing"};
  ASSERT_EQ(steps.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(steps[i].step, expected[i]);
}

// ---------------------------------------------------------------------------
// Extensibility: a new axis flows through sweep + report untouched
// ---------------------------------------------------------------------------

TEST(SweepEngine, CustomAxisRegistersWithoutEngineChanges) {
  AxisRegistry registry;
  for (NoiseAxis& a : builtin_axes()) registry.add(std::move(a));

  // A hypothetical deployment knob: some runtimes silently swap the decoder
  // AND force nearest resize (a compound vendor preset).
  NoiseAxis preset;
  preset.name = "Vendor Preset";
  preset.key = "vendor_preset";
  preset.option_labels = {"edge-runtime"};
  preset.apply = [](SysNoiseConfig& cfg, int) {
    cfg.decoder = jpeg::DecoderVendor::kFFmpeg;
    cfg.resize = ResizeMethod::kOpenCVNearest;
  };
  preset.stage = "Pre-processing";
  preset.tasks_label = "Cls/Det/Seg";
  preset.effect_level = "High";
  registry.add(std::move(preset));

  const SyntheticTask task(TaskKind::kClassification, false);
  SweepOptions opts;
  opts.registry = &registry;
  const AxisReport report = sweep(task, opts);
  const AxisResult* res = report.find("Vendor Preset");
  ASSERT_NE(res, nullptr);
  ASSERT_EQ(res->options.size(), 1u);

  // The renderer picks the new column up from the report alone.
  const std::string table = render_axis_table({report}, "ACC");
  EXPECT_NE(table.find("Vendor Preset"), std::string::npos);
  const std::string csv = axis_report_csv({report});
  EXPECT_NE(csv.find("vendor_preset"), std::string::npos);

  // The combined config picks the preset up too.
  const SysNoiseConfig combined =
      combined_config({TaskKind::kClassification, false}, registry);
  EXPECT_EQ(combined.decoder, jpeg::DecoderVendor::kFFmpeg);
}

TEST(SweepEngine, RejectsMalformedOrDuplicateAxes) {
  AxisRegistry registry;
  NoiseAxis bad;
  bad.name = "Bad";
  EXPECT_THROW(registry.add(bad), std::invalid_argument);  // no options/apply

  for (NoiseAxis& a : builtin_axes()) registry.add(std::move(a));
  NoiseAxis dup = builtin_axes().front();
  EXPECT_THROW(registry.add(std::move(dup)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Real-model determinism: the parallel sweep reproduces the serial sweep
// ---------------------------------------------------------------------------

TEST(SweepEngine, RealClassifierParallelSweepIsDeterministic) {
  auto tc = models::get_classifier("MCUNet");
  models::ClassifierTask task(tc);
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  expect_reports_identical(sweep(task, serial), sweep(task, parallel));
}

}  // namespace
}  // namespace sysnoise::core
