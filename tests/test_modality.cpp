// Tests of the modality ports (Tables 5/10 on the plan->execute->merge
// stack): the NLP and TTS StagedEvalTask adapters match their legacy
// monolithic scoring loops bit-identically, the staged engine matches the
// plain thread pool on their plans, preprocess keys are injective over the
// new modality axes' option grids, trait gating keeps image-only axes away
// from NLP/TTS plans (and fails loudly when nothing applies), dist loopback
// reproduces the single-process reports byte-for-byte, and the knob
// registry stays the complete single source of truth for describe()/JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "audio/eval_task.h"
#include "audio/tts.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/report.h"
#include "core/staged_eval.h"
#include "core/sweep.h"
#include "core/synthetic_task.h"
#include "data/noise_config.h"
#include "dist/task_factory.h"
#include "dist/worker.h"
#include "nlp/eval_task.h"
#include "nlp/lm.h"
#include "nlp/tasks.h"
#include "tests/dist_loopback.h"
#include "util/json.h"

namespace sysnoise {
namespace {

using core::AxisRegistry;
using core::MetricMap;
using core::SweepPlan;

// Small deterministically-trained substrates shared across the tests in
// this file (function-local statics: one training each for the whole
// binary). The weights don't need to be the bench's — the identities under
// test hold for any trained model — so train briefly.
nlp::TrainedLm& shared_lm() {
  static nlp::TrainedLm tlm = [] {
    nlp::TrainedLm out;
    out.name = "OPT-125M-mini";
    const auto corpus = nlp::make_lm_corpus(80, 13);
    Rng rng(6);
    out.lm = std::make_unique<nlp::CausalLm>(nlp::opt_mini_zoo()[0],
                                             nlp::kVocab, rng);
    nlp::train_lm(*out.lm, corpus, /*epochs=*/2, 2e-3f);
    nlp::calibrate_lm(*out.lm, corpus, out.ranges);
    return out;
  }();
  return tlm;
}

audio::TrainedTts& shared_tts() {
  static audio::TrainedTts tt = [] {
    audio::TrainedTts out;
    out.name = "FastSpeech-mini";
    audio::TtsDatasetSpec spec;
    spec.train_items = 16;
    spec.eval_items = 6;
    out.ds = audio::make_tts_dataset(spec);
    Rng rng(9);
    out.model = audio::make_tts_model("FastSpeech-mini", out.ds, rng);
    audio::train_tts(*out.model, out.ds, /*epochs=*/4, 2e-3f);
    audio::calibrate_tts(*out.model, out.ds, out.ranges);
    return out;
  }();
  return tt;
}

// Runs the plan through an in-process sweep service + `workers` loopback
// workers resolving every spec to `task`, exactly like test_dist.
MetricMap loopback_metrics(const core::EvalTask& task, const SweepPlan& plan,
                           int workers) {
  loopback::Loopback lb(loopback::fast_options(std::chrono::seconds(5)));
  lb.add_workers(workers, loopback::fixed_resolver(task));
  const MetricMap metrics = lb.run(plan);
  for (const dist::WorkerRunStats& w : lb.stop()) {
    EXPECT_TRUE(w.done);
    EXPECT_TRUE(w.error.empty()) << w.error;
  }
  return metrics;
}

// ---------------------------------------------------------------------------
// staged == monolithic bit-identity
// ---------------------------------------------------------------------------

TEST(NlpStaged, EvaluateMatchesMonolithicScoringLoop) {
  nlp::TrainedLm& tlm = shared_lm();
  const nlp::NlpChoiceTask task(tlm, nlp::TaskKind::kPiqa);
  // The legacy Table 5 loop: retokenize each item under the deployment
  // tokenizer, score both continuations under the config's inference knobs.
  const auto items = nlp::make_task_items(nlp::TaskKind::kPiqa, 120, 9000);
  const auto monolithic = [&](const SysNoiseConfig& cfg) {
    const int limit = tokenizer_profile_symbol_limit(cfg.tokenizer);
    const nn::InferenceCtx ctx = cfg.inference_ctx(&tlm.ranges);
    int correct = 0;
    for (const nlp::ChoiceItem& item : items) {
      const nlp::ChoiceItem r = nlp::retokenize(item, limit);
      const double sc = tlm.lm->score_continuation(r.context, r.correct, ctx);
      const double sw = tlm.lm->score_continuation(r.context, r.wrong, ctx);
      correct += sc > sw;
    }
    return 100.0 * correct / static_cast<double>(items.size());
  };

  std::vector<SysNoiseConfig> cfgs(3);
  cfgs[1].tokenizer = TokenizerProfile::kTrunc8;
  cfgs[2].tokenizer = TokenizerProfile::kTrunc12;
  cfgs[2].precision = nn::Precision::kINT8;
  for (const SysNoiseConfig& cfg : cfgs)
    EXPECT_EQ(task.evaluate(cfg), monolithic(cfg)) << cfg.describe();
}

TEST(TtsStaged, EvaluateMatchesSystemDiscrepancy) {
  audio::TrainedTts& tt = shared_tts();
  const audio::TtsTask task(tt);

  SysNoiseConfig clean;
  EXPECT_EQ(task.evaluate(clean), 0.0);  // deployment == training exactly

  std::vector<SysNoiseConfig> cfgs(5);
  cfgs[0].stft_impl = audio::StftImpl::kFastFixed;
  cfgs[1].resample_ratio = 0.5f;
  cfgs[2].stft_window = 48;
  cfgs[2].stft_hop = 16;
  cfgs[3].precision = nn::Precision::kINT8;
  cfgs[4].precision = nn::Precision::kINT8;
  cfgs[4].stft_impl = audio::StftImpl::kFastFixed;
  cfgs[4].resample_ratio = 0.75f;
  for (const SysNoiseConfig& cfg : cfgs)
    EXPECT_EQ(task.evaluate(cfg),
              audio::tts_system_discrepancy(*tt.model, tt.ds, cfg, &tt.ranges))
        << cfg.describe();
}

TEST(ModalityStaged, StagedExecutorMatchesThreadPoolOnNlpAndTtsPlans) {
  nlp::NlpChoiceTask nlp_task(shared_lm(), nlp::TaskKind::kLambada);
  const SweepPlan nlp_plan = core::plan_sweep(nlp_task, AxisRegistry::global());
  EXPECT_EQ(core::StagedExecutor().execute(nlp_task, nlp_plan),
            core::ThreadPoolExecutor().execute(nlp_task, nlp_plan));

  audio::TtsTask tts_task(shared_tts());
  const SweepPlan tts_plan = core::plan_sweep(tts_task, AxisRegistry::global());
  EXPECT_EQ(core::StagedExecutor().execute(tts_task, tts_plan),
            core::ThreadPoolExecutor().execute(tts_task, tts_plan));
}

// ---------------------------------------------------------------------------
// preprocess/forward keys over the new axes
// ---------------------------------------------------------------------------

TEST(ModalityKeys, PreprocessKeyInjectiveOverNewAxisOptionGrids) {
  const AxisRegistry& reg = AxisRegistry::global();

  // NLP: every Tokenizer option (plus the training default) gets its own
  // preprocess key; inference knobs refine forward_key but not the
  // preprocess key.
  const nlp::NlpChoiceTask nlp_task(shared_lm(), nlp::TaskKind::kPiqa);
  const core::NoiseAxis* tok = reg.find("Tokenizer");
  ASSERT_NE(tok, nullptr);
  std::set<std::string> nlp_keys;
  const SysNoiseConfig base;
  nlp_keys.insert(nlp_task.preprocess_key(base));
  for (int o = 0; o < tok->num_options(); ++o) {
    SysNoiseConfig cfg;
    tok->apply(cfg, o);
    EXPECT_TRUE(nlp_keys.insert(nlp_task.preprocess_key(cfg)).second)
        << tok->option_labels[static_cast<std::size_t>(o)];
  }
  EXPECT_EQ(nlp_keys.size(), static_cast<std::size_t>(tok->num_options()) + 1);
  SysNoiseConfig int8 = base;
  int8.precision = nn::Precision::kINT8;
  EXPECT_EQ(nlp_task.preprocess_key(int8), nlp_task.preprocess_key(base));
  EXPECT_NE(nlp_task.forward_key(int8), nlp_task.forward_key(base));

  // TTS: the full Resample x Stft option grid (defaults included) maps to
  // distinct preprocess keys.
  const audio::TtsTask tts_task(shared_tts());
  const core::NoiseAxis* resample = reg.find("Resample");
  const core::NoiseAxis* stft = reg.find("Stft");
  ASSERT_NE(resample, nullptr);
  ASSERT_NE(stft, nullptr);
  std::set<std::string> tts_keys;
  std::size_t combos = 0;
  for (int r = -1; r < resample->num_options(); ++r)
    for (int s = -1; s < stft->num_options(); ++s) {
      SysNoiseConfig cfg;
      if (r >= 0) resample->apply(cfg, r);
      if (s >= 0) stft->apply(cfg, s);
      EXPECT_TRUE(tts_keys.insert(tts_task.preprocess_key(cfg)).second)
          << "r=" << r << " s=" << s;
      ++combos;
    }
  EXPECT_EQ(tts_keys.size(), combos);
  EXPECT_EQ(tts_task.preprocess_key(int8), tts_task.preprocess_key(base));
  EXPECT_NE(tts_task.forward_key(int8), tts_task.forward_key(base));
}

// ---------------------------------------------------------------------------
// trait gating
// ---------------------------------------------------------------------------

TEST(TraitGating, ModalityPlansCarryOnlyApplicableAxes) {
  const core::SyntheticStagedTask nlp_task(core::TaskKind::kNlp, false);
  const core::SyntheticStagedTask tts_task(core::TaskKind::kTts, false);
  const core::SyntheticStagedTask img_task(core::TaskKind::kClassification,
                                           true);

  const auto axis_names = [](const SweepPlan& plan) {
    std::set<std::string> names;
    for (const core::PlanAxis& a : plan.axes) names.insert(a.name);
    return names;
  };

  const auto nlp_axes =
      axis_names(core::plan_sweep(nlp_task, AxisRegistry::global()));
  EXPECT_EQ(nlp_axes,
            (std::set<std::string>{"Precision", "Backend", "Tokenizer"}));

  const auto tts_axes =
      axis_names(core::plan_sweep(tts_task, AxisRegistry::global()));
  EXPECT_EQ(tts_axes, (std::set<std::string>{"Precision", "Backend",
                                             "Resample", "Stft"}));

  // Image plans gained nothing from the modality axes.
  const auto img_axes =
      axis_names(core::plan_sweep(img_task, AxisRegistry::global()));
  for (const char* name : {"Tokenizer", "Resample", "Stft"})
    EXPECT_EQ(img_axes.count(name), 0u) << name;
  EXPECT_EQ(img_axes.count("Decode"), 1u);
}

TEST(TraitGating, ImageOnlyRegistryAgainstNlpTaskFailsLoudly) {
  AxisRegistry image_only;
  image_only.add(*AxisRegistry::global().find("Decode"));
  image_only.add(*AxisRegistry::global().find("Resize"));

  const core::SyntheticStagedTask nlp_task(core::TaskKind::kNlp, false);
  EXPECT_THROW(core::plan_sweep(nlp_task, image_only), std::invalid_argument);
  EXPECT_THROW(core::plan_stepwise(nlp_task, image_only),
               std::invalid_argument);

  // Symmetric: a modality-only registry cannot plan against a vision task.
  AxisRegistry audio_only;
  audio_only.add(*AxisRegistry::global().find("Stft"));
  const core::SyntheticStagedTask img_task(core::TaskKind::kClassification,
                                           true);
  EXPECT_THROW(core::plan_sweep(img_task, audio_only), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// dist: task specs + loopback byte-identity on the table 5/10 plans
// ---------------------------------------------------------------------------

TEST(DistModality, NlpAndTtsTaskSpecsRoundTrip) {
  const dist::TaskSpec nlp =
      dist::TaskSpec::from_json(dist::nlp_spec("OPT-125M-mini",
                                               "PIQA-like").to_json());
  EXPECT_EQ(nlp.kind, core::task_kind_name(core::TaskKind::kNlp));
  EXPECT_EQ(nlp.model, "OPT-125M-mini");
  EXPECT_EQ(nlp.tag, "PIQA-like");
  EXPECT_FALSE(nlp.seed_baseline);

  const dist::TaskSpec tts =
      dist::TaskSpec::from_json(dist::tts_spec("Tacotron-mini").to_json());
  EXPECT_EQ(tts.kind, core::task_kind_name(core::TaskKind::kTts));
  EXPECT_EQ(tts.model, "Tacotron-mini");
}

TEST(DistModality, LoopbackByteIdenticalForOneAndTwoWorkers) {
  nlp::NlpChoiceTask nlp_task(shared_lm(), nlp::TaskKind::kPiqa);
  audio::TtsTask tts_task(shared_tts());

  const struct {
    const core::EvalTask* task;
    const char* metric;
  } cases[] = {{&nlp_task, "ACC"}, {&tts_task, "MSE"}};
  for (const auto& c : cases) {
    const SweepPlan plan = core::plan_sweep(*c.task, AxisRegistry::global());
    const MetricMap expected = core::StagedExecutor().execute(*c.task, plan);
    const core::AxisReport want = core::assemble_report(plan, expected);
    for (const int workers : {1, 2}) {
      const MetricMap got = loopback_metrics(*c.task, plan, workers);
      EXPECT_EQ(got, expected) << c.task->name() << " x" << workers;
      // Byte-identical to the rendered artifacts, the CI diff contract.
      const core::AxisReport report = core::assemble_report(plan, got);
      EXPECT_EQ(core::render_axis_table({want}, c.metric),
                core::render_axis_table({report}, c.metric));
      EXPECT_EQ(core::axis_report_csv({want}),
                core::axis_report_csv({report}));
    }
  }
}

// ---------------------------------------------------------------------------
// knob registry: the single source of truth stays complete
// ---------------------------------------------------------------------------

TEST(KnobRegistry, CoversEveryKnobExactlyOnceInEverySurface) {
  const auto& reg = knob_registry();
  EXPECT_EQ(reg.size(), 16u);  // bump when SysNoiseConfig gains a knob

  const std::set<std::string> groups = {"pre", "inference", "post", "nlp",
                                        "audio"};
  std::set<std::string> json_keys, describe_keys;
  for (const KnobInfo& k : reg) {
    EXPECT_EQ(groups.count(k.group), 1u) << k.json_key;
    EXPECT_TRUE(json_keys.insert(k.json_key).second) << k.json_key;
    EXPECT_TRUE(describe_keys.insert(k.describe_key).second) << k.describe_key;
  }

  // describe() renders one "key=value" segment per registry entry...
  const SysNoiseConfig cfg;
  const std::string d = cfg.describe();
  EXPECT_EQ(static_cast<std::size_t>(std::count(d.begin(), d.end(), '=')),
            reg.size());
  for (const KnobInfo& k : reg)
    EXPECT_NE(d.find(std::string(k.describe_key) + "="), std::string::npos)
        << k.describe_key;

  // ...and to_json() one field per entry, no extras.
  const util::Json j = cfg.to_json();
  EXPECT_EQ(j.items().size(), reg.size());
  for (const KnobInfo& k : reg) EXPECT_NE(j.get(k.json_key), nullptr);
}

TEST(KnobRegistry, AllKnobsFlippedRoundTripLosslessly) {
  SysNoiseConfig c;
  c.decoder = decoder_noise_options().front();
  c.resize = resize_noise_options().front();
  c.crop_fraction = crop_noise_options().front();
  c.color = color_noise_options().front();
  c.norm = norm_noise_options().front();
  c.layout = layout_noise_options().front();
  c.precision = nn::Precision::kINT8;
  c.ceil_mode = true;
  c.upsample = nn::UpsampleMode::kBilinear;
  c.backend = backend_noise_options().front();
  c.proposal_offset = 1.0f;
  c.tokenizer = tokenizer_noise_options().front();
  c.resample_ratio = resample_noise_options().front();
  c.stft_impl = audio::StftImpl::kFastFixed;
  c.stft_window = 48;
  c.stft_hop = 16;

  const SysNoiseConfig back = SysNoiseConfig::from_json(c.to_json());
  EXPECT_EQ(back.describe(), c.describe());
  EXPECT_EQ(back.to_json().dump(), c.to_json().dump());
}

TEST(KnobRegistry, LegacyJsonWithoutModalityKnobsStillParses) {
  // A plan serialized before the modality (and other legacy_optional) knobs
  // existed must still load, defaulting the missing fields.
  const util::Json full = SysNoiseConfig().to_json();
  util::Json legacy = util::Json::object();
  for (const auto& [key, value] : full.items()) {
    const auto& reg = knob_registry();
    const auto it =
        std::find_if(reg.begin(), reg.end(),
                     [&](const KnobInfo& k) { return key == k.json_key; });
    ASSERT_NE(it, reg.end()) << key;
    if (!it->legacy_optional) legacy.set(key, value);
  }
  ASSERT_LT(legacy.items().size(), full.items().size());
  const SysNoiseConfig c = SysNoiseConfig::from_json(legacy);
  EXPECT_EQ(c.describe(), SysNoiseConfig().describe());
}

}  // namespace
}  // namespace sysnoise
