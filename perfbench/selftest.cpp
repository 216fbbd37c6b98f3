// Self-test of the benchmark's own measurement code: the percentile helper,
// and the decorators' promise that timing a layer never changes its output.
// Exits non-zero on the first failed check; run.py runs it after each build.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/axis.h"
#include "core/executor.h"
#include "core/plan.h"
#include "core/synthetic_task.h"
#include "layers.h"
#include "percentile.h"
#include "serve/serving_model.h"

namespace {

int g_checks = 0;

void check(bool ok, const std::string& what) {
  ++g_checks;
  if (ok) return;
  std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what.c_str());
  std::exit(1);
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  using perfbench::Percentiles;
  // Nearest rank: p99 of 1..1000 is the 990th value, with exactly 10 beyond.
  const Percentiles p1000(one_to(1000));
  check(p1000.count() == 1000, "count");
  check(p1000.rank(0.99) == 990, "p99 rank of 1000 samples is 990");
  check(p1000.beyond(0.99) == 10, "10 samples beyond p99 of 1000");
  check(p1000.at(0.99).value_or(-1) == 990.0, "p99 of 1..1000");
  check(p1000.at(0.5).value_or(-1) == 500.0, "p50 of 1..1000");
  check(!p1000.at(0.999).has_value(), "p99.9 withheld at 1000 samples");

  // One sample fewer and p99 has only 9 beyond it: withheld.
  const Percentiles p999(one_to(999));
  check(!p999.at(0.99).has_value(), "p99 withheld at 999 samples");
  check(p999.at_or(0.99, -7.0) == -7.0, "at_or falls back when withheld");

  // p50 needs 20 samples (10 beyond rank 10).
  check(Percentiles(one_to(20)).at(0.5).value_or(-1) == 10.0, "p50 of 20");
  check(!Percentiles(one_to(19)).at(0.5).has_value(), "p50 withheld at 19");
  check(!Percentiles(std::vector<double>{}).at(0.5).has_value(),
        "empty set reports nothing");

  // The JSON form states the count and only reportable percentiles.
  const sysnoise::util::Json j = p1000.to_json();
  check(j.at("count").as_int() == 1000, "json count");
  check(j.get("p99") != nullptr && j.at("p99").as_number() == 990.0,
        "json p99");
  check(p999.to_json().get("p99") == nullptr, "json omits a withheld p99");

  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median odd");
  check(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median even");
}

void test_timed_task() {
  using namespace sysnoise;
  // Forward overhead > 0 makes the synthetic task batch-compatible, so the
  // batched path is exercised too.
  const core::SyntheticStagedTask raw(core::TaskKind::kDetection, true, 1, 1,
                                      1, 4);
  perfbench::TaskLayers layers;
  const perfbench::TimedTask timed(raw, layers);
  const core::SweepPlan plan =
      core::plan_sweep(timed, core::AxisRegistry::global());
  core::SweepOptions opts;
  opts.threads = 3;
  const core::MetricMap want = core::StagedExecutor().execute(raw, plan, opts);
  const core::MetricMap got = core::StagedExecutor().execute(timed, plan, opts);
  check(got == want, "decorated staged sweep is bit-identical");
  check(layers.preprocess.calls.load() > 0, "preprocess calls counted");
  check(layers.forward.calls.load() > 0 &&
            layers.forward.items.load() > layers.forward.calls.load(),
        "batched forward calls and their configs counted");
  check(layers.postprocess.calls.load() ==
            layers.detect_postprocess.calls.load(),
        "detection postprocess attributed");
  check(core::SweepCache::key_for(timed, SysNoiseConfig::training_default()) ==
            core::SweepCache::key_for(raw, SysNoiseConfig::training_default()),
        "decorator keeps the cache identity");
}

void test_recording_model() {
  using namespace sysnoise;
  const serve::SyntheticServingModel inner(/*num_samples=*/5);
  std::vector<int> reference = inner.predict({0, 1, 2, 3, 4});
  perfbench::RecordingModel rec(inner, reference);
  rec.begin({4, 4, 1}, perfbench::Clock::now());
  check(rec.num_samples() == 3, "one id per request");
  const std::vector<int> preds = rec.predict({2, 0});
  check(preds.size() == 2 && preds[0] == reference[1] &&
            preds[1] == reference[4],
        "ids map back to samples");
  check(rec.done_ms(0) >= 0 && rec.done_ms(2) >= 0 && rec.done_ms(1) < 0,
        "completion stamped for served ids only");
  for (int p = 0; p < 10; ++p)
    check(rec.correct(0, p) == inner.correct(4, p), "correct() maps ids");
  check(rec.mismatches() == 0, "no mismatch against the reference");

  reference[4] = reference[4] + 1;  // a reference the model cannot match
  perfbench::RecordingModel wrong(inner, reference);
  wrong.begin({4}, perfbench::Clock::now());
  wrong.predict({0});
  check(wrong.mismatches() == 1, "a wrong prediction is counted");
}

}  // namespace

int main() {
  test_percentiles();
  test_timed_task();
  test_recording_model();
  std::printf("perfbench_selftest: %d checks passed\n", g_checks);
  return 0;
}
