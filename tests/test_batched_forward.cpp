// Tests of the cross-config batched forward engine, which only a task that
// opts in through forward_batch_key uses (here SyntheticStagedTask with a
// per-invocation overhead): batched-vs-unbatched bit-identity with
// invocation accounting (including the kMaxForwardBatch cap), the work-unit
// merge under the same cap, and batched forwards flowing through the
// distributed runtime — both the in-process loopback and the DistExecutor
// seam. Also the zoo's one-config eval loops against verbatim seed loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/executor.h"
#include "core/plan.h"
#include "core/staged_eval.h"
#include "core/synthetic_task.h"
#include "core/sweep.h"
#include "dist/worker.h"
#include "models/eval_tasks.h"
#include "models/train.h"
#include "models/zoo.h"
#include "seg/miou.h"
#include "svc/dist_executor.h"
#include "tests/dist_loopback.h"
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
    ASSERT_EQ(a.axes[i].options.size(), b.axes[i].options.size());
    for (std::size_t j = 0; j < a.axes[i].options.size(); ++j)
      EXPECT_EQ(a.axes[i].options[j].delta, b.axes[i].options[j].delta)
          << a.axes[i].axis << "/" << a.axes[i].options[j].label;
  }
}

// ---------------------------------------------------------------------------
// Synthetic: bit-identity + invocation accounting
// ---------------------------------------------------------------------------

TEST(BatchedForward, SyntheticSweepBitIdenticalWithFewerInvocationsPerKind) {
  for (const TaskKind kind :
       {TaskKind::kClassification, TaskKind::kDetection,
        TaskKind::kSegmentation}) {
    const SyntheticStagedTask task(kind, true, 2, 2, 1,
                                   /*fwd_overhead_rounds=*/3);
    SweepOptions off;
    off.batch_forwards = false;
    StageStats stats_off;
    const AxisReport unbatched = sweep(task, off, &stats_off);
    const int invocations_unbatched = task.fwd_invocations();
    EXPECT_EQ(task.fwd_batched_calls(), 0);
    EXPECT_EQ(stats_off.batched_forward_calls,
              static_cast<std::size_t>(invocations_unbatched));
    // Multi-group-only accounting: no cross-config stack ever formed, so
    // the batching-evidence stats must stay zero even for multi-member
    // forward groups (stage sharing is not batching).
    EXPECT_EQ(stats_off.batched_forward_configs, 0u);
    EXPECT_EQ(stats_off.max_configs_per_batch, 0u);

    task.reset();
    StageStats stats_on;
    const AxisReport batched = sweep(task, {}, &stats_on);
    expect_reports_identical(unbatched, batched);
    EXPECT_GT(task.fwd_batched_calls(), 0) << static_cast<int>(kind);
    EXPECT_LT(task.fwd_invocations(), invocations_unbatched);
    EXPECT_EQ(stats_on.batched_forward_calls,
              static_cast<std::size_t>(task.fwd_invocations()));
    EXPECT_LT(stats_on.batched_forward_calls, stats_on.evaluations);
    EXPECT_GT(stats_on.max_configs_per_batch, 1u);
    EXPECT_GT(stats_on.batched_forward_configs, 0u);
    // Batching never changes what is computed, only how often the network
    // is entered: per-group product counts stay put.
    EXPECT_EQ(stats_on.forward_misses, stats_off.forward_misses);
    EXPECT_EQ(stats_on.forward_computed, stats_off.forward_computed);
  }
}

// Forward-key groups per forward suffix (inference knobs) in a plan: the
// groups a batching task may stack together.
std::map<std::string, std::size_t> groups_per_suffix(const SweepPlan& plan) {
  std::map<std::string, std::set<std::string>> fwd_keys;
  for (const PlannedConfig& p : plan.configs)
    fwd_keys[planned_forward_suffix(p)].insert(p.forward_key);
  std::map<std::string, std::size_t> out;
  for (const auto& [suffix, keys] : fwd_keys) out[suffix] = keys.size();
  return out;
}

TEST(BatchedForward, MaxForwardBatchCapsInvocationSizeAndKeepsIdentity) {
  const SyntheticStagedTask task(TaskKind::kDetection, true, 2, 2, 1, 3);
  SweepOptions off;
  off.batch_forwards = false;
  const AxisReport expected = sweep(task, off);

  // The default inference knobs are shared by more than kMaxForwardBatch
  // pre-processing variants, so the cap must split them.
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  std::size_t want_invocations = 0, widest = 0;
  for (const auto& [suffix, n] : groups_per_suffix(plan)) {
    want_invocations += (n + kMaxForwardBatch - 1) / kMaxForwardBatch;
    widest = std::max(widest, n);
  }
  ASSERT_GT(widest, kMaxForwardBatch);

  task.reset();
  StageStats stats;
  expect_reports_identical(expected, sweep(task, {}, &stats));
  // Greedy fill per batch key: ceil(groups / cap) invocations per suffix.
  EXPECT_EQ(static_cast<std::size_t>(task.fwd_invocations()),
            want_invocations);
  EXPECT_EQ(stats.batched_forward_calls, want_invocations);
  EXPECT_GT(task.fwd_batched_calls(), 0);
}

TEST(BatchedForward, StepwiseSharesBatchedForwardsToo) {
  const SyntheticStagedTask task(TaskKind::kSegmentation, false, 2, 2, 1, 3);
  SweepOptions off;
  off.batch_forwards = false;
  const auto expected = stepwise(task, off);
  task.reset();
  const auto batched = stepwise(task, {});
  ASSERT_EQ(expected.size(), batched.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].step, batched[i].step);
    EXPECT_EQ(expected[i].delta, batched[i].delta);
  }
}

// ---------------------------------------------------------------------------
// Work-unit merge (the plan seam the distributed runtime leases through)
// ---------------------------------------------------------------------------

TEST(BatchedForward, WorkUnitMergeGroupsCompatibleUnitsAndKeepsThePartition) {
  const SyntheticStagedTask task(TaskKind::kDetection, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  const auto units = plan_work_units(plan);

  // Still an exact partition of the config indices.
  std::set<std::size_t> seen;
  for (const auto& unit : units)
    for (const std::size_t i : unit) {
      EXPECT_LT(i, plan.configs.size());
      EXPECT_TRUE(seen.insert(i).second) << "index leased twice: " << i;
    }
  EXPECT_EQ(seen.size(), plan.configs.size());

  // Each unit mixes one forward suffix and at most kMaxForwardBatch forward
  // keys, and the merge is as coarse as that cap allows: one unit per
  // ceil(groups / cap) of each suffix, as the executor stacks them.
  std::size_t want_units = 0;
  for (const auto& [suffix, n] : groups_per_suffix(plan))
    want_units += (n + kMaxForwardBatch - 1) / kMaxForwardBatch;
  EXPECT_EQ(units.size(), want_units);
  for (const auto& unit : units) {
    std::set<std::string> suffixes, fwd_keys;
    for (const std::size_t i : unit) {
      suffixes.insert(planned_forward_suffix(plan.configs[i]));
      fwd_keys.insert(plan.configs[i].forward_key);
    }
    EXPECT_EQ(suffixes.size(), 1u);
    EXPECT_LE(fwd_keys.size(), kMaxForwardBatch);
  }
}

TEST(BatchedForward, PlannedForwardSuffixStripsThePreprocessPrefix) {
  const SyntheticStagedTask task(TaskKind::kClassification, true);
  const SweepPlan plan = plan_sweep(task, AxisRegistry::global());
  for (const PlannedConfig& p : plan.configs) {
    const std::string suffix = planned_forward_suffix(p);
    ASSERT_FALSE(suffix.empty());
    EXPECT_EQ(p.preprocess_key + suffix, p.forward_key);
    EXPECT_EQ(suffix, forward_key_suffix(p.cfg));
  }
  PlannedConfig bare;  // non-staged configs carry no stage keys -> no suffix
  EXPECT_EQ(planned_forward_suffix(bare), "");
}

}  // namespace
}  // namespace sysnoise::core

// ---------------------------------------------------------------------------
// Real zoo models: the one-config eval loops against bytewise oracles, the
// seed's eval loops (verbatim bodies, renamed seed_*).
// ---------------------------------------------------------------------------

namespace sysnoise::models {
namespace {

using nn::ActRanges;
using nn::BnMode;
using nn::Node;
using nn::Tape;

double seed_cls_eval_loop(Classifier& model,
                          const PreprocessedBatches& batches,
                          const std::vector<data::ClsSample>& eval,
                          const SysNoiseConfig& cfg, ActRanges* ranges) {
  const int n = batches.num_samples;
  int correct = 0, b = 0;
  for (const Tensor& input : batches.inputs) {
    const int bs = input.dim(0);
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    for (int i = 0; i < bs; ++i) {
      int best = 0;
      for (int c = 1; c < logits->value.dim(1); ++c)
        if (logits->value.at2(i, c) > logits->value.at2(i, best)) best = c;
      if (best == eval[static_cast<std::size_t>(b + i)].label) ++correct;
    }
    b += bs;
  }
  return 100.0 * correct / std::max(1, n);
}

RawDetections seed_det_forward_loop(Detector& model,
                                    const PreprocessedBatches& batches,
                                    const SysNoiseConfig& cfg,
                                    ActRanges* ranges) {
  RawDetections raw;
  raw.batches.reserve(batches.inputs.size());
  for (const Tensor& input : batches.inputs) {
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    DetectorOutput out = model.forward(t, t.input(input), BnMode::kEval);
    raw.batches.push_back(detach_detector_output(out));
  }
  return raw;
}

double seed_seg_eval_loop(Segmenter& model,
                          const PreprocessedBatches& batches,
                          const data::SegDataset& ds,
                          const SysNoiseConfig& cfg, ActRanges* ranges) {
  std::vector<int> all_pred, all_gt;
  std::size_t sample = 0;
  for (const Tensor& input : batches.inputs) {
    const int bs = input.dim(0);
    Tape t;
    t.ctx = cfg.inference_ctx(ranges);
    Node* logits = model.forward(t, t.input(input), BnMode::kEval);
    const int c = logits->value.dim(1), h = logits->value.dim(2),
              w = logits->value.dim(3);
    for (int i = 0; i < bs; ++i) {
      for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
          int best = 0;
          for (int cc = 1; cc < c; ++cc)
            if (logits->value.at4(i, cc, y, x) > logits->value.at4(i, best, y, x))
              best = cc;
          all_pred.push_back(best);
        }
      const auto& mask = ds.eval[sample++].mask;
      all_gt.insert(all_gt.end(), mask.begin(), mask.end());
    }
  }
  return 100.0 * seg::mean_iou(all_pred, all_gt, ds.num_classes);
}

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Stage-1 batches of every sample's JPEG under `cfg`, `bs` per batch.
template <class Sample>
PreprocessedBatches batches_of(const std::vector<Sample>& samples,
                               const SysNoiseConfig& cfg,
                               const PipelineSpec& spec, int bs) {
  std::vector<const std::vector<std::uint8_t>*> jpegs;
  for (const Sample& s : samples) jpegs.push_back(&s.jpeg);
  return preprocess_batches(jpegs, cfg, spec, bs);
}

TEST(EvalLoops, MatchSeedLoopsForOddAndSingletonBatches) {
  SysNoiseConfig a = SysNoiseConfig::training_default();
  SysNoiseConfig b = a;
  b.resize = ResizeMethod::kOpenCVNearest;
  SysNoiseConfig c = a;
  c.norm = NormStats::kHalfHalf;
  const std::vector<const SysNoiseConfig*> cfgs = {&a, &b, &c};

  // Batch size 1 runs singletons; the others leave short tails (cls 200
  // = 66x3+2, det 40 = 13x3+1, seg 30 = 4x7+2) or are the production
  // layout. Every layout must reproduce the seed loops bytewise for each
  // config (the production eval_* / run_forward call).
  auto tc = models::get_classifier("MCUNet");
  const auto& cls_eval = models::benchmark_cls_dataset().eval;
  for (const int bs : {1, 3, 16})
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const auto pre =
          batches_of(cls_eval, *cfgs[i], models::cls_pipeline_spec(), bs);
      EXPECT_TRUE(same_bytes(
          models::eval_classifier_batches(*tc.model, pre, cls_eval, *cfgs[i],
                                          &tc.ranges),
          seed_cls_eval_loop(*tc.model, pre, cls_eval, *cfgs[i], &tc.ranges)))
          << "cls bs " << bs << " cfg " << i;
    }

  auto td = models::get_detector("RetinaNet-MobileNet");
  const auto& det = models::benchmark_det_dataset();
  for (const int bs : {1, 3, 8})
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const auto pre =
          batches_of(det.eval, *cfgs[i], models::det_pipeline_spec(), bs);
      // The disk-cache encoding carries every level's shape and bytes.
      EXPECT_EQ(models::encode_raw_detections(models::detector_forward_batches(
                    *td.model, pre, *cfgs[i], &td.ranges)),
                models::encode_raw_detections(seed_det_forward_loop(
                    *td.model, pre, *cfgs[i], &td.ranges)))
          << "det bs " << bs << " cfg " << i;
    }

  auto ts = models::get_segmenter("UNet");
  const auto& seg = models::benchmark_seg_dataset();
  for (const int bs : {1, 4, 7})
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
      const auto pre =
          batches_of(seg.eval, *cfgs[i], models::seg_pipeline_spec(), bs);
      EXPECT_TRUE(same_bytes(
          models::eval_segmenter_batches(*ts.model, pre, seg, *cfgs[i],
                                         &ts.ranges),
          seed_seg_eval_loop(*ts.model, pre, seg, *cfgs[i], &ts.ranges)))
          << "seg bs " << bs << " cfg " << i;
    }
}

}  // namespace
}  // namespace sysnoise::models

// ---------------------------------------------------------------------------
// Distributed runtime: batched forwards ride merged leases
// ---------------------------------------------------------------------------

namespace sysnoise::dist {
namespace {

using core::AxisRegistry;
using core::AxisReport;
using core::MetricMap;
using core::SweepPlan;
using core::SyntheticStagedTask;
using core::TaskKind;
using core::expect_reports_identical;

using loopback::fixed_resolver;

TEST(BatchedDist, LoopbackWorkersBatchForwardsAndStayBitIdentical) {
  const SyntheticStagedTask task(TaskKind::kDetection, true, 2, 2, 1,
                                 /*fwd_overhead_rounds=*/3);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const AxisReport expected = core::assemble_report(
      plan, core::ThreadPoolExecutor().execute(task, plan));

  for (const int workers : {1, 2}) {
    task.reset();
    loopback::Loopback lb;
    lb.add_workers(workers, fixed_resolver(task));
    expect_reports_identical(expected,
                             core::assemble_report(plan, lb.run(plan)));
    lb.stop();
    // The service leases batch-compatible forward groups together, so the
    // workers' StagedExecutors stacked them through batched calls.
    EXPECT_GT(task.fwd_batched_calls(), 0) << workers << " workers";
  }
}

TEST(BatchedDist, DistExecutorBatchesBehindTheExecutorSeam) {
  const SyntheticStagedTask task(TaskKind::kClassification, true, 2, 2, 1, 3);
  const SweepPlan plan = core::plan_sweep(task, AxisRegistry::global());
  const MetricMap expected = core::ThreadPoolExecutor().execute(task, plan);

  task.reset();
  loopback::Loopback lb;
  lb.add_worker(fixed_resolver(task));
  const svc::DistExecutor executor(lb.client_options(), util::Json::object());
  const MetricMap metrics = executor.execute(task, plan);
  lb.stop();
  EXPECT_EQ(metrics, expected);
  EXPECT_GT(task.fwd_batched_calls(), 0);
}

}  // namespace
}  // namespace sysnoise::dist
