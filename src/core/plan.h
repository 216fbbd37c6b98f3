// The plan half of the plan -> execute -> merge measurement lifecycle.
//
// A SweepPlan is a first-class, JSON-serializable value describing every
// deployment config a sweep (Tables 2-4) or stepwise accumulation (Fig. 3)
// will evaluate, in evaluation order, together with the axis metadata
// needed to assemble the final AxisReport / step curve WITHOUT access to an
// AxisRegistry or the task itself. Making the plan a value is what unlocks
// everything "beyond one process": a plan can be emitted by one binary,
// deterministically partitioned into i/N shards executed on different
// machines (core/executor.h), and the partial metric maps merged back into
// a report bit-identical to the single-process run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "util/json.h"

namespace sysnoise::core {

// metric_key -> metric, keyed exactly like SweepCache (task identity +
// cfg.describe()). The unit executors produce and merges consume.
using MetricMap = std::map<std::string, double>;

// Axis metadata captured into the plan so report assembly is registry-free.
struct PlanAxis {
  std::string name;  // NoiseAxis::name (table header)
  std::string key;   // NoiseAxis::key (machine/CSV key)
  bool per_option = false;
  std::vector<std::string> option_labels;
};

// One planned evaluation: the config plus why it is in the plan.
struct PlannedConfig {
  enum class Role {
    kBaseline,  // the training-default config (report.trained)
    kOption,    // option `option` of axes[axis]
    kCombined,  // the all-noises Combined config
    kStep,      // one Fig. 3 cumulative step
  };
  Role role = Role::kBaseline;
  int axis = -1;      // index into SweepPlan::axes (kOption only)
  int option = -1;    // option index within that axis (kOption only)
  std::string label;  // option label / step label ("" for baseline/combined)
  std::string metric_key;      // SweepCache key for this evaluation
  std::string preprocess_key;  // stage-1 key ("" for non-staged tasks)
  std::string forward_key;     // stage-2 key ("" for non-staged tasks)
  SysNoiseConfig cfg;
};

const char* planned_role_name(PlannedConfig::Role r);
PlannedConfig::Role planned_role_from_name(const std::string& name);

struct SweepPlan {
  enum class Kind { kSweep, kStepwise };

  Kind kind = Kind::kSweep;
  std::string task;           // EvalTask::name() (AxisReport::model)
  std::string task_identity;  // EvalTask::cache_identity()
  std::vector<PlanAxis> axes;
  std::vector<PlannedConfig> configs;  // evaluation order

  // Stable content hash (over the serialized plan) used to verify that
  // shard results being merged were produced from this exact plan.
  std::string fingerprint() const;

  // The deterministic shard partition: config indices i with
  // i % shard_count == shard_index, in plan order.
  std::vector<std::size_t> shard_indices(int shard_index, int shard_count) const;
  // Sub-plan holding only the given configs (axis metadata retained), e.g.
  // one shard's slice. Assembly requires the full plan's metrics, not a
  // slice's.
  SweepPlan slice(const std::vector<std::size_t>& indices) const;

  util::Json to_json() const;
  static SweepPlan from_json(const util::Json& j);
};

// The registry a sweep resolves against: SweepOptions::registry when set,
// the process-global one otherwise. The single source of truth for every
// plan construction site (sweep, stepwise, seeded bench helpers).
const AxisRegistry& registry_or_global(const SweepOptions& opts);

// The planners behind sweep()/stepwise(): the full-table plan is baseline
// + every applicable axis option + Combined; the stepwise plan is baseline
// + one cumulative step per applicable axis.
// When `task` is a StagedEvalTask the per-config stage keys are captured
// into the plan too.
SweepPlan plan_sweep(const EvalTask& task, const AxisRegistry& registry);
SweepPlan plan_stepwise(const EvalTask& task, const AxisRegistry& registry);

// Assemble the final artifacts from a plan plus a metric map covering every
// planned config (throws std::out_of_range on gaps). Given the union of
// shard results, these reproduce the single-process outputs bit-identically.
AxisReport assemble_report(const SweepPlan& plan, const MetricMap& results);
std::vector<StepPoint> assemble_steps(const SweepPlan& plan,
                                      const MetricMap& results);

// The inference-knob suffix of a planned config's forward key (forward_key
// minus its preprocess_key prefix). Staged tasks build forward_key as
// preprocess_key + forward_key_suffix(cfg), so two configs of one plan that
// share this suffix run the same network under the same inference knobs
// over different stage-1 products. Empty for non-staged configs (or keys
// that don't nest).
std::string planned_forward_suffix(const PlannedConfig& p);

// Stage-key-grouped work units: the unit of leasing in the distributed
// runtime (svc/service.h). plan.configs indices are partitioned so that
// configs sharing a forward pass (same forward key — e.g. the detection
// post-processing options) are never split apart, since splitting a
// forward group across workers would re-run its forward pass once per
// worker. Forward groups sharing a planned_forward_suffix are then merged,
// kMaxForwardBatch (core/staged_eval.h) groups at most per unit, so a
// sweep is leased in a few dozen units rather than one per forward key:
// every lease costs a round trip, a journal record and a result merge, and
// the cap keeps units small enough for dynamic balancing. A merged unit
// lands on one worker, whose StagedExecutor runs its groups in parallel
// (and stacks them, for a task that opts into batching). Units are ordered
// so shared preprocess keys stay adjacent. Plans without stage keys
// (non-staged tasks) degrade to one unit per distinct metric key.
std::vector<std::vector<std::size_t>> plan_work_units(const SweepPlan& plan);

}  // namespace sysnoise::core
