#include "core/plan.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/staged_eval.h"

namespace sysnoise::core {

const char* planned_role_name(PlannedConfig::Role r) {
  switch (r) {
    case PlannedConfig::Role::kBaseline: return "baseline";
    case PlannedConfig::Role::kOption: return "option";
    case PlannedConfig::Role::kCombined: return "combined";
    case PlannedConfig::Role::kStep: return "step";
  }
  return "?";
}

PlannedConfig::Role planned_role_from_name(const std::string& name) {
  for (const auto r :
       {PlannedConfig::Role::kBaseline, PlannedConfig::Role::kOption,
        PlannedConfig::Role::kCombined, PlannedConfig::Role::kStep})
    if (name == planned_role_name(r)) return r;
  throw std::invalid_argument("unknown planned-config role \"" + name + "\"");
}

namespace {

PlannedConfig make_planned(const EvalTask& task, PlannedConfig::Role role,
                           SysNoiseConfig cfg) {
  PlannedConfig p;
  p.role = role;
  p.metric_key = SweepCache::key_for(task, cfg);
  if (const auto* staged = dynamic_cast<const StagedEvalTask*>(&task)) {
    p.preprocess_key = staged->preprocess_key(cfg);
    p.forward_key = staged->forward_key(cfg);
  }
  p.cfg = std::move(cfg);
  return p;
}

PlanAxis plan_axis_of(const NoiseAxis& axis) {
  PlanAxis pa;
  pa.name = axis.name;
  pa.key = axis.key;
  pa.per_option = axis.per_option;
  pa.option_labels = axis.option_labels;
  return pa;
}

// A plan with zero applicable axes means the registry and the task belong
// to different modalities (e.g. image-only axes planned against an NLP
// task) — a silent baseline-plus-combined "sweep" would measure nothing, so
// fail loudly instead.
void require_applicable(const EvalTask& task,
                        const std::vector<const NoiseAxis*>& axes) {
  if (axes.empty())
    throw std::invalid_argument(
        std::string("plan: no registered axis applies to task \"") +
        task.name() + "\" (kind " + task_kind_name(task.traits().kind) +
        ") — registry/modality mismatch?");
}

}  // namespace

const AxisRegistry& registry_or_global(const SweepOptions& opts) {
  return opts.registry != nullptr ? *opts.registry : AxisRegistry::global();
}

SweepPlan plan_sweep(const EvalTask& task, const AxisRegistry& registry) {
  const TaskTraits traits = task.traits();
  const SysNoiseConfig base = SysNoiseConfig::training_default();

  SweepPlan plan;
  plan.kind = SweepPlan::Kind::kSweep;
  plan.task = task.name();
  plan.task_identity = task.cache_identity();
  plan.configs.push_back(make_planned(task, PlannedConfig::Role::kBaseline, base));
  const std::vector<const NoiseAxis*> applicable = registry.applicable(traits);
  require_applicable(task, applicable);
  for (const NoiseAxis* axis : applicable) {
    const int axis_index = static_cast<int>(plan.axes.size());
    plan.axes.push_back(plan_axis_of(*axis));
    for (int i = 0; i < axis->num_options(); ++i) {
      SysNoiseConfig cfg = base;
      axis->apply(cfg, i);
      PlannedConfig p =
          make_planned(task, PlannedConfig::Role::kOption, std::move(cfg));
      p.axis = axis_index;
      p.option = i;
      p.label = axis->option_labels[static_cast<std::size_t>(i)];
      plan.configs.push_back(std::move(p));
    }
  }
  plan.configs.push_back(make_planned(task, PlannedConfig::Role::kCombined,
                                      combined_config(traits, registry)));
  return plan;
}

SweepPlan plan_stepwise(const EvalTask& task, const AxisRegistry& registry) {
  const SysNoiseConfig base = SysNoiseConfig::training_default();

  SweepPlan plan;
  plan.kind = SweepPlan::Kind::kStepwise;
  plan.task = task.name();
  plan.task_identity = task.cache_identity();
  plan.configs.push_back(make_planned(task, PlannedConfig::Role::kBaseline, base));
  SysNoiseConfig cfg = base;
  const std::vector<const NoiseAxis*> applicable =
      registry.applicable(task.traits());
  require_applicable(task, applicable);
  for (const NoiseAxis* axis : applicable) {
    plan.axes.push_back(plan_axis_of(*axis));
    axis->apply(cfg, axis->combined_option);
    PlannedConfig p = make_planned(task, PlannedConfig::Role::kStep, cfg);
    p.axis = static_cast<int>(plan.axes.size()) - 1;
    p.option = axis->combined_option;
    p.label = plan.configs.size() == 1 ? axis->step_label
                                       : "+" + axis->step_label;
    plan.configs.push_back(std::move(p));
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Sharding
// ---------------------------------------------------------------------------

std::vector<std::size_t> SweepPlan::shard_indices(int shard_index,
                                                  int shard_count) const {
  if (shard_count <= 0 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("SweepPlan::shard_indices: bad shard " +
                                std::to_string(shard_index) + "/" +
                                std::to_string(shard_count));
  std::vector<std::size_t> out;
  for (std::size_t i = static_cast<std::size_t>(shard_index);
       i < configs.size(); i += static_cast<std::size_t>(shard_count))
    out.push_back(i);
  return out;
}

SweepPlan SweepPlan::slice(const std::vector<std::size_t>& indices) const {
  SweepPlan out;
  out.kind = kind;
  out.task = task;
  out.task_identity = task_identity;
  out.axes = axes;
  out.configs.reserve(indices.size());
  for (const std::size_t i : indices) {
    if (i >= configs.size())
      throw std::out_of_range("SweepPlan::slice: index out of range");
    out.configs.push_back(configs[i]);
  }
  return out;
}

std::string planned_forward_suffix(const PlannedConfig& p) {
  if (p.forward_key.empty() || p.preprocess_key.empty() ||
      p.forward_key.size() <= p.preprocess_key.size() ||
      p.forward_key.compare(0, p.preprocess_key.size(), p.preprocess_key) != 0)
    return std::string();
  return p.forward_key.substr(p.preprocess_key.size());
}

std::vector<std::vector<std::size_t>> plan_work_units(const SweepPlan& plan) {
  struct Unit {
    std::string pre_key;
    std::string suffix;  // planned_forward_suffix ("" = not mergeable)
    std::vector<std::size_t> members;
    std::size_t groups = 1;  // forward-key groups merged into this unit
  };
  std::vector<Unit> units;
  std::map<std::string, std::size_t> unit_of;
  for (std::size_t i = 0; i < plan.configs.size(); ++i) {
    const PlannedConfig& p = plan.configs[i];
    // Duplicate configs share a metric key and always share a forward key,
    // so keying on either lands them in one unit (one evaluation, memoized).
    const std::string& key =
        p.forward_key.empty() ? p.metric_key : p.forward_key;
    const auto it = unit_of.find(key);
    if (it == unit_of.end()) {
      unit_of.emplace(key, units.size());
      units.push_back({p.preprocess_key, planned_forward_suffix(p), {i}});
    } else {
      units[it->second].members.push_back(i);
    }
  }
  // Mirror the staged executor's grouping order: units sharing a stage-1
  // product adjacent, so consecutive leases to one worker (and the disk
  // StageCache) see warm preprocess keys.
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.pre_key < b.pre_key;
                   });
  // Concatenate forward groups sharing a suffix (up to the cap) into one
  // lease; pre-key order within a merged unit is preserved from the sort
  // above.
  std::vector<Unit> merged;
  std::map<std::string, std::size_t> open;  // suffix -> merged index
  for (Unit& u : units) {
    const auto it = u.suffix.empty() ? open.end() : open.find(u.suffix);
    if (it != open.end() && merged[it->second].groups < kMaxForwardBatch) {
      Unit& dst = merged[it->second];
      dst.members.insert(dst.members.end(), u.members.begin(),
                         u.members.end());
      ++dst.groups;
    } else {
      if (!u.suffix.empty()) open[u.suffix] = merged.size();
      merged.push_back(std::move(u));
    }
  }
  std::vector<std::vector<std::size_t>> out;
  out.reserve(merged.size());
  for (Unit& u : merged) out.push_back(std::move(u.members));
  return out;
}

// ---------------------------------------------------------------------------
// JSON round trip
// ---------------------------------------------------------------------------

util::Json SweepPlan::to_json() const {
  util::Json j = util::Json::object();
  j.set("kind", kind == Kind::kSweep ? "sweep" : "stepwise");
  j.set("task", task);
  j.set("task_identity", task_identity);

  util::Json jaxes = util::Json::array();
  for (const PlanAxis& a : axes) {
    util::Json ja = util::Json::object();
    ja.set("name", a.name);
    ja.set("key", a.key);
    ja.set("per_option", a.per_option);
    util::Json labels = util::Json::array();
    for (const std::string& l : a.option_labels) labels.push_back(l);
    ja.set("option_labels", std::move(labels));
    jaxes.push_back(std::move(ja));
  }
  j.set("axes", std::move(jaxes));

  util::Json jconfigs = util::Json::array();
  for (const PlannedConfig& p : configs) {
    util::Json jp = util::Json::object();
    jp.set("role", planned_role_name(p.role));
    if (p.role == PlannedConfig::Role::kOption ||
        p.role == PlannedConfig::Role::kStep) {
      jp.set("axis", p.axis);
      jp.set("option", p.option);
      jp.set("label", p.label);
    }
    jp.set("metric_key", p.metric_key);
    if (!p.preprocess_key.empty()) jp.set("preprocess_key", p.preprocess_key);
    if (!p.forward_key.empty()) jp.set("forward_key", p.forward_key);
    jp.set("config", p.cfg.to_json());
    jconfigs.push_back(std::move(jp));
  }
  j.set("configs", std::move(jconfigs));
  return j;
}

SweepPlan SweepPlan::from_json(const util::Json& j) {
  SweepPlan plan;
  const std::string& kind = j.at("kind").as_string();
  if (kind == "sweep") {
    plan.kind = Kind::kSweep;
  } else if (kind == "stepwise") {
    plan.kind = Kind::kStepwise;
  } else {
    throw std::invalid_argument("unknown plan kind \"" + kind + "\"");
  }
  plan.task = j.at("task").as_string();
  plan.task_identity = j.at("task_identity").as_string();

  const util::Json& jaxes = j.at("axes");
  for (std::size_t i = 0; i < jaxes.size(); ++i) {
    const util::Json& ja = jaxes.at(i);
    PlanAxis a;
    a.name = ja.at("name").as_string();
    a.key = ja.at("key").as_string();
    a.per_option = ja.at("per_option").as_bool();
    const util::Json& labels = ja.at("option_labels");
    for (std::size_t l = 0; l < labels.size(); ++l)
      a.option_labels.push_back(labels.at(l).as_string());
    plan.axes.push_back(std::move(a));
  }

  const util::Json& jconfigs = j.at("configs");
  for (std::size_t i = 0; i < jconfigs.size(); ++i) {
    const util::Json& jp = jconfigs.at(i);
    PlannedConfig p;
    p.role = planned_role_from_name(jp.at("role").as_string());
    if (p.role == PlannedConfig::Role::kOption ||
        p.role == PlannedConfig::Role::kStep) {
      p.axis = jp.at("axis").as_int();
      p.option = jp.at("option").as_int();
      p.label = jp.at("label").as_string();
      if (p.axis < 0 || p.axis >= static_cast<int>(plan.axes.size()))
        throw std::invalid_argument("planned config references unknown axis");
    }
    p.metric_key = jp.at("metric_key").as_string();
    if (const util::Json* pk = jp.get("preprocess_key"))
      p.preprocess_key = pk->as_string();
    if (const util::Json* fk = jp.get("forward_key"))
      p.forward_key = fk->as_string();
    p.cfg = SysNoiseConfig::from_json(jp.at("config"));
    plan.configs.push_back(std::move(p));
  }
  return plan;
}

std::string SweepPlan::fingerprint() const {
  return util::fnv1a64_hex(to_json().dump());
}

// ---------------------------------------------------------------------------
// Assembly
// ---------------------------------------------------------------------------

namespace {

double metric_at(const MetricMap& results, const std::string& key) {
  const auto it = results.find(key);
  if (it == results.end())
    throw std::out_of_range("assemble: no metric for planned config \"" + key +
                            "\" (incomplete shard merge?)");
  return it->second;
}

double baseline_metric(const SweepPlan& plan, const MetricMap& results) {
  for (const PlannedConfig& p : plan.configs)
    if (p.role == PlannedConfig::Role::kBaseline)
      return metric_at(results, p.metric_key);
  throw std::invalid_argument("assemble: plan has no baseline config");
}

}  // namespace

AxisReport assemble_report(const SweepPlan& plan, const MetricMap& results) {
  if (plan.kind != SweepPlan::Kind::kSweep)
    throw std::invalid_argument("assemble_report: not a sweep plan");
  AxisReport report;
  report.model = plan.task;
  report.trained = baseline_metric(plan, results);

  for (const PlanAxis& axis : plan.axes) {
    AxisResult res;
    res.axis = axis.name;
    res.key = axis.key;
    res.per_option = axis.per_option;
    report.axes.push_back(std::move(res));
  }
  for (const PlannedConfig& p : plan.configs) {
    switch (p.role) {
      case PlannedConfig::Role::kOption: {
        AxisResult& res = report.axes[static_cast<std::size_t>(p.axis)];
        res.options.push_back(
            {p.label, report.trained - metric_at(results, p.metric_key)});
        break;
      }
      case PlannedConfig::Role::kCombined:
        report.combined = report.trained - metric_at(results, p.metric_key);
        break;
      case PlannedConfig::Role::kBaseline:
      case PlannedConfig::Role::kStep:
        break;
    }
  }
  for (AxisResult& res : report.axes) {
    double sum = 0.0, worst = -1e300;
    for (const OptionDelta& o : res.options) {
      sum += o.delta;
      worst = std::max(worst, o.delta);
    }
    res.mean = res.options.empty()
                   ? 0.0
                   : sum / static_cast<double>(res.options.size());
    res.max = worst;
  }
  return report;
}

std::vector<StepPoint> assemble_steps(const SweepPlan& plan,
                                      const MetricMap& results) {
  if (plan.kind != SweepPlan::Kind::kStepwise)
    throw std::invalid_argument("assemble_steps: not a stepwise plan");
  const double trained = baseline_metric(plan, results);
  std::vector<StepPoint> points;
  for (const PlannedConfig& p : plan.configs)
    if (p.role == PlannedConfig::Role::kStep)
      points.push_back({p.label, trained - metric_at(results, p.metric_key)});
  return points;
}

}  // namespace sysnoise::core
