#include "core/sweep.h"

#include <utility>

#include "core/executor.h"
#include "core/plan.h"

namespace sysnoise::core {

bool SweepCache::lookup(const std::string& key, double* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  ++hits_;
  *out = it->second;
  return true;
}

void SweepCache::store(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.emplace(key, value);
}

void SweepCache::seed(const EvalTask& task, const SysNoiseConfig& cfg,
                      double metric) {
  store(key_for(task, cfg), metric);
}

std::size_t SweepCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::size_t SweepCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::size_t SweepCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string SweepCache::key_for(const EvalTask& task, const SysNoiseConfig& cfg) {
  return task.cache_identity() + "|" + cfg.describe();
}

const OptionDelta* AxisResult::option(const std::string& label) const {
  for (const OptionDelta& o : options)
    if (o.label == label) return &o;
  return nullptr;
}

const AxisResult* AxisReport::find(const std::string& axis) const {
  for (const AxisResult& a : axes)
    if (a.axis == axis) return &a;
  return nullptr;
}

// sweep()/stepwise() are thin compositions of the explicit lifecycle:
// plan (core/plan.h) -> execute (core/executor.h) -> assemble.

AxisReport sweep(const EvalTask& task, const SweepOptions& opts,
                 StageStats* stats) {
  const SweepPlan plan = plan_sweep(task, registry_or_global(opts));
  return assemble_report(plan, StagedExecutor(stats).execute(task, plan, opts));
}

std::vector<StepPoint> stepwise(const EvalTask& task, const SweepOptions& opts,
                                StageStats* stats) {
  const SweepPlan plan = plan_stepwise(task, registry_or_global(opts));
  return assemble_steps(plan, StagedExecutor(stats).execute(task, plan, opts));
}

}  // namespace sysnoise::core
