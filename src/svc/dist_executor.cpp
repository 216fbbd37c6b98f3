#include "svc/dist_executor.h"

namespace sysnoise::svc {

core::MetricMap DistExecutor::execute(const core::EvalTask& task,
                                      const core::SweepPlan& plan,
                                      const core::SweepOptions& opts) const {
  (void)task;  // evaluated by workers, from the spec
  ServiceClient client(service_);
  core::MetricMap metrics = client.collect(client.submit(task_spec_, plan));
  if (opts.memoize && opts.cache != nullptr)
    for (const auto& [key, value] : metrics) opts.cache->store(key, value);
  return metrics;
}

}  // namespace sysnoise::svc
