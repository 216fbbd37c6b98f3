// DistExecutor: the distributed runtime behind the standard Executor seam.
// execute() submits the plan (with an opaque task spec for the workers) to
// a sweep service (svc/service.h) and collects the merged metrics once
// attached workers have evaluated every work unit — so swapping
// ThreadPoolExecutor/StagedExecutor for DistExecutor changes where the
// evaluations run, never the results (bit-identity is the executor
// contract, and the service enforces it on merge).
//
// Note the inversion the distributed runtime forces: the `task` argument is
// never evaluated locally — workers rebuild their own instance from the
// task spec. The local SweepOptions only contribute their cross-call cache,
// which is populated with the remote results so later local sweeps memoize.
#pragma once

#include <utility>

#include "core/executor.h"
#include "svc/client.h"

namespace sysnoise::svc {

class DistExecutor : public core::Executor {
 public:
  // `service` locates the sweep service; `task_spec` is what workers
  // resolve (dist/task_factory.h for zoo models).
  DistExecutor(ClientOptions service, util::Json task_spec)
      : service_(std::move(service)), task_spec_(std::move(task_spec)) {}

  const char* name() const override { return "dist"; }
  core::MetricMap execute(const core::EvalTask& task,
                          const core::SweepPlan& plan,
                          const core::SweepOptions& opts = {}) const override;

 private:
  ClientOptions service_;
  util::Json task_spec_;
};

}  // namespace sysnoise::svc
