// Lease bookkeeping of the resident sweep service (svc/service.h),
// factored out of the socket handling so the scheduling policy is testable
// without a network: work units (stage-key groups of plan config indices,
// tagged with their job) are leased to workers on demand — work-stealing
// style, fast workers simply come back for more — and every lease carries a
// deadline refreshed by the owning worker's heartbeats. A unit whose worker
// disconnects (release_worker) or falls silent past its deadline
// (acquire-time expiry sweep) goes back on offer and is re-leased to the
// next hungry worker; a late result from the original owner is still
// accepted, since executors are required to be bit-identical.
//
// The pool is dynamic (add_units as jobs are submitted, drop_job on cancel)
// and prioritized: acquire leases the highest-priority pending unit,
// submission order within a priority.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace sysnoise::dist {

// One leasable unit: config indices of one stage-key group of one job.
struct WorkUnit {
  int job = 0;
  std::vector<std::size_t> configs;
  int priority = 0;  // higher leases first; ties go in unit order
};

struct SchedulerStats {
  std::size_t leases_granted = 0;  // including re-leases
  std::size_t re_leases = 0;       // grants of a previously-leased unit
  std::size_t expired = 0;         // deadline expiries (silent workers)
  std::size_t released = 0;        // units returned by disconnects
  std::size_t completed = 0;       // first completions
  std::size_t duplicate_results = 0;
  std::size_t canceled = 0;        // units voided by drop_job
};

class LeaseScheduler {
 public:
  using Clock = std::chrono::steady_clock;

  LeaseScheduler(std::vector<WorkUnit> units,
                 std::chrono::milliseconds lease_timeout);

  // A copy of unit `i`, taken under the scheduler lock: submissions may be
  // growing (reallocating) the pool concurrently.
  WorkUnit unit_at(std::size_t i) const;

  // Append more leasable units (a newly-submitted service job). Returns the
  // index of the first one, so callers can map job-local unit indices to
  // scheduler-global ones.
  std::size_t add_units(std::vector<WorkUnit> more);

  // Lease the best available unit to `worker` (a connection-unique id):
  // the highest-priority pending unit, first-submitted within a priority,
  // where expired and disconnect-released units rejoin the pool before
  // being scanned. nullopt = nothing leasable right now (the caller answers
  // `wait` or `done` depending on all_done()).
  std::optional<std::size_t> acquire(int worker, Clock::time_point now);

  // Refresh the deadlines of every lease `worker` holds.
  void heartbeat(int worker, Clock::time_point now);

  // Mark `unit` complete. Returns true on the first completion, false for
  // a duplicate (unit re-leased after expiry, both workers finished) or a
  // unit voided by drop_job.
  bool complete(std::size_t unit);

  // The worker's connection died: put its incomplete leases back on offer.
  void release_worker(int worker);

  // Void every incomplete unit of `job` (service-side cancel): they are
  // never leased again and count as terminal for all_done(). Already-done
  // units stay done.
  void drop_job(int job);

  bool all_done() const;
  std::size_t remaining() const;
  SchedulerStats stats() const;

  // Observability hook fired for each deadline expiry, with the unit index,
  // its job, and the worker whose lease lapsed. Invoked under the scheduler
  // lock (from acquire's expiry sweep) — the callback must not call back
  // into this scheduler. Set once before serving; not thread-safe against
  // concurrent acquires.
  void set_on_expire(std::function<void(std::size_t, int, int)> fn) {
    on_expire_ = std::move(fn);
  }

 private:
  enum class State { kPending, kLeased, kDone, kCanceled };
  struct Slot {
    State state = State::kPending;
    int worker = -1;
    Clock::time_point deadline{};
    bool ever_leased = false;
  };

  mutable std::mutex mu_;
  std::vector<WorkUnit> units_;
  std::vector<Slot> slots_;
  std::chrono::milliseconds lease_timeout_;
  SchedulerStats stats_;
  std::function<void(std::size_t, int, int)> on_expire_;
};

}  // namespace sysnoise::dist
