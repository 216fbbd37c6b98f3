// Internal helpers shared by the executors (core/executor.cpp): the
// metric-memoization front-end over a SweepPlan and a small parallel-for.
// Not part of the public API — include only from core/*.cpp and tests.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.h"

namespace sysnoise::core::detail {

// Run fn(0..count-1) on up to `threads` workers; rethrows the first worker
// exception. Deterministic for independent iterations.
inline void parallel_for_n(int threads, std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  threads = threads > 0 ? threads
                        : static_cast<int>(std::thread::hardware_concurrency());
  threads = std::max(1, std::min<int>(threads, static_cast<int>(count)));
  if (threads <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

// Memoization front-end shared by every executor: dedup identical configs
// within the plan, consult the cross-call cache, hand the still-pending
// configs to `eval_pending` (which returns one metric per pending config,
// in order), and write fresh results back through the cache.
inline MetricMap evaluate_plan(
    const SweepPlan& plan, const SweepOptions& opts,
    const std::function<
        std::vector<double>(const std::vector<const PlannedConfig*>&)>&
        eval_pending) {
  MetricMap results;
  std::vector<const PlannedConfig*> pending;
  for (const PlannedConfig& p : plan.configs) {
    if (opts.memoize) {
      if (results.count(p.metric_key) != 0) continue;
      double cached = 0.0;
      if (opts.cache != nullptr && opts.cache->lookup(p.metric_key, &cached)) {
        results.emplace(p.metric_key, cached);
        continue;
      }
      results.emplace(p.metric_key, 0.0);  // reserve so duplicates dedup
    }
    pending.push_back(&p);
  }

  const std::vector<double> values = eval_pending(pending);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    results[pending[i]->metric_key] = values[i];
    if (opts.memoize && opts.cache != nullptr)
      opts.cache->store(pending[i]->metric_key, values[i]);
  }
  return results;
}

}  // namespace sysnoise::core::detail
