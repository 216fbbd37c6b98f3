#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/disk_stage_cache.h"
#include "core/sweep_detail.h"
#include "data/pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sysnoise::core {

namespace {

std::vector<double> monolithic_eval(
    const EvalTask& task, const std::vector<const PlannedConfig*>& pending,
    const SweepOptions& opts) {
  std::vector<double> values(pending.size(), 0.0);
  detail::parallel_for_n(opts.threads, pending.size(), [&](std::size_t i) {
    obs::TraceSpan span("pool.evaluate");
    if (span.active()) span.attr("key", pending[i]->metric_key);
    values[i] = task.evaluate(pending[i]->cfg);
  });
  return values;
}

// One forward pass shared by every config with the same forward key; the
// group members differ only in post-processing knobs.
struct ForwardGroup {
  std::string pre_key;
  std::string fwd_key;
  std::vector<std::size_t> members;  // indices into the pending list
};

// Stage keys come from the plan when present (a deserialized plan carries
// them); otherwise they are recomputed from the task.
std::string pre_key_of(const StagedEvalTask& task, const PlannedConfig& p) {
  return p.preprocess_key.empty() ? task.preprocess_key(p.cfg)
                                  : p.preprocess_key;
}

std::string fwd_key_of(const StagedEvalTask& task, const PlannedConfig& p) {
  return p.forward_key.empty() ? task.forward_key(p.cfg) : p.forward_key;
}

// `pre_store` is the executor's stage-1 store for task.preprocess_scope():
// it may already hold products of earlier calls, and what this call
// materializes stays in it for later ones. `rec` receives the call's
// accounting record.
std::vector<double> staged_eval(const StagedEvalTask& task,
                                const std::vector<const PlannedConfig*>& pending,
                                const SweepOptions& opts, DiskStageCache* disk,
                                StageCache& pre_store, StageStats& rec) {
  // Plan: group by forward key, keeping groups with a common preprocess key
  // adjacent so their stage-1 product stays hot.
  std::vector<ForwardGroup> groups;
  std::map<std::string, std::size_t> group_of;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const std::string fwd_key = fwd_key_of(task, *pending[i]);
    const auto it = group_of.find(fwd_key);
    if (it == group_of.end()) {
      group_of.emplace(fwd_key, groups.size());
      groups.push_back({pre_key_of(task, *pending[i]), fwd_key, {i}});
    } else {
      groups[it->second].members.push_back(i);
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ForwardGroup& a, const ForwardGroup& b) {
                     return a.pre_key < b.pre_key;
                   });

  // Batch sets: forward-key groups whose configs advertise the same
  // forward_batch_key (a task that opts in; see staged_eval.h) are computed
  // by ONE stacked forward invocation of at most kMaxForwardBatch groups.
  // Groups that opt out (empty key) stay singleton sets; so does everything
  // when batching is disabled.
  std::vector<std::vector<std::size_t>> sets;
  sets.reserve(groups.size());
  {
    std::map<std::string, std::size_t> open_set;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::string batch_key =
          opts.batch_forwards
              ? task.forward_batch_key(pending[groups[g].members.front()]->cfg)
              : std::string();
      if (batch_key.empty()) {
        sets.push_back({g});
        continue;
      }
      const auto it = open_set.find(batch_key);
      if (it != open_set.end() &&
          sets[it->second].size() < kMaxForwardBatch) {
        sets[it->second].push_back(g);
      } else {
        open_set[batch_key] = sets.size();
        sets.push_back({g});
      }
    }
  }

  std::atomic<std::size_t> disk_hits{0}, computed{0}, persisted{0};
  std::atomic<std::size_t> fwd_disk_hits{0}, fwd_computed{0}, fwd_persisted{0};
  std::atomic<std::size_t> batch_calls{0}, batch_cfgs{0}, batch_max{0};
  std::vector<StageProduct> pre_of(groups.size());
  std::vector<char> materialized(groups.size(), 0);  // group ran the miss
  std::vector<StageProduct> fwd_of(groups.size());
  std::vector<double> values(pending.size(), 0.0);

  // Phase 1, parallel per group: a disk-cached forward product makes stage 1
  // unnecessary (the pre-processed batches exist only to feed the network);
  // otherwise take the group's stage-1 product from pre_store, materializing
  // it on a miss. Image materializations share one decode per (sample list,
  // decoder vendor) through the phase's memo, which dies with the phase.
  {
    DecodeMemo decode_memo;
    detail::parallel_for_n(opts.threads, groups.size(), [&](std::size_t g) {
      const DecodeMemoScope decode_scope(decode_memo);
      const ForwardGroup& group = groups[g];
      obs::TraceSpan span("staged.preprocess");
      if (span.active()) span.attr("pre_key", group.pre_key);
      const SysNoiseConfig& lead_cfg = pending[group.members.front()]->cfg;
      if (disk != nullptr) {
        std::string bytes;
        if (disk->load(task.forward_scope(), group.fwd_key, &bytes)) {
          if ((fwd_of[g] = task.decode_forward(bytes)) != nullptr)
            fwd_disk_hits.fetch_add(1);
        }
      }
      if (fwd_of[g] != nullptr) return;
      bool miss = false;
      pre_of[g] = pre_store.get_or_compute(group.pre_key, [&] {
        if (disk != nullptr) {
          std::string bytes;
          if (disk->load(task.preprocess_scope(), group.pre_key, &bytes)) {
            if (StageProduct p = task.decode_preprocess(bytes)) {
              disk_hits.fetch_add(1);
              return p;
            }
          }
        }
        computed.fetch_add(1);
        StageProduct p = task.run_preprocess(lead_cfg);
        if (disk != nullptr) {
          std::string bytes;
          if (task.encode_preprocess(p, &bytes)) {
            disk->store(task.preprocess_scope(), group.pre_key, bytes);
            persisted.fetch_add(1);
          }
        }
        return p;
      }, &miss);
      materialized[g] = miss;
    });
  }

  // Phase 2, parallel per batch set: one forward invocation covers every
  // group of the set still lacking a product, then post-processing fans the
  // (split) outputs back out to the planned configs.
  detail::parallel_for_n(opts.threads, sets.size(), [&](std::size_t s) {
    std::vector<std::size_t> need;
    for (const std::size_t g : sets[s])
      if (fwd_of[g] == nullptr) need.push_back(g);
    if (!need.empty()) {
      obs::TraceSpan span("staged.forward");
      if (span.active()) {
        span.attr("fwd_key", groups[need.front()].fwd_key);
        span.attr("batched_groups", need.size());
      }
      if (need.size() == 1) {
        const std::size_t g = need.front();
        fwd_of[g] =
            task.run_forward(pending[groups[g].members.front()]->cfg, pre_of[g]);
      } else {
        std::vector<const SysNoiseConfig*> cfgs;
        std::vector<StageProduct> pres;
        for (const std::size_t g : need) {
          cfgs.push_back(&pending[groups[g].members.front()]->cfg);
          pres.push_back(pre_of[g]);
        }
        const std::vector<StageProduct> outs =
            task.run_forward_batched(cfgs, pres);
        if (outs.size() != need.size())
          throw std::runtime_error(
              "run_forward_batched returned " + std::to_string(outs.size()) +
              " products for " + std::to_string(need.size()) + " configs");
        std::size_t covered = 0;
        for (std::size_t i = 0; i < need.size(); ++i) {
          fwd_of[need[i]] = outs[i];
          covered += groups[need[i]].members.size();
        }
        // Multi-group invocations only: a singleton forward covering a
        // multi-member group is stage sharing, not cross-config batching,
        // and must not inflate the batching evidence.
        batch_cfgs.fetch_add(covered);
        for (std::size_t prev = batch_max.load();
             covered > prev && !batch_max.compare_exchange_weak(prev, covered);) {
        }
      }
      fwd_computed.fetch_add(need.size());
      batch_calls.fetch_add(1);
      if (disk != nullptr) {
        for (const std::size_t g : need) {
          std::string bytes;
          if (task.encode_forward(fwd_of[g], &bytes)) {
            disk->store(task.forward_scope(), groups[g].fwd_key, bytes);
            fwd_persisted.fetch_add(1);
          }
        }
      }
    }
    obs::TraceSpan post_span("staged.postprocess");
    for (const std::size_t g : sets[s])
      for (const std::size_t i : groups[g].members)
        values[i] = task.run_postprocess(pending[i]->cfg, fwd_of[g]);
  });

  // The call's one accounting record (the executor accumulates it into the
  // caller's stats; while tracing it is published as the staged.<field>
  // counters). Per planned evaluation: the first arrival at a stage key is
  // the miss that materializes it; every other member reuses the product.
  // A stage-1 product no group of this call materialized was kept from an
  // earlier call (or a concurrent one): its evaluations are retained hits.
  std::set<std::string> fresh;
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (materialized[g]) fresh.insert(groups[g].pre_key);
  for (std::size_t g = 0; g < groups.size(); ++g)
    if (pre_of[g] != nullptr && fresh.count(groups[g].pre_key) == 0)
      rec.preprocess_retained += groups[g].members.size();
  rec.preprocess_misses = fresh.size();
  rec.preprocess_hits = pending.size() - fresh.size();
  rec.forward_misses = groups.size();
  rec.forward_hits = pending.size() - groups.size();
  rec.evaluations = pending.size();
  rec.preprocess_disk_hits = disk_hits.load();
  rec.preprocess_computed = computed.load();
  rec.preprocess_persisted = persisted.load();
  rec.forward_disk_hits = fwd_disk_hits.load();
  rec.forward_computed = fwd_computed.load();
  rec.forward_persisted = fwd_persisted.load();
  rec.batched_forward_calls = batch_calls.load();
  rec.batched_forward_configs = batch_cfgs.load();
  rec.max_configs_per_batch = batch_max.load();
  if (obs::trace_enabled()) {
    // Once per evaluation batch (cold path): cache effectiveness counters
    // for the flight-recorder summary. Purely observational — never read
    // back by any computation. The largest stack is a gauge, sampled only
    // when a forward ran.
    obs::MetricsRegistry& m = obs::metrics();
    const util::Json fields = rec.to_json();
    for (const auto& [field, value] : fields.items())
      if (field != "max_configs_per_batch")
        m.counter_add("staged." + field,
                      static_cast<std::uint64_t>(value.as_number()));
    if (rec.batched_forward_calls > 0)
      m.gauge_add("staged.max_configs_per_batch",
                  static_cast<double>(rec.max_configs_per_batch));
  }
  return values;
}

}  // namespace

MetricMap ThreadPoolExecutor::execute(const EvalTask& task,
                                      const SweepPlan& plan,
                                      const SweepOptions& opts) const {
  return detail::evaluate_plan(
      plan, opts, [&](const std::vector<const PlannedConfig*>& pending) {
        return monolithic_eval(task, pending, opts);
      });
}

MetricMap StagedExecutor::execute(const EvalTask& task, const SweepPlan& plan,
                                  const SweepOptions& opts) const {
  const auto* staged = dynamic_cast<const StagedEvalTask*>(&task);
  if (staged == nullptr) {
    // Not a staged task: the monolithic chain is the only evaluation there
    // is, so fall back rather than fail.
    return ThreadPoolExecutor().execute(task, plan, opts);
  }
  return detail::evaluate_plan(
      plan, opts, [&](const std::vector<const PlannedConfig*>& pending) {
        const std::shared_ptr<StageCache> store =
            store_for(staged->preprocess_scope());
        StageStats call;
        std::vector<double> values =
            staged_eval(*staged, pending, opts, disk_, *store, call);
        if (stats_ != nullptr) {
          std::lock_guard<std::mutex> lock(mu_);
          *stats_ += call;
        }
        return values;
      });
}

std::shared_ptr<StageCache> StagedExecutor::store_for(
    const std::string& scope) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (kept_ == nullptr || scope != kept_scope_) {
    // Replacing the store releases the old scope's products before this
    // call materializes any of its own (a concurrent call still running on
    // the old scope keeps its reference until it returns).
    kept_ = std::make_shared<StageCache>();
    kept_scope_ = scope;
  }
  return kept_;
}

ShardExecutor::ShardExecutor(const Executor& inner, int shard_index,
                             int shard_count)
    : inner_(inner), shard_index_(shard_index), shard_count_(shard_count) {
  if (shard_count <= 0 || shard_index < 0 || shard_index >= shard_count)
    throw std::invalid_argument("ShardExecutor: bad shard " +
                                std::to_string(shard_index) + "/" +
                                std::to_string(shard_count));
}

MetricMap ShardExecutor::execute(const EvalTask& task, const SweepPlan& plan,
                                 const SweepOptions& opts) const {
  return inner_.execute(
      task, plan.slice(plan.shard_indices(shard_index_, shard_count_)), opts);
}

MetricMap ShardExecutor::merge(const SweepPlan& plan,
                               const std::vector<MetricMap>& parts) {
  MetricMap merged;
  for (const MetricMap& part : parts)
    for (const auto& [key, value] : part) {
      const auto [it, inserted] = merged.emplace(key, value);
      if (!inserted && it->second != value)
        throw std::invalid_argument(
            "ShardExecutor::merge: shards disagree on \"" + key + "\"");
    }
  for (const PlannedConfig& p : plan.configs)
    if (merged.find(p.metric_key) == merged.end())
      throw std::out_of_range(
          "ShardExecutor::merge: no shard covered planned config \"" +
          p.metric_key + "\"");
  return merged;
}

}  // namespace sysnoise::core
