#include "core/staged_eval.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace sysnoise::core {

std::string forward_key_suffix(const SysNoiseConfig& cfg) {
  std::ostringstream os;
  os << "|prec=" << nn::precision_name(cfg.precision)
     << "|ceil=" << (cfg.ceil_mode ? 1 : 0)
     << "|up=" << nn::upsample_mode_name(cfg.upsample)
     // Different kernel families legitimately produce different floats, so
     // forward products (memory and disk StageCache alike) never mix across
     // backends.
     << "|be=" << backend_name(cfg.backend);
  return os.str();
}

std::vector<StageProduct> StagedEvalTask::run_forward_batched(
    const std::vector<const SysNoiseConfig*>& cfgs,
    const std::vector<StageProduct>& pres) const {
  std::vector<StageProduct> out;
  out.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i)
    out.push_back(run_forward(*cfgs[i], pres[i]));
  return out;
}

StageProduct StageCache::get_or_compute(
    const std::string& key, const std::function<StageProduct()>& compute,
    bool* materialized) {
  std::promise<StageProduct> promise;
  std::shared_future<StageProduct> future;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      entries_.emplace(key, future);
      owner = true;
    }
  }
  *materialized = owner;
  // The inserting thread computes; concurrent readers block on the future.
  if (owner) {
    try {
      promise.set_value(compute());
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

namespace {

// Every StageStats field in declaration order: the one list operator+=,
// to_json() and (through to_json) the staged.* trace counters walk.
constexpr std::pair<const char*, std::size_t StageStats::*> kStageFields[] = {
    {"preprocess_hits", &StageStats::preprocess_hits},
    {"preprocess_misses", &StageStats::preprocess_misses},
    {"preprocess_retained", &StageStats::preprocess_retained},
    {"forward_hits", &StageStats::forward_hits},
    {"forward_misses", &StageStats::forward_misses},
    {"evaluations", &StageStats::evaluations},
    {"preprocess_disk_hits", &StageStats::preprocess_disk_hits},
    {"preprocess_computed", &StageStats::preprocess_computed},
    {"preprocess_persisted", &StageStats::preprocess_persisted},
    {"forward_disk_hits", &StageStats::forward_disk_hits},
    {"forward_computed", &StageStats::forward_computed},
    {"forward_persisted", &StageStats::forward_persisted},
    {"batched_forward_calls", &StageStats::batched_forward_calls},
    {"batched_forward_configs", &StageStats::batched_forward_configs},
    {"max_configs_per_batch", &StageStats::max_configs_per_batch},
};

}  // namespace

StageStats& StageStats::operator+=(const StageStats& o) {
  // Counts add up; the largest stack is a maximum.
  for (const auto& [name, field] : kStageFields)
    this->*field = field == &StageStats::max_configs_per_batch
                       ? std::max(this->*field, o.*field)
                       : this->*field + o.*field;
  return *this;
}

util::Json StageStats::to_json() const {
  util::Json j = util::Json::object();
  for (const auto& [name, field] : kStageFields) j.set(name, this->*field);
  return j;
}

}  // namespace sysnoise::core
