// Exact per-sample percentiles that state their sample count.
//
// A timing is reported as its median and as the highest percentiles that
// still have at least kMinTail samples beyond them: with n samples, the
// nearest-rank percentile q sits at rank ceil(q * n), and it is reportable
// only when n - rank >= kMinTail. So p99 needs 1000 samples and p50 needs 20;
// anything thinner is withheld rather than printed as a number that one
// outlier decides.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

inline constexpr std::size_t kMinTail = 10;

class Percentiles {
 public:
  explicit Percentiles(std::vector<double> samples)
      : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  std::size_t count() const { return sorted_.size(); }

  // 1-based nearest rank of quantile q in (0, 1]; q is taken to parts per
  // million so ranks are exact integers (0.99 * 1000 must be 990, not 991).
  std::size_t rank(double q) const {
    const auto ppm = static_cast<std::uint64_t>(std::llround(q * 1e6));
    const std::uint64_t n = sorted_.size();
    const std::uint64_t r = (ppm * n + 999999) / 1000000;
    return static_cast<std::size_t>(std::max<std::uint64_t>(1, r));
  }

  // Samples strictly beyond quantile q's rank.
  std::size_t beyond(double q) const {
    return sorted_.empty() ? 0 : sorted_.size() - rank(q);
  }

  bool reportable(double q) const {
    return !sorted_.empty() && beyond(q) >= kMinTail;
  }

  // The nearest-rank sample, or nothing when fewer than kMinTail samples lie
  // beyond it.
  std::optional<double> at(double q) const {
    if (!reportable(q)) return std::nullopt;
    return sorted_[rank(q) - 1];
  }

  // The value, or `fallback` when withheld — for metrics that must always
  // carry a number; callers that print these also print count().
  double at_or(double q, double fallback) const {
    return at(q).value_or(fallback);
  }

  // {"count": n, "p50": v, "p90": v, "p99": v} with only the reportable
  // percentiles present.
  sysnoise::util::Json to_json() const {
    sysnoise::util::Json j = sysnoise::util::Json::object();
    j.set("count", sorted_.size());
    const struct {
      const char* name;
      double q;
    } kPoints[] = {{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}};
    for (const auto& p : kPoints)
      if (const auto v = at(p.q)) j.set(p.name, *v);
    return j;
  }

 private:
  std::vector<double> sorted_;
};

// Median of a small set of repeated measurements (setup times, per-run
// throughputs): the middle value, or the mean of the two middle values.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
