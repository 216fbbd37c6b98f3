#include "nn/tape.h"

#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/half.h"

namespace sysnoise::nn {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kFP32: return "FP32";
    case Precision::kFP16: return "FP16";
    case Precision::kINT8: return "INT8";
  }
  return "?";
}

const char* upsample_mode_name(UpsampleMode m) {
  return m == UpsampleMode::kNearest ? "nearest" : "bilinear";
}

Node* Tape::input(Tensor t, bool requires_grad) {
  auto node = std::make_unique<Node>();
  node->value = std::move(t);
  node->requires_grad = requires_grad;
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

Node* Tape::make(Tensor value) {
  auto node = std::make_unique<Node>();
  node->value = std::move(value);
  nodes_.push_back(std::move(node));
  return nodes_.back().get();
}

void Tape::backward(Node* loss) {
  // Grads are allocated here, not at make(): an eval forward never pays for
  // them. Grads that already exist (an earlier backward) keep accumulating.
  for (const auto& n : nodes_)
    if (n->requires_grad && n->grad.empty())
      n->grad = Tensor(n->value.shape());
  loss->grad.fill(1.0f);
  // Nodes were appended in execution order; reverse order is a valid
  // topological order for reverse mode.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    Node* n = it->get();
    if (n->backprop) n->backprop();
    if (n == loss) continue;
  }
}

void Tape::clear() { nodes_.clear(); }

void apply_activation_precision(const InferenceCtx& ctx, const std::string& layer_id,
                                Tensor& t) {
  if (ctx.calibrating && ctx.ranges != nullptr) {
    (*ctx.ranges)[layer_id].observe(t);
    return;
  }
  switch (ctx.precision) {
    case Precision::kFP32:
      return;
    case Precision::kFP16:
      fp16_round_trip_(t);
      return;
    case Precision::kINT8: {
      if (ctx.ranges == nullptr) return;
      const auto it = ctx.ranges->find(layer_id);
      if (it == ctx.ranges->end() || !it->second.seen) return;
      fake_quantize_(t, it->second.qparams());
      return;
    }
  }
}

Tensor apply_weight_precision(const InferenceCtx& ctx, const Tensor& w) {
  if (ctx.calibrating) return w;
  switch (ctx.precision) {
    case Precision::kFP32:
      return w;
    case Precision::kFP16: {
      Tensor out = w;
      fp16_round_trip_(out);
      return out;
    }
    case Precision::kINT8: {
      Tensor out = w;
      fake_quantize_(out, choose_qparams_symmetric(w.abs_max()));
      return out;
    }
  }
  return w;
}

// A converted weight plus the exact value it was converted from.
struct WeightCache::Entry {
  Tensor source;
  Tensor converted;
};

std::shared_ptr<const Tensor> Param::deployed(const InferenceCtx& ctx) const {
  // Aliasing constructor with no owner: a plain pointer, no refcount traffic.
  if (ctx.calibrating || ctx.precision == Precision::kFP32)
    return std::shared_ptr<const Tensor>(std::shared_ptr<const Tensor>(), &value);
  auto& slot = cache_.slots_[static_cast<int>(ctx.precision)];
  std::shared_ptr<const WeightCache::Entry> entry;
  {
    const std::lock_guard lock(cache_.mu_);
    entry = slot;
  }
  const std::size_t bytes = value.size() * sizeof(float);
  const bool hit = entry != nullptr && entry->source.shape() == value.shape() &&
                   entry->source.size() == value.size() &&
                   (bytes == 0 || std::memcmp(entry->source.data(), value.data(), bytes) == 0);
  if (obs::trace_enabled())
    obs::metrics().counter_add(hit ? "nn.weight_cache.hits" : "nn.weight_cache.conversions");
  if (!hit) {
    entry = std::make_shared<const WeightCache::Entry>(
        WeightCache::Entry{value, apply_weight_precision(ctx, value)});
    const std::lock_guard lock(cache_.mu_);
    slot = entry;
  }
  const Tensor* converted = &entry->converted;
  return std::shared_ptr<const Tensor>(std::move(entry), converted);
}

}  // namespace sysnoise::nn
