// Define-by-run autograd tape.
//
// Every forward pass records Nodes (value + backward closure) on a Tape;
// Tape::backward replays closures in reverse. Node grads are allocated
// lazily: a forward leaves them empty, and backward zero-allocates the grad
// of every requires_grad node before it replays the closures, so an eval
// forward does no gradient work. Model parameters live outside the tape
// (struct Param) and closures accumulate directly into their grad buffers,
// so weights are never copied per step.
//
// The tape also carries the InferenceCtx — the *model-inference* SysNoise
// knobs of Sec. 3.2: data precision (FP32/FP16/INT8 fake-quant at
// conv/linear boundaries), max-pool ceil mode, and upsample interpolation.
// Models read these knobs at op level, so "train with floor, deploy with
// ceil" is a one-field change, exactly like flipping a vendor runtime.
//
// Deployment-precision weights are converted once per Param, not once per
// forward: Param::deployed() hands conv2d/linear their weight operand. FP32
// and calibration read Param::value itself (no lock, compare or copy);
// FP16/INT8 read a per-precision cached conversion that is reused only while
// its stored copy of the source bytes and shape still equals `value`
// (memcmp), so every writer of the public `value` (optimizers, load_params,
// initializers, TENT, a direct write) is seen by the next forward without
// an invalidation hook.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "quant/quantize.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace sysnoise::nn {

enum class Precision { kFP32 = 0, kFP16 = 1, kINT8 = 2 };
constexpr int kNumPrecisions = 3;
const char* precision_name(Precision p);

enum class UpsampleMode { kNearest = 0, kBilinear = 1 };
const char* upsample_mode_name(UpsampleMode m);

struct InferenceCtx;

// One slot per precision of a Param's deployment-weight cache (FP32's slot
// stays empty). Concurrent forwards of one shared model may fill and read
// the slots; the mutex is held only to copy or replace a slot's pointer,
// never across the byte check or a conversion. A reader's handle owns its
// entry, so another thread replacing the slot never invalidates it.
// Copying, moving or assigning a Param leaves the target's cache empty, to
// be refilled on first use, so Params and the models holding them stay
// copyable and movable.
class WeightCache {
 public:
  struct Entry;
  WeightCache() = default;
  WeightCache(const WeightCache&) noexcept {}
  WeightCache& operator=(const WeightCache&) noexcept {
    const std::lock_guard lock(mu_);
    for (auto& slot : slots_) slot.reset();
    return *this;
  }

 private:
  friend struct Param;
  std::mutex mu_;
  std::array<std::shared_ptr<const Entry>, kNumPrecisions> slots_;
};

// A trainable parameter: value plus gradient accumulator.
struct Param {
  Tensor value;
  Tensor grad;
  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Param() = default;
  void zero_grad() { grad.fill(0.0f); }

  // The weight operand of a conv/linear forward under `ctx`: `value` itself
  // for FP32 and calibration (an unowned handle), else
  // apply_weight_precision(ctx, value) from this Param's cache, converting
  // and storing it when the cached entry's source bytes no longer match.
  std::shared_ptr<const Tensor> deployed(const InferenceCtx& ctx) const;

 private:
  mutable WeightCache cache_;
};

// Calibrated activation ranges, keyed by layer id (filled by a calibration
// pass, consumed by INT8 inference).
using ActRanges = std::map<std::string, RangeObserver>;

struct InferenceCtx {
  Precision precision = Precision::kFP32;
  bool ceil_mode = false;                       // max-pool deployment mode
  UpsampleMode upsample = UpsampleMode::kNearest;
  bool upsample_align_corners = false;
  // Kernel family for GEMM/conv (tensor/backend.h) — ops open a BackendScope
  // around their kernel calls so a parallel sweep can run configs with
  // different backends concurrently.
  ComputeBackend backend = default_backend();
  bool calibrating = false;   // record activation ranges instead of quantizing
  ActRanges* ranges = nullptr;
};

struct Node {
  Tensor value;
  Tensor grad;
  std::function<void()> backprop;  // empty for leaves/constants
  bool requires_grad = true;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  InferenceCtx ctx;
  bool training = false;  // affects batchnorm statistics

  // Create a leaf node holding a copy of `t` (network input / constant).
  Node* input(Tensor t, bool requires_grad = false);

  // Create an op output node; `backprop` may be set by the op afterwards.
  Node* make(Tensor value);

  // Reverse-mode sweep from `loss` (grad seeded with 1).
  void backward(Node* loss);

  std::size_t num_nodes() const { return nodes_.size(); }
  const Node& node(std::size_t i) const { return *nodes_[i]; }
  void clear();

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

// Apply the ctx's precision to a tensor at an op boundary:
//  - FP16: binary16 round trip;
//  - INT8: fake-quantize with the calibrated range for `layer_id` (no-op
//    when no range is known — e.g. during FP32 eval or calibration).
// During calibration this records the observed range instead.
void apply_activation_precision(const InferenceCtx& ctx, const std::string& layer_id,
                                Tensor& t);

// Precision for a weight tensor (INT8 weights use symmetric quant). The
// uncached conversion behind Param::deployed().
Tensor apply_weight_precision(const InferenceCtx& ctx, const Tensor& w);

}  // namespace sysnoise::nn
