// Pre-processing pipeline: JPEG bytes -> decode -> resize (optionally to
// out/crop_fraction, then center crop) -> color-mode round trip ->
// normalized CHW tensor (optionally round-tripped through an NHWC(FP16)
// staging buffer). The pre-processing SysNoise knobs (decoder vendor, resize
// kernel, crop geometry, color path, normalization stats, channel layout)
// act here; samples are stored as real JPEG bitstreams so the decode path
// is exercised end to end.
//
// The pipeline is the first stage of the staged evaluation split
// (preprocess -> forward -> postprocess): `preprocess_key()` names exactly
// the knobs this stage reads, and `preprocess_batches()` materializes the
// stage's product — stacked input batches — once per distinct key so sweeps
// over inference-side knobs never re-decode or re-resize a JPEG. Keys that
// differ only after the decode (resize, crop, color, stats, layout) can
// share the decoded images too: a `DecodeMemo` installed on the calling
// thread decodes each (sample list, vendor) once for all of them.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "data/noise_config.h"
#include "image/image.h"
#include "tensor/tensor.h"

namespace sysnoise {

struct PipelineSpec {
  int out_h = 32;
  int out_w = 32;
  // ImageNet-style channel statistics in [0,1] units (the training-side
  // stats; the NormStats knob derives the deployed stats from these).
  std::vector<float> mean = {0.485f, 0.456f, 0.406f};
  std::vector<float> stddev = {0.229f, 0.224f, 0.225f};
};

// The per-channel mean/std the deployed pipeline actually divides by:
// spec's floats under kTorchvision, their u8-grid rounding under
// kRoundedU8, or 0.5 everywhere under kHalfHalf.
std::pair<std::vector<float>, std::vector<float>> effective_norm_stats(
    const SysNoiseConfig& cfg, const PipelineSpec& spec);

// Stage-1 cache key: a stable encoding of every knob preprocess() reads
// (decoder, resize, color, layout, effective normalization stats, output
// size).
// Configs that differ only in inference/post-processing knobs share a key;
// configs whose pre-processing products differ get distinct keys.
std::string preprocess_key(const SysNoiseConfig& cfg, const PipelineSpec& spec);

// Run the full pre-processing chain under `cfg` and return a [1,3,H,W]
// tensor ready for the network.
Tensor preprocess(const std::vector<std::uint8_t>& jpeg_bytes,
                  const SysNoiseConfig& cfg, const PipelineSpec& spec);

// Intermediate: decoded+resized+color-converted image (for visualization
// and image-space diff metrics, Fig. 5).
ImageU8 preprocess_image(const std::vector<std::uint8_t>& jpeg_bytes,
                         const SysNoiseConfig& cfg, const PipelineSpec& spec);

// Stage-1 product: every evaluation sample pre-processed and stacked into
// the exact batch tensors the evaluation loops forward, in dataset order.
struct PreprocessedBatches {
  std::vector<Tensor> inputs;  // stacked [b,3,H,W]; last batch may be short
  int batch_size = 0;
  int num_samples = 0;
};

// The JPEG bitstreams of an evaluation sample list, in order.
using JpegList = std::vector<const std::vector<std::uint8_t>*>;

// Decoded sample lists shared by the preprocess keys of one evaluation call.
// Each (exact sample list, decoder vendor) is decoded once: concurrent
// requests for it wait on one decode, and a decode that throws reaches every
// waiter and is never kept. Memory stays bounded: a decoded list is kept
// only while a caller holds it, plus the most recently requested one.
class DecodeMemo {
 public:
  using Images = std::vector<ImageU8>;

  // `jpegs` decoded under `vendor`, one image per entry. The list is keyed
  // by its pointers, so the bytes must outlive the memo.
  std::shared_ptr<const Images> get(const JpegList& jpegs,
                                    jpeg::DecoderVendor vendor);

 private:
  using Key = std::pair<jpeg::DecoderVendor, JpegList>;
  struct Entry {
    std::shared_future<std::shared_ptr<const Images>> pending;  // decoding
    std::weak_ptr<const Images> done;                           // decoded
  };

  std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::shared_ptr<const Images> recent_;
};

// RAII per-thread installation of a DecodeMemo (like BackendScope): while
// alive, preprocess_batches on this thread takes its decoded images from
// `memo`. Scopes nest; the previous memo (or none) is restored on exit.
class DecodeMemoScope {
 public:
  explicit DecodeMemoScope(DecodeMemo& memo);
  ~DecodeMemoScope();
  DecodeMemoScope(const DecodeMemoScope&) = delete;
  DecodeMemoScope& operator=(const DecodeMemoScope&) = delete;

 private:
  DecodeMemo* prev_;
};

// Materialize the stage-1 product for a sample list. Batch boundaries match
// the monolithic evaluation loops (`bs = min(batch_size, n - b)`), so a
// forward pass over these tensors is bit-identical to the unstaged path.
// Under a DecodeMemoScope the JPEGs come decoded from the memo; the bytes
// are the same as decoding them here.
PreprocessedBatches preprocess_batches(const JpegList& jpegs,
                                       const SysNoiseConfig& cfg,
                                       const PipelineSpec& spec,
                                       int batch_size);

}  // namespace sysnoise
