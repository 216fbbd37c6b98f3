#include "data/pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "tensor/layout.h"

namespace sysnoise {

std::pair<std::vector<float>, std::vector<float>> effective_norm_stats(
    const SysNoiseConfig& cfg, const PipelineSpec& spec) {
  switch (cfg.norm) {
    case NormStats::kTorchvision:
      return {spec.mean, spec.stddev};
    case NormStats::kRoundedU8: {
      auto snap = [](const std::vector<float>& v) {
        std::vector<float> out;
        out.reserve(v.size());
        for (float x : v) out.push_back(std::round(x * 255.0f) / 255.0f);
        return out;
      };
      return {snap(spec.mean), snap(spec.stddev)};
    }
    case NormStats::kHalfHalf:
      return {std::vector<float>(spec.mean.size(), 0.5f),
              std::vector<float>(spec.stddev.size(), 0.5f)};
  }
  return {spec.mean, spec.stddev};
}

std::string preprocess_key(const SysNoiseConfig& cfg, const PipelineSpec& spec) {
  const auto [mean, stddev] = effective_norm_stats(cfg, spec);
  std::ostringstream os;
  // Round-trip-exact float formatting: stats differing in any bit must not
  // collide into one key (the sharing contract is injectivity).
  os.precision(std::numeric_limits<float>::max_digits10);
  os << "dec=" << jpeg::vendor_name(cfg.decoder)
     << "|res=" << resize_method_name(cfg.resize)
     << "|crop=" << cfg.crop_fraction
     << "|col=" << color_mode_name(cfg.color)
     << "|lay=" << channel_layout_name(cfg.layout) << "|out=" << spec.out_h
     << "x" << spec.out_w << "|m=";
  for (float v : mean) os << v << ",";
  os << "|s=";
  for (float v : stddev) os << v << ",";
  return os.str();
}

namespace {

// Every pre-processing step after the decode, up to the color round trip.
ImageU8 resize_crop_color(const ImageU8& decoded, const SysNoiseConfig& cfg,
                          const PipelineSpec& spec) {
  // Crop-geometry knob: training resizes straight to the model input
  // (fraction 1.0); the torchvision-convention deployment path resizes to
  // out/fraction and center-crops the model input out of it.
  if (cfg.crop_fraction < 1.0f) {
    const int mid_h = static_cast<int>(
        std::round(static_cast<float>(spec.out_h) / cfg.crop_fraction));
    const int mid_w = static_cast<int>(
        std::round(static_cast<float>(spec.out_w) / cfg.crop_fraction));
    ImageU8 enlarged = resize(decoded, mid_h, mid_w, cfg.resize);
    ImageU8 cropped = center_crop(enlarged, spec.out_h, spec.out_w);
    return apply_color_mode(cropped, cfg.color);
  }
  ImageU8 resized = resize(decoded, spec.out_h, spec.out_w, cfg.resize);
  return apply_color_mode(resized, cfg.color);
}

// Normalize with the effective stats, then apply the channel-layout knob:
// channels-last runtimes hand the network a tensor that round-tripped
// through an NHWC(FP16) staging buffer.
Tensor to_network_input(const ImageU8& img, const SysNoiseConfig& cfg,
                        const std::vector<float>& mean,
                        const std::vector<float>& stddev) {
  Tensor t = image_to_tensor(img, mean, stddev);
  if (cfg.layout == ChannelLayout::kNHWCRoundTrip) nhwc_round_trip_(t);
  return t;
}

thread_local DecodeMemo* t_decode_memo = nullptr;

}  // namespace

ImageU8 preprocess_image(const std::vector<std::uint8_t>& jpeg_bytes,
                         const SysNoiseConfig& cfg, const PipelineSpec& spec) {
  return resize_crop_color(jpeg::decode(jpeg_bytes, cfg.decoder), cfg, spec);
}

Tensor preprocess(const std::vector<std::uint8_t>& jpeg_bytes,
                  const SysNoiseConfig& cfg, const PipelineSpec& spec) {
  const auto [mean, stddev] = effective_norm_stats(cfg, spec);
  return to_network_input(preprocess_image(jpeg_bytes, cfg, spec), cfg, mean,
                          stddev);
}

std::shared_ptr<const DecodeMemo::Images> DecodeMemo::get(
    const JpegList& jpegs, jpeg::DecoderVendor vendor) {
  const Key key{vendor, jpegs};
  std::promise<std::shared_ptr<const Images>> promise;
  std::shared_future<std::shared_ptr<const Images>> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[key];
    if (std::shared_ptr<const Images> images = e.done.lock()) {
      recent_ = images;
      return images;
    }
    if (e.pending.valid())
      future = e.pending;
    else
      e.pending = promise.get_future().share();
  }
  // A concurrent request is decoding this list: wait for its result (or
  // its exception).
  if (future.valid()) {
    std::shared_ptr<const Images> images = future.get();
    std::lock_guard<std::mutex> lock(mu_);
    recent_ = images;
    return images;
  }
  std::shared_ptr<const Images> images;
  try {
    auto decoded = std::make_shared<Images>();
    decoded->reserve(jpegs.size());
    for (const std::vector<std::uint8_t>* bytes : jpegs)
      decoded->push_back(jpeg::decode(*bytes, vendor));
    images = std::move(decoded);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    // The entry now holds the list only weakly: the callers' references and
    // recent_ decide how long it lives.
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[key];
    e.pending = {};
    e.done = images;
    recent_ = images;
  }
  promise.set_value(images);
  return images;
}

DecodeMemoScope::DecodeMemoScope(DecodeMemo& memo) : prev_(t_decode_memo) {
  t_decode_memo = &memo;
}

DecodeMemoScope::~DecodeMemoScope() { t_decode_memo = prev_; }

PreprocessedBatches preprocess_batches(const JpegList& jpegs,
                                       const SysNoiseConfig& cfg,
                                       const PipelineSpec& spec,
                                       int batch_size) {
  const auto [mean, stddev] = effective_norm_stats(cfg, spec);
  std::shared_ptr<const DecodeMemo::Images> decoded;
  if (t_decode_memo != nullptr) decoded = t_decode_memo->get(jpegs, cfg.decoder);
  PreprocessedBatches out;
  out.batch_size = batch_size;
  out.num_samples = static_cast<int>(jpegs.size());
  const int n = out.num_samples;
  for (int b = 0; b < n; b += batch_size) {
    const int bs = std::min(batch_size, n - b);
    std::vector<Tensor> items;
    items.reserve(static_cast<std::size_t>(bs));
    for (int i = 0; i < bs; ++i) {
      const auto s = static_cast<std::size_t>(b + i);
      items.push_back(to_network_input(
          decoded != nullptr ? resize_crop_color((*decoded)[s], cfg, spec)
                             : preprocess_image(*jpegs[s], cfg, spec),
          cfg, mean, stddev));
    }
    out.inputs.push_back(stack_front(items));
  }
  return out;
}

}  // namespace sysnoise
