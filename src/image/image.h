// 8-bit interleaved RGB image — the unit of currency of the pre-processing
// pipeline (decoder output, resize input/output, color round-trip target).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sysnoise {

class ImageU8 {
 public:
  ImageU8() = default;
  ImageU8(int height, int width, int channels = 3)
      : h_(height), w_(width), c_(channels),
        data_(static_cast<std::size_t>(height) * width * channels, 0) {}

  int height() const { return h_; }
  int width() const { return w_; }
  int channels() const { return c_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  std::uint8_t* data() { return data_.data(); }
  const std::uint8_t* data() const { return data_.data(); }
  std::vector<std::uint8_t>& vec() { return data_; }
  const std::vector<std::uint8_t>& vec() const { return data_; }

  std::uint8_t& at(int y, int x, int ch) {
    return data_[(static_cast<std::size_t>(y) * w_ + x) * c_ + ch];
  }
  std::uint8_t at(int y, int x, int ch) const {
    return data_[(static_cast<std::size_t>(y) * w_ + x) * c_ + ch];
  }

  // Clamped accessor (replicate border) used by resamplers.
  std::uint8_t at_clamped(int y, int x, int ch) const;

 private:
  int h_ = 0;
  int w_ = 0;
  int c_ = 0;
  std::vector<std::uint8_t> data_;
};

// Inline: the resamplers and the JPEG color conversion call it per byte.
inline std::uint8_t clamp_u8(int v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
}
std::uint8_t clamp_u8f(float v);

// HWC uint8 -> CHW float tensor, normalized as (v/255 - mean) / std per channel.
// mean/std must have `channels` entries.
Tensor image_to_tensor(const ImageU8& img, const std::vector<float>& mean,
                       const std::vector<float>& stddev);

// Unnormalized conversion: CHW float in [0, 255].
Tensor image_to_tensor_raw(const ImageU8& img);

// CHW float in [0,255] -> HWC uint8 with rounding + clamping.
ImageU8 tensor_to_image(const Tensor& chw);

}  // namespace sysnoise
