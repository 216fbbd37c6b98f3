#include "image/image.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sysnoise {

std::uint8_t ImageU8::at_clamped(int y, int x, int ch) const {
  y = std::clamp(y, 0, h_ - 1);
  x = std::clamp(x, 0, w_ - 1);
  return at(y, x, ch);
}

std::uint8_t clamp_u8f(float v) {
  return clamp_u8(static_cast<int>(std::lround(v)));
}

Tensor image_to_tensor(const ImageU8& img, const std::vector<float>& mean,
                       const std::vector<float>& stddev) {
  const int c = img.channels(), h = img.height(), w = img.width();
  if (static_cast<int>(mean.size()) != c || static_cast<int>(stddev.size()) != c)
    throw std::invalid_argument("image_to_tensor: mean/std size mismatch");
  Tensor t({1, c, h, w});
  for (int ch = 0; ch < c; ++ch) {
    const float m = mean[static_cast<std::size_t>(ch)];
    const float s = stddev[static_cast<std::size_t>(ch)];
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        t.at4(0, ch, y, x) = (static_cast<float>(img.at(y, x, ch)) / 255.0f - m) / s;
  }
  return t;
}

Tensor image_to_tensor_raw(const ImageU8& img) {
  const int c = img.channels(), h = img.height(), w = img.width();
  Tensor t({1, c, h, w});
  for (int ch = 0; ch < c; ++ch)
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        t.at4(0, ch, y, x) = static_cast<float>(img.at(y, x, ch));
  return t;
}

ImageU8 tensor_to_image(const Tensor& chw) {
  if (chw.rank() != 4 || chw.dim(0) != 1)
    throw std::invalid_argument("tensor_to_image: expected [1,C,H,W]");
  const int c = chw.dim(1), h = chw.dim(2), w = chw.dim(3);
  ImageU8 img(h, w, c);
  for (int ch = 0; ch < c; ++ch)
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        img.at(y, x, ch) = clamp_u8f(chw.at4(0, ch, y, x));
  return img;
}

}  // namespace sysnoise
