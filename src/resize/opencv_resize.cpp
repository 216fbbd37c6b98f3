#include "resize/opencv_resize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "resize/filters.h"

namespace sysnoise {

namespace {

constexpr int kCoefBits = 11;  // OpenCV INTER_RESIZE_COEF_BITS
constexpr int kCoefScale = 1 << kCoefBits;

ImageU8 cv_nearest(const ImageU8& src, int out_h, int out_w) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  ImageU8 out(out_h, out_w, src.channels());
  for (int y = 0; y < out_h; ++y) {
    // OpenCV INTER_NEAREST: floor(dst * scale) — no half-pixel shift,
    // a deliberate asymmetry vs Pillow's center-based nearest.
    const int iy = std::min(static_cast<int>(y * sy), src.height() - 1);
    for (int x = 0; x < out_w; ++x) {
      const int ix = std::min(static_cast<int>(x * sx), src.width() - 1);
      for (int ch = 0; ch < src.channels(); ++ch)
        out.at(y, x, ch) = src.at(iy, ix, ch);
    }
  }
  return out;
}

ImageU8 cv_linear(const ImageU8& src, int out_h, int out_w) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  const int c = src.channels();
  ImageU8 out(out_h, out_w, c);
  for (int y = 0; y < out_h; ++y) {
    double fy = (y + 0.5) * sy - 0.5;
    int iy = static_cast<int>(std::floor(fy));
    fy -= iy;
    if (iy < 0) { iy = 0; fy = 0.0; }
    if (iy >= src.height() - 1) { iy = src.height() - 1; fy = 0.0; }
    const int wy1 = static_cast<int>(std::lround(fy * kCoefScale));
    const int wy0 = kCoefScale - wy1;
    for (int x = 0; x < out_w; ++x) {
      double fx = (x + 0.5) * sx - 0.5;
      int ix = static_cast<int>(std::floor(fx));
      fx -= ix;
      if (ix < 0) { ix = 0; fx = 0.0; }
      if (ix >= src.width() - 1) { ix = src.width() - 1; fx = 0.0; }
      const int wx1 = static_cast<int>(std::lround(fx * kCoefScale));
      const int wx0 = kCoefScale - wx1;
      const int iy1 = std::min(iy + 1, src.height() - 1);
      const int ix1 = std::min(ix + 1, src.width() - 1);
      for (int ch = 0; ch < c; ++ch) {
        const std::int64_t acc =
            static_cast<std::int64_t>(wy0) * (wx0 * src.at(iy, ix, ch) + wx1 * src.at(iy, ix1, ch)) +
            static_cast<std::int64_t>(wy1) * (wx0 * src.at(iy1, ix, ch) + wx1 * src.at(iy1, ix1, ch));
        out.at(y, x, ch) = clamp_u8(
            static_cast<int>((acc + (1ll << (2 * kCoefBits - 1))) >> (2 * kCoefBits)));
      }
    }
  }
  return out;
}

// Generic float-kernel sampler with fixed taps (cubic: 4, lanczos4: 8).
// Each output pixel is sum_i wy[i] * row_i with row_i = sum_j wx[j] * src at
// the clamped (replicate-border) tap positions, both sums in tap order. The
// column weights and clamped columns are computed once per call, the row
// weights once per output row, with the same doubles, sums and divides as
// evaluating them per pixel. A row_i depends only on its source row and
// output column, so it is computed once per source row into a ring of `taps`
// rows: one output row's taps are consecutive source rows (repeated at the
// border) and never share a slot.
ImageU8 cv_kernel(const ImageU8& src, int out_h, int out_w, int taps,
                  double (*kernel)(double)) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  const int c = src.channels();
  const int half = taps / 2;
  const auto t = static_cast<std::size_t>(taps);
  // Normalized weights of the `taps` samples around `f` on an axis of `len`
  // samples, and their clamped indices.
  auto axis_taps = [&](double f, int len, double* w, int* idx) {
    const int i0 = static_cast<int>(std::floor(f));
    double sum = 0.0;
    for (int i = 0; i < taps; ++i) {
      w[i] = kernel(f - (i0 - half + 1 + i));
      sum += w[i];
      idx[i] = std::clamp(i0 - half + 1 + i, 0, len - 1);
    }
    for (int i = 0; i < taps; ++i) w[i] /= sum;
  };
  std::vector<double> wx(static_cast<std::size_t>(out_w) * t);
  std::vector<int> xs(wx.size());
  for (int x = 0; x < out_w; ++x)
    axis_taps((x + 0.5) * sx - 0.5, src.width(), &wx[x * t], &xs[x * t]);

  const std::size_t row_len = static_cast<std::size_t>(out_w) * c;
  std::vector<double> ring(t * row_len);
  std::vector<int> ring_row(t, -1);
  auto row_sums = [&](int yy) -> const double* {
    const std::size_t slot = static_cast<std::size_t>(yy) % t;
    double* dst = &ring[slot * row_len];
    if (ring_row[slot] == yy) return dst;
    const std::uint8_t* srow =
        src.data() + static_cast<std::size_t>(yy) * src.width() * c;
    for (int x = 0; x < out_w; ++x) {
      const double* w = &wx[x * t];
      const int* xx = &xs[x * t];
      for (int ch = 0; ch < c; ++ch) {
        double row = 0.0;
        for (int j = 0; j < taps; ++j)
          row += w[j] * srow[static_cast<std::size_t>(xx[j]) * c + ch];
        dst[static_cast<std::size_t>(x) * c + ch] = row;
      }
    }
    ring_row[slot] = yy;
    return dst;
  };

  ImageU8 out(out_h, out_w, c);
  std::vector<double> wy(t);
  std::vector<int> ys(t);
  std::vector<const double*> rows(t);
  std::uint8_t* o = out.data();
  for (int y = 0; y < out_h; ++y) {
    axis_taps((y + 0.5) * sy - 0.5, src.height(), wy.data(), ys.data());
    for (std::size_t i = 0; i < t; ++i) rows[i] = row_sums(ys[i]);
    for (std::size_t e = 0; e < row_len; ++e) {
      double acc = 0.0;
      for (std::size_t i = 0; i < t; ++i) acc += wy[i] * rows[i][e];
      *o++ = clamp_u8f(static_cast<float>(acc));
    }
  }
  return out;
}

double cubic_cv(double x) { return filter_cubic(x, -0.75); }
double lanczos4(double x) { return filter_lanczos(x, 4); }

// Exact fractional box coverage for downscale (INTER_AREA).
ImageU8 cv_area_down(const ImageU8& src, int out_h, int out_w) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  const int c = src.channels();
  ImageU8 out(out_h, out_w, c);
  for (int y = 0; y < out_h; ++y) {
    const double y0 = y * sy, y1 = (y + 1) * sy;
    const int iy0 = static_cast<int>(std::floor(y0));
    const int iy1 = std::min(static_cast<int>(std::ceil(y1)), src.height());
    for (int x = 0; x < out_w; ++x) {
      const double x0 = x * sx, x1 = (x + 1) * sx;
      const int ix0 = static_cast<int>(std::floor(x0));
      const int ix1 = std::min(static_cast<int>(std::ceil(x1)), src.width());
      for (int ch = 0; ch < c; ++ch) {
        double acc = 0.0, area = 0.0;
        for (int yy = iy0; yy < iy1; ++yy) {
          const double hy = std::min<double>(yy + 1, y1) - std::max<double>(yy, y0);
          for (int xx = ix0; xx < ix1; ++xx) {
            const double wxp = std::min<double>(xx + 1, x1) - std::max<double>(xx, x0);
            acc += hy * wxp * src.at(yy, xx, ch);
            area += hy * wxp;
          }
        }
        out.at(y, x, ch) = clamp_u8f(static_cast<float>(acc / area));
      }
    }
  }
  return out;
}

}  // namespace

ImageU8 opencv_resize(const ImageU8& src, int out_h, int out_w, CvInterp interp) {
  if (out_h <= 0 || out_w <= 0)
    throw std::invalid_argument("opencv_resize: bad output size");
  switch (interp) {
    case CvInterp::kNearest:
      return cv_nearest(src, out_h, out_w);
    case CvInterp::kLinear:
      return cv_linear(src, out_h, out_w);
    case CvInterp::kCubic:
      return cv_kernel(src, out_h, out_w, 4, cubic_cv);
    case CvInterp::kLanczos4:
      return cv_kernel(src, out_h, out_w, 8, lanczos4);
    case CvInterp::kArea:
      if (out_h <= src.height() && out_w <= src.width())
        return cv_area_down(src, out_h, out_w);
      return cv_linear(src, out_h, out_w);  // OpenCV's upscale fallback
  }
  throw std::logic_error("opencv_resize: unknown interp");
}

}  // namespace sysnoise
