#include "resize/pillow_resize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "resize/filters.h"

namespace sysnoise {

namespace {

// Pillow's fixed-point precision for uint8 resampling (Resample.c).
constexpr int kPrecisionBits = 32 - 8 - 2;

struct FilterDef {
  double (*fn)(double);
  double support;
};

double cubic_pillow(double x) { return filter_cubic(x, -0.5); }
double lanczos3(double x) { return filter_lanczos(x, 3); }

FilterDef filter_def(PillowFilter f) {
  switch (f) {
    case PillowFilter::kBox: return {filter_box, 0.5};
    case PillowFilter::kBilinear: return {filter_triangle, 1.0};
    case PillowFilter::kHamming: return {filter_hamming, 1.0};
    case PillowFilter::kBicubic: return {cubic_pillow, 2.0};
    case PillowFilter::kLanczos: return {lanczos3, 3.0};
    case PillowFilter::kNearest: break;
  }
  throw std::logic_error("filter_def: nearest has no kernel");
}

// Precomputed bounds + normalized fixed-point coefficients for one axis
// (PIL precompute_coeffs), in one flat allocation: output i's taps are
// coeffs[i * ksize, i * ksize + xsize[i]).
struct AxisCoeffs {
  int ksize = 0;             // coefficient stride per output
  std::vector<int> xmin;     // first source index per output
  std::vector<int> xsize;    // tap count per output
  std::vector<int> coeffs;   // fixed-point weights, ksize per output

  const int* taps(int i) const {
    return coeffs.data() + static_cast<std::size_t>(i) * ksize;
  }
};

AxisCoeffs precompute(int in_size, int out_size, const FilterDef& fd) {
  const double scale = static_cast<double>(in_size) / out_size;
  const double filterscale = std::max(scale, 1.0);  // antialias on downscale
  const double support = fd.support * filterscale;

  AxisCoeffs ac;
  // PIL's bound on the taps per output: xmax - xmin < 2 * support + 1.
  ac.ksize = static_cast<int>(std::ceil(support)) * 2 + 1;
  ac.xmin.resize(static_cast<std::size_t>(out_size));
  ac.xsize.resize(static_cast<std::size_t>(out_size));
  ac.coeffs.assign(static_cast<std::size_t>(out_size) * ac.ksize, 0);

  std::vector<double> w(static_cast<std::size_t>(ac.ksize));
  for (int xx = 0; xx < out_size; ++xx) {
    const double center = (xx + 0.5) * scale;
    int xmin = static_cast<int>(center - support + 0.5);
    if (xmin < 0) xmin = 0;
    int xmax = static_cast<int>(center + support + 0.5);
    if (xmax > in_size) xmax = in_size;
    const int n = xmax - xmin;
    if (n > ac.ksize) throw std::logic_error("pillow_resize: tap bound exceeded");

    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const double val = fd.fn((xmin + i + 0.5 - center) / filterscale);
      w[static_cast<std::size_t>(i)] = val;
      total += val;
    }
    int* fixed = ac.coeffs.data() + static_cast<std::size_t>(xx) * ac.ksize;
    for (int i = 0; i < n; ++i) {
      const double norm = total != 0.0 ? w[static_cast<std::size_t>(i)] / total : 0.0;
      // Pillow rounds half away from zero when quantizing coefficients.
      fixed[i] = static_cast<int>(std::round(norm * (1 << kPrecisionBits)));
    }
    ac.xmin[static_cast<std::size_t>(xx)] = xmin;
    ac.xsize[static_cast<std::size_t>(xx)] = n;
  }
  return ac;
}

inline std::uint8_t clip8(std::int64_t acc) {
  // Pillow: add half, shift, clamp.
  const std::int64_t v = (acc + (1ll << (kPrecisionBits - 1))) >> kPrecisionBits;
  return static_cast<std::uint8_t>(std::clamp<std::int64_t>(v, 0, 255));
}

// Both passes accumulate exact int64 sums of int weights times bytes, so
// the order the taps are added in cannot change a byte.
ImageU8 resample_horizontal(const ImageU8& src, int out_w, const AxisCoeffs& ac) {
  const int h = src.height(), c = src.channels();
  const std::size_t in_row = static_cast<std::size_t>(src.width()) * c;
  const std::size_t out_row = static_cast<std::size_t>(out_w) * c;
  ImageU8 out(h, out_w, c);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* s = src.data() + static_cast<std::size_t>(y) * in_row;
    std::uint8_t* o = out.data() + static_cast<std::size_t>(y) * out_row;
    for (int x = 0; x < out_w; ++x) {
      const std::uint8_t* px =
          s + static_cast<std::size_t>(ac.xmin[static_cast<std::size_t>(x)]) * c;
      const int* cf = ac.taps(x);
      const int n = ac.xsize[static_cast<std::size_t>(x)];
      for (int ch = 0; ch < c; ++ch) {
        std::int64_t acc = 0;
        for (int i = 0; i < n; ++i)
          acc += static_cast<std::int64_t>(cf[i]) * px[i * c + ch];
        *o++ = clip8(acc);
      }
    }
  }
  return out;
}

ImageU8 resample_vertical(const ImageU8& src, int out_h, const AxisCoeffs& ac) {
  const int w = src.width(), c = src.channels();
  const std::size_t row = static_cast<std::size_t>(w) * c;
  ImageU8 out(out_h, w, c);
  std::vector<std::int64_t> acc(row);
  for (int y = 0; y < out_h; ++y) {
    std::fill(acc.begin(), acc.end(), 0);
    const int* cf = ac.taps(y);
    const int ymin = ac.xmin[static_cast<std::size_t>(y)];
    for (int i = 0; i < ac.xsize[static_cast<std::size_t>(y)]; ++i) {
      const std::int64_t k = cf[i];
      const std::uint8_t* s =
          src.data() + static_cast<std::size_t>(ymin + i) * row;
      for (std::size_t j = 0; j < row; ++j) acc[j] += k * s[j];
    }
    std::uint8_t* o = out.data() + static_cast<std::size_t>(y) * row;
    for (std::size_t j = 0; j < row; ++j) o[j] = clip8(acc[j]);
  }
  return out;
}

ImageU8 nearest_resize(const ImageU8& src, int out_h, int out_w) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  ImageU8 out(out_h, out_w, src.channels());
  for (int y = 0; y < out_h; ++y) {
    const int iy = std::min(static_cast<int>((y + 0.5) * sy), src.height() - 1);
    for (int x = 0; x < out_w; ++x) {
      const int ix = std::min(static_cast<int>((x + 0.5) * sx), src.width() - 1);
      for (int ch = 0; ch < src.channels(); ++ch)
        out.at(y, x, ch) = src.at(iy, ix, ch);
    }
  }
  return out;
}

}  // namespace

ImageU8 pillow_resize(const ImageU8& src, int out_h, int out_w, PillowFilter f) {
  if (out_h <= 0 || out_w <= 0)
    throw std::invalid_argument("pillow_resize: bad output size");
  if (f == PillowFilter::kNearest) return nearest_resize(src, out_h, out_w);
  const FilterDef fd = filter_def(f);
  // Horizontal then vertical, with uint8 rounding between passes (as PIL).
  const AxisCoeffs hx = precompute(src.width(), out_w, fd);
  ImageU8 tmp = resample_horizontal(src, out_w, hx);
  const AxisCoeffs vx = precompute(src.height(), out_h, fd);
  return resample_vertical(tmp, out_h, vx);
}

}  // namespace sysnoise
