#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "image/metrics.h"
#include "image/synthetic.h"
#include "resize/filters.h"
#include "resize/opencv_resize.h"
#include "resize/pillow_resize.h"
#include "resize/resize.h"
#include "tensor/rng.h"

namespace sysnoise {
namespace {

ImageU8 make_image(int h, int w, std::uint64_t seed = 21) {
  Rng r(seed);
  TextureParams p = class_texture(4, 10, r);
  return render_texture(p, h, w, r);
}

ImageU8 constant_image(int h, int w, std::uint8_t v) {
  ImageU8 img(h, w, 3);
  for (auto& x : img.vec()) x = v;
  return img;
}

// ---------------------------------------------------------------------------
// Kernel functions
// ---------------------------------------------------------------------------

TEST(Filters, TriangleProperties) {
  EXPECT_DOUBLE_EQ(filter_triangle(0.0), 1.0);
  EXPECT_DOUBLE_EQ(filter_triangle(0.5), 0.5);
  EXPECT_DOUBLE_EQ(filter_triangle(1.0), 0.0);
  EXPECT_DOUBLE_EQ(filter_triangle(-0.25), 0.75);
}

TEST(Filters, BoxSupport) {
  EXPECT_DOUBLE_EQ(filter_box(0.0), 1.0);
  EXPECT_DOUBLE_EQ(filter_box(0.5), 1.0);   // right-inclusive
  EXPECT_DOUBLE_EQ(filter_box(-0.5), 0.0);  // left-exclusive
  EXPECT_DOUBLE_EQ(filter_box(0.51), 0.0);
}

TEST(Filters, CubicInterpolatesConstants) {
  // Keys kernels reproduce constants: sum over integer-shifted taps == 1.
  for (double a : {-0.5, -0.75}) {
    for (double frac : {0.0, 0.25, 0.5, 0.9}) {
      double s = 0.0;
      for (int i = -1; i <= 2; ++i) s += filter_cubic(frac - i, a);
      EXPECT_NEAR(s, 1.0, 1e-12) << "a=" << a << " frac=" << frac;
    }
  }
}

TEST(Filters, CubicAtIntegers) {
  for (double a : {-0.5, -0.75}) {
    EXPECT_DOUBLE_EQ(filter_cubic(0.0, a), 1.0);
    EXPECT_NEAR(filter_cubic(1.0, a), 0.0, 1e-12);
    EXPECT_NEAR(filter_cubic(2.0, a), 0.0, 1e-12);
  }
}

TEST(Filters, LanczosAtIntegers) {
  EXPECT_DOUBLE_EQ(filter_lanczos(0.0, 3), 1.0);
  for (int k = 1; k < 3; ++k) EXPECT_NEAR(filter_lanczos(k, 3), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(filter_lanczos(3.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(filter_lanczos(4.5, 4), filter_lanczos(-4.5, 4));
}

TEST(Filters, HammingProperties) {
  EXPECT_DOUBLE_EQ(filter_hamming(0.0), 1.0);
  EXPECT_DOUBLE_EQ(filter_hamming(1.0), 0.0);
  EXPECT_GT(filter_hamming(0.3), 0.0);
}

// ---------------------------------------------------------------------------
// Behavioural properties across all 11 methods
// ---------------------------------------------------------------------------

class AllMethods : public ::testing::TestWithParam<int> {
 protected:
  ResizeMethod method() const { return static_cast<ResizeMethod>(GetParam()); }
};

TEST_P(AllMethods, PreservesConstantImages) {
  const ImageU8 img = constant_image(37, 29, 173);
  for (auto [oh, ow] : {std::pair{16, 16}, {64, 64}, {37, 29}, {11, 53}}) {
    ImageU8 out = resize(img, oh, ow, method());
    ASSERT_EQ(out.height(), oh);
    ASSERT_EQ(out.width(), ow);
    for (auto v : out.vec())
      ASSERT_NEAR(static_cast<int>(v), 173, 1) << resize_method_name(method());
  }
}

TEST_P(AllMethods, IdentitySizeIsNearIdentity) {
  const ImageU8 img = make_image(24, 24);
  ImageU8 out = resize(img, 24, 24, method());
  // Same-size resize must be (almost) a no-op for every kernel.
  EXPECT_LE(image_max_diff(img, out), 2) << resize_method_name(method());
}

TEST_P(AllMethods, DownUpRoundTripReasonable) {
  const ImageU8 img = make_image(64, 64);
  ImageU8 small = resize(img, 32, 32, method());
  ImageU8 back = resize(small, 64, 64, method());
  EXPECT_GT(image_psnr(img, back), 12.0) << resize_method_name(method());
}

TEST_P(AllMethods, OutputRangeValid) {
  // High-contrast input must not produce out-of-range wraparound.
  ImageU8 img(16, 16, 3);
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      for (int c = 0; c < 3; ++c) img.at(y, x, c) = ((x + y) % 2) ? 255 : 0;
  ImageU8 out = resize(img, 23, 9, method());
  EXPECT_EQ(out.height(), 23);
  EXPECT_EQ(out.width(), 9);
  // (uint8 storage guarantees range; this checks no crash + exact dims.)
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllMethods, ::testing::Range(0, kNumResizeMethods));

// ---------------------------------------------------------------------------
// Cross-method disagreement: the SysNoise mechanism itself
// ---------------------------------------------------------------------------

TEST(ResizeNoise, MethodsDisagreeOnTexturedDownscale) {
  const ImageU8 img = make_image(96, 96, 5);
  const ImageU8 ref = resize(img, 32, 32, ResizeMethod::kPillowBilinear);
  int differing_methods = 0;
  for (ResizeMethod m : all_resize_methods()) {
    if (m == ResizeMethod::kPillowBilinear) continue;
    const ImageU8 out = resize(img, 32, 32, m);
    if (image_mae(ref, out) > 0.5) ++differing_methods;
  }
  // Every other method should measurably differ from Pillow-bilinear.
  EXPECT_EQ(differing_methods, kNumResizeMethods - 1);
}

TEST(ResizeNoise, SameNameDifferentPackageDiffers) {
  // The paper's package-level mismatch: "bilinear" is not one algorithm.
  const ImageU8 img = make_image(96, 96, 6);
  const ImageU8 a = resize(img, 32, 32, ResizeMethod::kPillowBilinear);
  const ImageU8 b = resize(img, 32, 32, ResizeMethod::kOpenCVBilinear);
  EXPECT_GT(image_mae(a, b), 0.5);  // antialiasing makes them diverge
  const ImageU8 an = resize(img, 32, 32, ResizeMethod::kPillowNearest);
  const ImageU8 bn = resize(img, 32, 32, ResizeMethod::kOpenCVNearest);
  EXPECT_GT(image_diff_fraction(an, bn), 0.05);  // coordinate mapping differs
}

TEST(ResizeNoise, UpscaleBilinearStylesClose) {
  // On 2x upscale (no antialias in play) the two bilinears nearly agree.
  const ImageU8 img = make_image(32, 32, 7);
  const ImageU8 a = resize(img, 64, 64, ResizeMethod::kPillowBilinear);
  const ImageU8 b = resize(img, 64, 64, ResizeMethod::kOpenCVBilinear);
  EXPECT_LT(image_mae(a, b), 2.0);
  EXPECT_GT(image_psnr(a, b), 30.0);
}

TEST(ResizeNoise, AreaEqualsBoxOnIntegerDownscale) {
  // INTER_AREA and Pillow BOX both compute exact box averages for integer
  // factors; results should match to within 1 LSB of rounding.
  const ImageU8 img = make_image(64, 64, 8);
  const ImageU8 a = resize(img, 32, 32, ResizeMethod::kOpenCVArea);
  const ImageU8 b = resize(img, 32, 32, ResizeMethod::kPillowBox);
  EXPECT_LE(image_max_diff(a, b), 1);
}

// ---------------------------------------------------------------------------
// Pillow nearest / OpenCV nearest exact semantics
// ---------------------------------------------------------------------------

TEST(ResizeSemantics, PillowNearestPicksCenters) {
  // 4 -> 2 downscale: output pixel 0 samples source index floor((0+.5)*2)=1.
  ImageU8 img(1, 4, 1);
  img.at(0, 0, 0) = 10;
  img.at(0, 1, 0) = 20;
  img.at(0, 2, 0) = 30;
  img.at(0, 3, 0) = 40;
  ImageU8 out = resize(img, 1, 2, ResizeMethod::kPillowNearest);
  EXPECT_EQ(out.at(0, 0, 0), 20);
  EXPECT_EQ(out.at(0, 1, 0), 40);
}

TEST(ResizeSemantics, OpenCVNearestPicksFloors) {
  // OpenCV: source index floor(0*2)=0, floor(1*2)=2.
  ImageU8 img(1, 4, 1);
  img.at(0, 0, 0) = 10;
  img.at(0, 1, 0) = 20;
  img.at(0, 2, 0) = 30;
  img.at(0, 3, 0) = 40;
  ImageU8 out = resize(img, 1, 2, ResizeMethod::kOpenCVNearest);
  EXPECT_EQ(out.at(0, 0, 0), 10);
  EXPECT_EQ(out.at(0, 1, 0), 30);
}

TEST(ResizeSemantics, BilinearExactMidpoint) {
  // 2x upscale of [0, 100]: OpenCV half-pixel mapping puts output 1 at
  // source 0.25 -> 25.
  ImageU8 img(1, 2, 1);
  img.at(0, 0, 0) = 0;
  img.at(0, 1, 0) = 100;
  ImageU8 out = resize(img, 1, 4, ResizeMethod::kOpenCVBilinear);
  EXPECT_EQ(out.at(0, 0, 0), 0);
  EXPECT_NEAR(out.at(0, 1, 0), 25, 1);
  EXPECT_NEAR(out.at(0, 2, 0), 75, 1);
  EXPECT_EQ(out.at(0, 3, 0), 100);
}

// The seed's OpenCV cubic/Lanczos4 sampler, verbatim: it evaluates both
// kernels' weights per output pixel and reads through at_clamped. The oracle
// the hoisted-weight sampler must match byte for byte.
ImageU8 seed_cv_kernel(const ImageU8& src, int out_h, int out_w, int taps,
                       double (*kernel)(double)) {
  const double sy = static_cast<double>(src.height()) / out_h;
  const double sx = static_cast<double>(src.width()) / out_w;
  const int c = src.channels();
  const int half = taps / 2;
  ImageU8 out(out_h, out_w, c);
  std::vector<double> wy(static_cast<std::size_t>(taps)),
      wx(static_cast<std::size_t>(taps));
  for (int y = 0; y < out_h; ++y) {
    const double fy = (y + 0.5) * sy - 0.5;
    const int iy = static_cast<int>(std::floor(fy));
    double sumy = 0.0;
    for (int i = 0; i < taps; ++i) {
      wy[static_cast<std::size_t>(i)] = kernel(fy - (iy - half + 1 + i));
      sumy += wy[static_cast<std::size_t>(i)];
    }
    for (auto& v : wy) v /= sumy;
    for (int x = 0; x < out_w; ++x) {
      const double fx = (x + 0.5) * sx - 0.5;
      const int ix = static_cast<int>(std::floor(fx));
      double sumx = 0.0;
      for (int i = 0; i < taps; ++i) {
        wx[static_cast<std::size_t>(i)] = kernel(fx - (ix - half + 1 + i));
        sumx += wx[static_cast<std::size_t>(i)];
      }
      for (auto& v : wx) v /= sumx;
      for (int ch = 0; ch < c; ++ch) {
        double acc = 0.0;
        for (int i = 0; i < taps; ++i) {
          const int yy = iy - half + 1 + i;
          double row = 0.0;
          for (int j = 0; j < taps; ++j) {
            const int xx = ix - half + 1 + j;
            row += wx[static_cast<std::size_t>(j)] * src.at_clamped(yy, xx, ch);
          }
          acc += wy[static_cast<std::size_t>(i)] * row;
        }
        out.at(y, x, ch) = clamp_u8f(static_cast<float>(acc));
      }
    }
  }
  return out;
}

double seed_cubic_cv(double x) { return filter_cubic(x, -0.75); }
double seed_lanczos4(double x) { return filter_lanczos(x, 4); }

TEST(ResizeSemantics, OpenCvKernelResizeMatchesTheSeedLoop) {
  struct Case {
    int in_h, in_w, out_h, out_w;
  };
  // Downscales, an upscale with unequal factors, and a 1-pixel-wide source
  // whose every column tap clamps.
  const Case cases[] = {
      {48, 48, 32, 32}, {96, 96, 64, 64}, {20, 13, 33, 29}, {15, 1, 9, 4}};
  for (const Case& cs : cases) {
    // Texture plus per-byte noise, so neighbouring taps differ.
    ImageU8 img = make_image(cs.in_h, cs.in_w, 5);
    Rng rng(static_cast<std::uint64_t>(cs.in_h * 131 + cs.in_w));
    for (auto& v : img.vec())
      v = clamp_u8(v + static_cast<int>(rng.uniform_f(-40.0f, 40.0f)));
    const ImageU8 cubic =
        opencv_resize(img, cs.out_h, cs.out_w, CvInterp::kCubic);
    const ImageU8 lanczos =
        opencv_resize(img, cs.out_h, cs.out_w, CvInterp::kLanczos4);
    EXPECT_EQ(cubic.vec(),
              seed_cv_kernel(img, cs.out_h, cs.out_w, 4, seed_cubic_cv).vec())
        << "cubic " << cs.in_h << "x" << cs.in_w << " -> " << cs.out_h << "x"
        << cs.out_w;
    EXPECT_EQ(lanczos.vec(),
              seed_cv_kernel(img, cs.out_h, cs.out_w, 8, seed_lanczos4).vec())
        << "lanczos4 " << cs.in_h << "x" << cs.in_w << " -> " << cs.out_h
        << "x" << cs.out_w;
  }
}

// The seed's Pillow resampler, verbatim: one coefficient vector per output
// and per-tap ImageU8::at reads. The oracle the flat-coefficient row loops
// must match byte for byte.
namespace seed_pillow {

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

struct AxisCoeffs {
  std::vector<int> xmin;
  std::vector<int> xsize;
  std::vector<std::vector<int>> coeffs;
};

AxisCoeffs precompute(int in_size, int out_size, const FilterDef& fd) {
  AxisCoeffs ac;
  ac.xmin.resize(static_cast<std::size_t>(out_size));
  ac.xsize.resize(static_cast<std::size_t>(out_size));
  ac.coeffs.resize(static_cast<std::size_t>(out_size));

  const double scale = static_cast<double>(in_size) / out_size;
  const double filterscale = std::max(scale, 1.0);
  const double support = fd.support * filterscale;

  std::vector<double> w;
  for (int xx = 0; xx < out_size; ++xx) {
    const double center = (xx + 0.5) * scale;
    int xmin = static_cast<int>(center - support + 0.5);
    if (xmin < 0) xmin = 0;
    int xmax = static_cast<int>(center + support + 0.5);
    if (xmax > in_size) xmax = in_size;
    const int n = xmax - xmin;

    w.assign(static_cast<std::size_t>(n), 0.0);
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      const double val = fd.fn((xmin + i + 0.5 - center) / filterscale);
      w[static_cast<std::size_t>(i)] = val;
      total += val;
    }
    std::vector<int> fixed(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double norm = total != 0.0 ? w[static_cast<std::size_t>(i)] / total : 0.0;
      fixed[static_cast<std::size_t>(i)] =
          static_cast<int>(std::round(norm * (1 << kPrecisionBits)));
    }
    ac.xmin[static_cast<std::size_t>(xx)] = xmin;
    ac.xsize[static_cast<std::size_t>(xx)] = n;
    ac.coeffs[static_cast<std::size_t>(xx)] = std::move(fixed);
  }
  return ac;
}

std::uint8_t clip8(std::int64_t acc) {
  const std::int64_t v = (acc + (1ll << (kPrecisionBits - 1))) >> kPrecisionBits;
  return clamp_u8(static_cast<int>(std::clamp<std::int64_t>(v, 0, 255)));
}

ImageU8 resample_horizontal(const ImageU8& src, int out_w, const AxisCoeffs& ac) {
  const int h = src.height(), c = src.channels();
  ImageU8 out(h, out_w, c);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < out_w; ++x) {
      const int xmin = ac.xmin[static_cast<std::size_t>(x)];
      const auto& cf = ac.coeffs[static_cast<std::size_t>(x)];
      for (int ch = 0; ch < c; ++ch) {
        std::int64_t acc = 0;
        for (int i = 0; i < ac.xsize[static_cast<std::size_t>(x)]; ++i)
          acc += static_cast<std::int64_t>(cf[static_cast<std::size_t>(i)]) *
                 src.at(y, xmin + i, ch);
        out.at(y, x, ch) = clip8(acc);
      }
    }
  return out;
}

ImageU8 resample_vertical(const ImageU8& src, int out_h, const AxisCoeffs& ac) {
  const int w = src.width(), c = src.channels();
  ImageU8 out(out_h, w, c);
  for (int y = 0; y < out_h; ++y) {
    const int ymin = ac.xmin[static_cast<std::size_t>(y)];
    const auto& cf = ac.coeffs[static_cast<std::size_t>(y)];
    for (int x = 0; x < w; ++x)
      for (int ch = 0; ch < c; ++ch) {
        std::int64_t acc = 0;
        for (int i = 0; i < ac.xsize[static_cast<std::size_t>(y)]; ++i)
          acc += static_cast<std::int64_t>(cf[static_cast<std::size_t>(i)]) *
                 src.at(ymin + i, x, ch);
        out.at(y, x, ch) = clip8(acc);
      }
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

ImageU8 pillow_resize(const ImageU8& src, int out_h, int out_w, PillowFilter f) {
  if (f == PillowFilter::kNearest) return nearest_resize(src, out_h, out_w);
  const FilterDef fd = filter_def(f);
  const AxisCoeffs hx = precompute(src.width(), out_w, fd);
  ImageU8 tmp = resample_horizontal(src, out_w, hx);
  const AxisCoeffs vx = precompute(src.height(), out_h, fd);
  return resample_vertical(tmp, out_h, vx);
}

}  // namespace seed_pillow

TEST(ResizeSemantics, PillowResizeMatchesTheSeedLoop) {
  struct Case {
    int in_h, in_w, out_h, out_w;
  };
  // Downscales, an upscale with unequal factors, and 1-pixel dimensions on
  // both sides of the resize.
  const Case cases[] = {{48, 48, 32, 32}, {96, 96, 64, 64}, {20, 13, 33, 29},
                        {15, 1, 9, 4},    {1, 17, 5, 6},    {9, 7, 1, 1},
                        {1, 1, 3, 2}};
  const PillowFilter filters[] = {PillowFilter::kNearest, PillowFilter::kBox,
                                  PillowFilter::kBilinear, PillowFilter::kHamming,
                                  PillowFilter::kBicubic, PillowFilter::kLanczos};
  for (const Case& cs : cases) {
    // Texture plus per-byte noise, so neighbouring taps differ and the
    // negative Bicubic/Lanczos lobes overshoot past 0 and 255.
    ImageU8 img = make_image(cs.in_h, cs.in_w, 7);
    Rng rng(static_cast<std::uint64_t>(cs.in_h * 137 + cs.in_w));
    for (auto& v : img.vec())
      v = clamp_u8(v + static_cast<int>(rng.uniform_f(-90.0f, 90.0f)));
    // A single-channel copy covers the resampler's channel stride.
    ImageU8 gray(cs.in_h, cs.in_w, 1);
    for (int y = 0; y < cs.in_h; ++y)
      for (int x = 0; x < cs.in_w; ++x) gray.at(y, x, 0) = img.at(y, x, 1);
    for (const ImageU8* src : {&img, &gray})
      for (const PillowFilter f : filters)
        EXPECT_EQ(pillow_resize(*src, cs.out_h, cs.out_w, f).vec(),
                  seed_pillow::pillow_resize(*src, cs.out_h, cs.out_w, f).vec())
            << "filter " << static_cast<int>(f) << " " << cs.in_h << "x"
            << cs.in_w << "x" << src->channels() << " -> " << cs.out_h << "x"
            << cs.out_w;
  }
}

TEST(ResizeSemantics, ShorterSideKeepsAspect) {
  const ImageU8 img = make_image(60, 90);
  ImageU8 out = resize_shorter_side(img, 30, ResizeMethod::kPillowBilinear);
  EXPECT_EQ(out.height(), 30);
  EXPECT_EQ(out.width(), 45);
  const ImageU8 tall = make_image(90, 60);
  ImageU8 out2 = resize_shorter_side(tall, 30, ResizeMethod::kPillowBilinear);
  EXPECT_EQ(out2.height(), 45);
  EXPECT_EQ(out2.width(), 30);
}

TEST(ResizeSemantics, CenterCrop) {
  ImageU8 img(6, 8, 1);
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 8; ++x) img.at(y, x, 0) = static_cast<std::uint8_t>(y * 10 + x);
  ImageU8 c = center_crop(img, 2, 4);
  EXPECT_EQ(c.height(), 2);
  EXPECT_EQ(c.width(), 4);
  EXPECT_EQ(c.at(0, 0, 0), 22);  // y0=2, x0=2
  EXPECT_THROW(center_crop(img, 10, 2), std::invalid_argument);
}

TEST(ResizeSemantics, RejectsBadSizes) {
  const ImageU8 img = make_image(8, 8);
  EXPECT_THROW(resize(img, 0, 4, ResizeMethod::kPillowBilinear), std::invalid_argument);
  EXPECT_THROW(resize(img, 4, -1, ResizeMethod::kOpenCVArea), std::invalid_argument);
}

TEST(ResizeSemantics, MethodNamesUnique) {
  std::set<std::string> names;
  for (ResizeMethod m : all_resize_methods()) names.insert(resize_method_name(m));
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumResizeMethods));
}

}  // namespace
}  // namespace sysnoise
