#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "image/metrics.h"
#include "image/synthetic.h"
#include "jpeg/codec.h"
#include "jpeg/dct.h"
#include "jpeg/huffman.h"
#include "jpeg/quant_tables.h"
#include "jpeg/zigzag.h"
#include "tensor/rng.h"

namespace sysnoise::jpeg {
namespace {

ImageU8 test_image(int h, int w, std::uint64_t seed = 42) {
  sysnoise::Rng r(seed);
  TextureParams p = class_texture(2, 8, r);
  return render_texture(p, h, w, r);
}

// ---------------------------------------------------------------------------
// DCT kernels
// ---------------------------------------------------------------------------

TEST(Dct, ForwardInverseRoundTrip) {
  sysnoise::Rng r(1);
  float in[64], coef[64], out[64];
  for (auto& v : in) v = r.uniform_f(-128.0f, 127.0f);
  fdct8x8(in, coef);
  idct8x8_reference(coef, out);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(out[i], in[i], 1e-2f);
}

TEST(Dct, DcOnlyBlockIsFlat) {
  float coef[64] = {0};
  coef[0] = 80.0f;
  float out[64];
  idct8x8_reference(coef, out);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(out[i], 80.0f / 8.0f, 1e-4f);
}

TEST(Dct, ParsevalEnergyPreserved) {
  sysnoise::Rng r(2);
  float in[64], coef[64];
  for (auto& v : in) v = r.uniform_f(-100.0f, 100.0f);
  fdct8x8(in, coef);
  double e_in = 0, e_out = 0;
  for (int i = 0; i < 64; ++i) {
    e_in += static_cast<double>(in[i]) * in[i];
    e_out += static_cast<double>(coef[i]) * coef[i];
  }
  EXPECT_NEAR(e_in, e_out, e_in * 1e-5);
}

TEST(Dct, AanMatchesReference) {
  sysnoise::Rng r(3);
  for (int trial = 0; trial < 20; ++trial) {
    float coef[64], ref[64], aan[64];
    for (auto& v : coef) v = r.uniform_f(-200.0f, 200.0f);
    idct8x8_reference(coef, ref);
    idct8x8_aan(coef, aan);
    for (int i = 0; i < 64; ++i) EXPECT_NEAR(aan[i], ref[i], 0.05f) << trial;
  }
}

TEST(Dct, FixedPointTracksReferenceWithinRounding) {
  sysnoise::Rng r(4);
  for (int trial = 0; trial < 20; ++trial) {
    float coef[64], ref[64], fx13[64], fx9[64];
    for (auto& v : coef) v = static_cast<float>(r.uniform_int(201) - 100);
    idct8x8_reference(coef, ref);
    idct8x8_fixed(coef, fx13, 13);
    idct8x8_fixed(coef, fx9, 9);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(fx13[i], ref[i], 1.5f);
      EXPECT_NEAR(fx9[i], ref[i], 4.0f);
    }
  }
}

// Verbatim copy of the seed idct8x8_fixed (with the seed's double basis),
// which rebuilt the integer basis on every block and rounded each input
// coefficient once per output column.
void seed_idct8x8_fixed(const float in[64], float out[64], int bits) {
  double basis[8][8];
  for (int kk = 0; kk < 8; ++kk) {
    const double alpha = kk == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int n = 0; n < 8; ++n)
      basis[kk][n] = alpha * std::cos((2 * n + 1) * kk * std::numbers::pi / 16.0);
  }
  std::int32_t ib[8][8];
  const double scale = static_cast<double>(1 << bits);
  for (int k = 0; k < 8; ++k)
    for (int n = 0; n < 8; ++n)
      ib[k][n] = static_cast<std::int32_t>(std::lround(basis[k][n] * scale));

  std::int64_t tmp[64];
  const std::int64_t half = 1ll << (bits - 1);
  for (int v = 0; v < 8; ++v)
    for (int x = 0; x < 8; ++x) {
      std::int64_t s = 0;
      for (int u = 0; u < 8; ++u) {
        const auto coeff = static_cast<std::int64_t>(std::lround(in[v * 8 + u]));
        s += coeff * ib[u][x];
      }
      tmp[v * 8 + x] = (s + half) >> bits;
    }
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) {
      std::int64_t s = 0;
      for (int v = 0; v < 8; ++v) s += tmp[v * 8 + x] * ib[v][y];
      out[y * 8 + x] = static_cast<float>((s + half) >> bits);
    }
}

TEST(Dct, FixedPointMatchesTheSeedLoop) {
  sysnoise::Rng r(6);
  for (int trial = 0; trial < 400; ++trial) {
    float coef[64];
    for (auto& v : coef) {
      switch (r.uniform_int(4)) {
        case 0:  // dequantized integers, as the decoder produces
          v = static_cast<float>(r.uniform_int(2001) - 1000);
          break;
        case 1:  // exact .5 ties, which lround rounds away from zero
          v = static_cast<float>(r.uniform_int(401) - 200) + 0.5f;
          break;
        case 2:  // large magnitudes (11-bit coefficient times a coarse quant step)
          v = static_cast<float>(r.uniform_int(1048577) - 524288);
          break;
        default:
          v = r.uniform_f(-300.0f, 300.0f);
      }
    }
    for (const int bits : {9, 13}) {
      float got[64], want[64];
      idct8x8_fixed(coef, got, bits);
      seed_idct8x8_fixed(coef, want, bits);
      EXPECT_EQ(std::memcmp(got, want, sizeof(got)), 0)
          << "trial " << trial << " bits " << bits;
    }
  }
  float coef[64] = {}, out[64];
  EXPECT_THROW(idct8x8_fixed(coef, out, 0), std::invalid_argument);
  EXPECT_THROW(idct8x8_fixed(coef, out, 31), std::invalid_argument);
}

TEST(Dct, VariantsActuallyDiffer) {
  // If all vendors produced bit-identical pixels there would be no decoder
  // SysNoise at all; verify the kernels disagree at the sub-LSB level.
  sysnoise::Rng r(5);
  float coef[64], a[64], b[64];
  for (auto& v : coef) v = static_cast<float>(r.uniform_int(101) - 50);
  idct8x8_reference(coef, a);
  idct8x8_fixed(coef, b, 9);
  float maxd = 0.0f;
  for (int i = 0; i < 64; ++i) maxd = std::max(maxd, std::fabs(a[i] - b[i]));
  EXPECT_GT(maxd, 1e-3f);
}

// ---------------------------------------------------------------------------
// Zig-zag, quant tables, Huffman primitives
// ---------------------------------------------------------------------------

TEST(ZigZag, IsPermutationAndInverse) {
  bool seen[64] = {false};
  for (int i = 0; i < 64; ++i) {
    ASSERT_GE(kZigZag[static_cast<std::size_t>(i)], 0);
    ASSERT_LT(kZigZag[static_cast<std::size_t>(i)], 64);
    seen[kZigZag[static_cast<std::size_t>(i)]] = true;
    EXPECT_EQ(kZigZagInv[static_cast<std::size_t>(kZigZag[static_cast<std::size_t>(i)])], i);
  }
  for (bool s : seen) EXPECT_TRUE(s);
  // Spot-check the canonical start of the pattern.
  EXPECT_EQ(kZigZag[0], 0);
  EXPECT_EQ(kZigZag[1], 1);
  EXPECT_EQ(kZigZag[2], 8);
  EXPECT_EQ(kZigZag[63], 63);
}

TEST(QuantTables, QualityScaling) {
  const auto& base = annex_k_luminance();
  auto q50 = scale_quality(base, 50);
  EXPECT_EQ(q50, base);  // quality 50 is the identity
  auto q100 = scale_quality(base, 100);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(q100[static_cast<std::size_t>(i)], 1);
  auto q10 = scale_quality(base, 10);
  auto q90 = scale_quality(base, 90);
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(q10[static_cast<std::size_t>(i)], q90[static_cast<std::size_t>(i)]);
    EXPECT_GE(q90[static_cast<std::size_t>(i)], 1);
  }
}

TEST(Huffman, CategoryAndValueBits) {
  EXPECT_EQ(bit_category(0), 0);
  EXPECT_EQ(bit_category(1), 1);
  EXPECT_EQ(bit_category(-1), 1);
  EXPECT_EQ(bit_category(255), 8);
  EXPECT_EQ(bit_category(-1024), 11);
  for (int v = -300; v <= 300; ++v) {
    const int cat = bit_category(v);
    if (v == 0) continue;
    EXPECT_EQ(extend_value(value_bits(v, cat), cat), v) << v;
  }
}

TEST(Huffman, BitIoRoundTripWithStuffing) {
  BitWriter bw;
  bw.put_bits(0xFF, 8);  // forces a stuffed byte
  bw.put_bits(0x3, 2);
  bw.put_bits(0x155, 9);
  bw.flush();
  const auto& bytes = bw.bytes();
  ASSERT_GE(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0x00);  // stuffing
  BitReader br(bytes.data(), bytes.size());
  EXPECT_EQ(br.read_bits(8), 0xFFu);
  EXPECT_EQ(br.read_bits(2), 0x3u);
  EXPECT_EQ(br.read_bits(9), 0x155u);
}

TEST(Huffman, EncodeDecodeSymbols) {
  const auto& spec = std_ac_luminance();
  HuffEncoder enc(spec);
  HuffDecoder dec(spec);
  BitWriter bw;
  const std::vector<int> syms = {0x01, 0x00, 0xF0, 0x22, 0xFA, 0x11};
  for (int s : syms) bw.put_bits(enc.code(s), enc.length(s));
  bw.flush();
  const auto& bytes = bw.bytes();
  BitReader br(bytes.data(), bytes.size());
  for (int s : syms) EXPECT_EQ(dec.decode(br), s);
}

TEST(Huffman, StandardTableSizes) {
  EXPECT_EQ(std_dc_luminance().symbols.size(), 12u);
  EXPECT_EQ(std_dc_chrominance().symbols.size(), 12u);
  EXPECT_EQ(std_ac_luminance().symbols.size(), 162u);
  EXPECT_EQ(std_ac_chrominance().symbols.size(), 162u);
}

// ---------------------------------------------------------------------------
// Codec end-to-end
// ---------------------------------------------------------------------------

TEST(Codec, EncodeProducesJfifStream) {
  ImageU8 img = test_image(32, 48);
  auto bytes = encode(img, {.quality = 90, .chroma = ChromaMode::k420});
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xD8);  // SOI
  EXPECT_EQ(bytes[bytes.size() - 2], 0xFF);
  EXPECT_EQ(bytes[bytes.size() - 1], 0xD9);  // EOI
}

TEST(Codec, RoundTripHighQualityCloseToOriginal) {
  ImageU8 img = test_image(48, 48);
  auto bytes = encode(img, {.quality = 95, .chroma = ChromaMode::k444});
  ImageU8 dec = decode(bytes, DecoderVendor::kPillow);
  EXPECT_EQ(dec.height(), 48);
  EXPECT_EQ(dec.width(), 48);
  EXPECT_GT(image_psnr(img, dec), 30.0);
}

TEST(Codec, NonMultipleOf16Dimensions) {
  for (auto [h, w] : {std::pair{17, 23}, {8, 8}, {33, 31}, {50, 70}}) {
    ImageU8 img = test_image(h, w);
    auto bytes = encode(img, {.quality = 90, .chroma = ChromaMode::k420});
    ImageU8 dec = decode(bytes, DecoderVendor::kOpenCV);
    EXPECT_EQ(dec.height(), h);
    EXPECT_EQ(dec.width(), w);
    EXPECT_GT(image_psnr(img, dec), 22.0) << h << "x" << w;
  }
}

TEST(Codec, LowerQualityLowerFidelityAndSmaller) {
  ImageU8 img = test_image(64, 64);
  auto hi = encode(img, {.quality = 95});
  auto lo = encode(img, {.quality = 30});
  EXPECT_LT(lo.size(), hi.size());
  const double psnr_hi = image_psnr(img, decode(hi, DecoderVendor::kPillow));
  const double psnr_lo = image_psnr(img, decode(lo, DecoderVendor::kPillow));
  EXPECT_GT(psnr_hi, psnr_lo);
}

TEST(Codec, VendorsProduceSlightlyDifferentPixels) {
  // The decoder SysNoise mechanism: same bitstream, different pixels.
  ImageU8 img = test_image(64, 64, 7);
  auto bytes = encode(img, {.quality = 90});
  ImageU8 ref = decode(bytes, DecoderVendor::kPillow);
  for (auto v : {DecoderVendor::kOpenCV, DecoderVendor::kFFmpeg, DecoderVendor::kDALI}) {
    ImageU8 other = decode(bytes, v);
    const double frac = image_diff_fraction(ref, other);
    EXPECT_GT(frac, 0.001) << vendor_name(v);        // vendors disagree...
    const int maxd = image_max_diff(ref, other);
    EXPECT_LE(maxd, 40) << vendor_name(v);           // ...but only slightly
    EXPECT_GT(image_psnr(ref, other), 25.0) << vendor_name(v);
  }
}

// The seed's chroma upsampling and color conversion, verbatim: one pixel at
// a time, chroma read through Plane::at_clamped. The oracle the row-wise
// planes_to_rgb must match byte for byte.
float seed_fancy_upsample_at(const Plane& c, int oy, int ox) {
  const int cy = oy >> 1, cx = ox >> 1;
  const int ny = (oy & 1) ? cy + 1 : cy - 1;
  const int nx = (ox & 1) ? cx + 1 : cx - 1;
  const float c00 = c.at_clamped(cy, cx);
  const float c01 = c.at_clamped(cy, nx);
  const float c10 = c.at_clamped(ny, cx);
  const float c11 = c.at_clamped(ny, nx);
  return (9.0f * c00 + 3.0f * c01 + 3.0f * c10 + c11) / 16.0f;
}

std::uint8_t seed_cc_float_lround(float v) {
  return clamp_u8(static_cast<int>(std::lround(v)));
}

ImageU8 seed_planes_to_rgb(const DecodedPlanes& planes,
                           const VendorTraits& traits) {
  const int h = planes.height, w = planes.width;
  const Plane &py = planes.y, &pcb = planes.cb, &pcr = planes.cr;
  ImageU8 out(h, w, 3);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const float Y = py.at(y, x);
      float Cb, Cr;
      if (planes.subsampled) {
        if (traits.fancy_chroma_upsample) {
          Cb = seed_fancy_upsample_at(pcb, y, x);
          Cr = seed_fancy_upsample_at(pcr, y, x);
        } else {
          Cb = pcb.at(y >> 1, x >> 1);
          Cr = pcr.at(y >> 1, x >> 1);
        }
      } else {
        Cb = pcb.at(y, x);
        Cr = pcr.at(y, x);
      }

      switch (traits.color_convert) {
        case VendorTraits::ColorConvert::kFloatLround: {
          const float cb = Cb - 128.0f, cr = Cr - 128.0f;
          out.at(y, x, 0) = seed_cc_float_lround(Y + 1.402f * cr);
          out.at(y, x, 1) = seed_cc_float_lround(Y - 0.344136f * cb - 0.714136f * cr);
          out.at(y, x, 2) = seed_cc_float_lround(Y + 1.772f * cb);
          break;
        }
        case VendorTraits::ColorConvert::kFixedPoint16: {
          const int yi = static_cast<int>(std::lround(Y));
          const int cb = static_cast<int>(std::lround(Cb)) - 128;
          const int cr = static_cast<int>(std::lround(Cr)) - 128;
          constexpr int kHalf = 1 << 15;
          const int r = yi + ((91881 * cr + kHalf) >> 16);
          const int g = yi - ((22554 * cb + 46802 * cr + kHalf) >> 16);
          const int b = yi + ((116130 * cb + kHalf) >> 16);
          out.at(y, x, 0) = clamp_u8(r);
          out.at(y, x, 1) = clamp_u8(g);
          out.at(y, x, 2) = clamp_u8(b);
          break;
        }
        case VendorTraits::ColorConvert::kShift8: {
          const int yi = static_cast<int>(Y);
          const int cb = static_cast<int>(Cb) - 128;
          const int cr = static_cast<int>(Cr) - 128;
          const int r = yi + ((359 * cr + 128) >> 8);
          const int g = yi - ((88 * cb + 183 * cr + 128) >> 8);
          const int b = yi + ((454 * cb + 128) >> 8);
          out.at(y, x, 0) = clamp_u8(r);
          out.at(y, x, 1) = clamp_u8(g);
          out.at(y, x, 2) = clamp_u8(b);
          break;
        }
      }
    }
  }
  return out;
}

TEST(Codec, RowWiseColorStageMatchesTheSeedLoop) {
  // Real streams, 4:2:0 and 4:4:4, with odd, even and 1-pixel sizes, under
  // every vendor: the decode equals the seed loop over the same planes.
  const std::pair<int, int> sizes[] = {{33, 47}, {48, 48}, {15, 16},
                                       {1, 9},   {9, 1},   {17, 17}};
  for (const auto& [h, w] : sizes)
    for (const ChromaMode chroma : {ChromaMode::k420, ChromaMode::k444}) {
      const auto bytes =
          encode(test_image(h, w, 13), {.quality = 85, .chroma = chroma});
      for (int v = 0; v < kNumDecoderVendors; ++v) {
        const VendorTraits traits = vendor_traits(static_cast<DecoderVendor>(v));
        const DecodedPlanes planes = decode_planes(bytes, traits);
        EXPECT_EQ(planes.subsampled, chroma == ChromaMode::k420);
        EXPECT_EQ(decode(bytes, static_cast<DecoderVendor>(v)).vec(),
                  seed_planes_to_rgb(planes, traits).vec())
            << h << "x" << w << " "
            << (chroma == ChromaMode::k420 ? "4:2:0 " : "4:4:4 ")
            << vendor_name(static_cast<DecoderVendor>(v));
      }
    }

  // Every upsampling x conversion pairing over random planes whose samples
  // overshoot 0..255 and land on exact .5 ties.
  sysnoise::Rng r(17);
  for (const bool subsampled : {true, false})
    for (const bool fancy : {true, false})
      for (const auto convert : {VendorTraits::ColorConvert::kFloatLround,
                                 VendorTraits::ColorConvert::kFixedPoint16,
                                 VendorTraits::ColorConvert::kShift8})
        for (const auto& [h, w] : sizes) {
          DecodedPlanes planes;
          planes.height = h;
          planes.width = w;
          planes.subsampled = subsampled;
          const int ch = subsampled ? (h + 1) / 2 : h;
          const int cw = subsampled ? (w + 1) / 2 : w;
          planes.y = Plane(h + 3, w + 5);
          planes.cb = Plane(ch + 1, cw + 2);
          planes.cr = Plane(ch + 1, cw + 2);
          for (Plane* p : {&planes.y, &planes.cb, &planes.cr})
            for (float& s : p->v)
              s = r.uniform_int(4) == 0
                      ? static_cast<float>(r.uniform_int(300) - 20) + 0.5f
                      : r.uniform_f(-30.0f, 290.0f);
          VendorTraits traits;
          traits.fancy_chroma_upsample = fancy;
          traits.color_convert = convert;
          EXPECT_EQ(planes_to_rgb(planes, traits).vec(),
                    seed_planes_to_rgb(planes, traits).vec())
              << h << "x" << w << " subsampled " << subsampled << " fancy "
              << fancy << " convert " << static_cast<int>(convert);
        }

  DecodedPlanes short_planes;
  short_planes.height = 4;
  short_planes.width = 4;
  short_planes.y = Plane(4, 3);
  short_planes.cb = short_planes.cr = Plane(4, 4);
  EXPECT_THROW(planes_to_rgb(short_planes, VendorTraits{}), std::invalid_argument);
}

TEST(Codec, VendorDecodeIsDeterministic) {
  ImageU8 img = test_image(40, 40, 9);
  auto bytes = encode(img);
  for (int v = 0; v < kNumDecoderVendors; ++v) {
    auto vendor = static_cast<DecoderVendor>(v);
    ImageU8 a = decode(bytes, vendor);
    ImageU8 b = decode(bytes, vendor);
    EXPECT_EQ(image_max_diff(a, b), 0);
  }
}

TEST(Codec, RgbToYcbcrKnownValues) {
  float y, cb, cr;
  rgb_to_ycbcr(255, 255, 255, y, cb, cr);
  EXPECT_NEAR(y, 255.0f, 0.01f);
  EXPECT_NEAR(cb, 128.0f, 0.01f);
  EXPECT_NEAR(cr, 128.0f, 0.01f);
  rgb_to_ycbcr(255, 0, 0, y, cb, cr);
  EXPECT_NEAR(y, 76.2f, 0.1f);
  EXPECT_GT(cr, 200.0f);
}

TEST(Codec, RejectsGarbage) {
  std::vector<std::uint8_t> garbage = {0x00, 0x01, 0x02};
  EXPECT_THROW(decode(garbage, DecoderVendor::kPillow), std::runtime_error);
  std::vector<std::uint8_t> soi_only = {0xFF, 0xD8, 0xFF, 0xD9};
  EXPECT_THROW(decode(soi_only, DecoderVendor::kPillow), std::runtime_error);
}

// Peak resident set of this process, in KiB.
long max_rss_kib() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// A valid small stream whose SOF0 header claims `h` x `w` instead.
std::vector<std::uint8_t> with_frame_claim(std::vector<std::uint8_t> bytes,
                                           int h, int w) {
  for (std::size_t i = 2; i + 9 <= bytes.size(); ++i)
    if (bytes[i] == 0xFF && bytes[i + 1] == 0xC0) {
      // FF C0, length (2), precision (1), height (2), width (2).
      bytes[i + 5] = static_cast<std::uint8_t>(h >> 8);
      bytes[i + 6] = static_cast<std::uint8_t>(h & 0xFF);
      bytes[i + 7] = static_cast<std::uint8_t>(w >> 8);
      bytes[i + 8] = static_cast<std::uint8_t>(w & 0xFF);
      return bytes;
    }
  ADD_FAILURE() << "no SOF0 marker";
  return bytes;
}

TEST(Codec, OversizedOrEmptyFrameClaimIsRejectedBeforeAllocation) {
  const auto bytes = encode(test_image(24, 32), {.quality = 90});
  ASSERT_LT(bytes.size(), 1024u);
  ASSERT_EQ(decode(with_frame_claim(bytes, 24, 32), DecoderVendor::kPillow)
                .width(),
            32);  // the patch itself leaves a valid stream valid

  // Under a kilobyte claiming 12288x12288: without the cap this decodes
  // (the short scan padded) at ~1.3 GB of planes.
  const long before_kib = max_rss_kib();
  for (int v = 0; v < kNumDecoderVendors; ++v)
    EXPECT_THROW(decode(with_frame_claim(bytes, 12288, 12288),
                        static_cast<DecoderVendor>(v)),
                 std::runtime_error)
        << vendor_name(static_cast<DecoderVendor>(v));
  EXPECT_LT(max_rss_kib() - before_kib, 32L << 10)
      << "peak RSS grew by " << (max_rss_kib() - before_kib) << " KiB";

  // Zero dimensions, and one row past the pixel cap.
  EXPECT_THROW(decode(with_frame_claim(bytes, 0, 32), DecoderVendor::kPillow),
               std::runtime_error);
  EXPECT_THROW(decode(with_frame_claim(bytes, 24, 0), DecoderVendor::kPillow),
               std::runtime_error);
  const int cap_w = 4096;
  const int over_h = static_cast<int>(kMaxFramePixels / cap_w) + 1;
  EXPECT_THROW(decode(with_frame_claim(bytes, over_h, cap_w),
                      DecoderVendor::kPillow),
               std::runtime_error);
  EXPECT_THROW(decode(with_frame_claim(bytes, 65535, 65535),
                      DecoderVendor::kPillow),
               std::runtime_error);
}

// The message of the runtime_error decoding `bytes` throws ("" if none).
std::string decode_error(const std::vector<std::uint8_t>& bytes,
                         DecoderVendor vendor) {
  try {
    decode(bytes, vendor);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Codec, HeaderTablesLongerThanTheirSegmentThrow) {
  // Each stream's last segment is shorter than the table it starts: a
  // DQT precision byte with no table, an SOF0 with no frame fields, a DHT
  // class byte with no counts.
  const std::vector<std::vector<std::uint8_t>> streams = {
      {0xFF, 0xD8, 0xFF, 0xDB, 0x00, 0x03, 0x00},
      {0xFF, 0xD8, 0xFF, 0xC0, 0x00, 0x02},
      {0xFF, 0xD8, 0xFF, 0xC4, 0x00, 0x03, 0x00},
  };
  for (const auto& bytes : streams)
    for (int v = 0; v < kNumDecoderVendors; ++v)
      EXPECT_NE(decode_error(bytes, static_cast<DecoderVendor>(v))
                    .find("longer than its segment"),
                std::string::npos)
          << std::hex << static_cast<int>(bytes[3]) << " "
          << vendor_name(static_cast<DecoderVendor>(v));

  // Inside a valid stream: shrinking a DQT or DHT segment by one byte makes
  // its last table overhang it, which is caught before the overhanging
  // bytes are read as table data.
  const auto valid = encode(test_image(16, 16), {.quality = 90});
  for (const std::uint8_t code : {std::uint8_t{0xDB}, std::uint8_t{0xC4}}) {
    std::size_t at = 2;
    while (at + 3 < valid.size() &&
           !(valid[at] == 0xFF && valid[at + 1] == code))
      ++at;
    ASSERT_LT(at + 3, valid.size());
    auto shrunk = valid;
    const std::size_t len = (shrunk[at + 2] << 8) | shrunk[at + 3];
    shrunk[at + 2] = static_cast<std::uint8_t>((len - 1) >> 8);
    shrunk[at + 3] = static_cast<std::uint8_t>((len - 1) & 0xFF);
    EXPECT_NE(decode_error(shrunk, DecoderVendor::kPillow)
                  .find("longer than its segment"),
              std::string::npos)
        << std::hex << static_cast<int>(code);
  }
}

TEST(Codec, TruncatedScanThrowsForEveryVendor) {
  // The entropy-coded scan loses its last bytes; EOI still follows. Read
  // as 0-bits past its end, such a scan used to decode to a full image.
  const auto valid = encode(test_image(48, 48), {.quality = 90});
  ASSERT_GT(valid.size(), 400u);
  for (int v = 0; v < kNumDecoderVendors; ++v)
    ASSERT_EQ(decode(valid, static_cast<DecoderVendor>(v)).width(), 48);
  for (const std::size_t cut : {1u, 8u, 64u, 200u}) {
    std::vector<std::uint8_t> shrunk(valid.begin(), valid.end() - 2 - cut);
    shrunk.insert(shrunk.end(), {0xFF, 0xD9});  // EOI
    for (int v = 0; v < kNumDecoderVendors; ++v)
      EXPECT_NE(decode_error(shrunk, static_cast<DecoderVendor>(v))
                    .find("truncated scan"),
                std::string::npos)
          << "cut " << cut << " vendor "
          << vendor_name(static_cast<DecoderVendor>(v));
  }
}

TEST(Codec, ChromaSubsamplingReducesSize) {
  ImageU8 img = test_image(64, 64, 11);
  auto s420 = encode(img, {.quality = 90, .chroma = ChromaMode::k420});
  auto s444 = encode(img, {.quality = 90, .chroma = ChromaMode::k444});
  EXPECT_LT(s420.size(), s444.size());
}

class CodecVendorParam : public ::testing::TestWithParam<int> {};

TEST_P(CodecVendorParam, EveryVendorDecodesEverySize) {
  const auto vendor = static_cast<DecoderVendor>(GetParam());
  for (int dim : {8, 15, 24, 37}) {
    ImageU8 img = test_image(dim, dim + 3, static_cast<std::uint64_t>(dim));
    for (auto chroma : {ChromaMode::k420, ChromaMode::k444}) {
      auto bytes = encode(img, {.quality = 85, .chroma = chroma});
      ImageU8 dec = decode(bytes, vendor);
      ASSERT_EQ(dec.height(), dim);
      ASSERT_EQ(dec.width(), dim + 3);
      EXPECT_GT(image_psnr(img, dec), 20.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVendors, CodecVendorParam,
                         ::testing::Range(0, kNumDecoderVendors));

}  // namespace
}  // namespace sysnoise::jpeg
