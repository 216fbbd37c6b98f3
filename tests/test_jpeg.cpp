#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdint>
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
