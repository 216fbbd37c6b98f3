// Baseline sequential JPEG (JFIF) encoder and a vendor-parameterized decoder.
//
// The encoder is the single "ground truth" producer used to build datasets.
// The decoder models the paper's four decode stacks (Sec. 3.4: PIL, OpenCV,
// FFmpeg, DALI): vendors share the bitstream format but differ in
//   - inverse DCT kernel (exact float / fixed-point 13-bit / AAN float /
//     low-precision fixed-point),
//   - chroma upsampling (triangle "fancy" filter vs sample replication),
//   - YCbCr->RGB arithmetic (float+lround / 16-bit fixed point / 8-bit
//     shift approximation),
// which yields the few-LSB pixel disagreements the paper measures.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "image/image.h"
#include "jpeg/dct.h"

namespace sysnoise::jpeg {

enum class DecoderVendor { kPillow = 0, kOpenCV = 1, kFFmpeg = 2, kDALI = 3 };
constexpr int kNumDecoderVendors = 4;
const char* vendor_name(DecoderVendor v);

enum class ChromaMode { k444, k420 };

struct EncodeOptions {
  int quality = 90;
  ChromaMode chroma = ChromaMode::k420;
};

// How a vendor turns dequantized coefficients into RGB.
struct VendorTraits {
  IdctMethod idct = IdctMethod::kFloatReference;
  bool fancy_chroma_upsample = true;  // triangle filter vs replication
  enum class ColorConvert { kFloatLround, kFixedPoint16, kShift8 } color_convert =
      ColorConvert::kFloatLround;
};

VendorTraits vendor_traits(DecoderVendor v);

// Encode an interleaved RGB image to a JFIF byte stream.
std::vector<std::uint8_t> encode(const ImageU8& rgb, const EncodeOptions& opts = {});

// Largest frame (height x width) the decoder accepts: far above any image
// the benchmark decodes, and it bounds what a frame header can make the
// decoder allocate (a few hundred bytes claiming 12288x12288 would
// otherwise cost ~1.3 GB of planes).
constexpr std::int64_t kMaxFramePixels = std::int64_t{1} << 24;  // 4096^2

// Decode a stream produced by encode() with the given vendor behaviour.
// Throws std::runtime_error on a malformed stream, including a frame with a
// zero dimension or more than kMaxFramePixels pixels (checked before any
// plane is allocated) and a scan that ends before its last block.
ImageU8 decode(const std::vector<std::uint8_t>& bytes, DecoderVendor vendor);

// Decode with explicit traits (used by tests and ablations). While tracing,
// every decoded image adds 1 to the `jpeg.decode.images` counter.
ImageU8 decode_with_traits(const std::vector<std::uint8_t>& bytes,
                           const VendorTraits& traits);

// A float sample plane, row-major.
struct Plane {
  int h = 0, w = 0;
  std::vector<float> v;
  Plane() = default;
  Plane(int hh, int ww) : h(hh), w(ww), v(static_cast<std::size_t>(hh) * ww, 0.0f) {}
  float& at(int y, int x) { return v[static_cast<std::size_t>(y) * w + x]; }
  float at(int y, int x) const { return v[static_cast<std::size_t>(y) * w + x]; }
  float at_clamped(int y, int x) const {
    return at(std::clamp(y, 0, h - 1), std::clamp(x, 0, w - 1));
  }
};

// The decoder's two stages (exposed for tests):
// decode_with_traits(b, t) == planes_to_rgb(decode_planes(b, t), t).
// Stage 1 entropy-decodes, dequantizes and inverse-transforms the scan into
// Y/Cb/Cr sample planes (0..255 scale, padded to whole blocks; chroma at
// half resolution when subsampled). Stage 2 upsamples the chroma and
// converts each pixel to RGB.
struct DecodedPlanes {
  int height = 0, width = 0;  // the image; the planes may be larger
  bool subsampled = false;    // 4:2:0 chroma
  Plane y, cb, cr;
};
DecodedPlanes decode_planes(const std::vector<std::uint8_t>& bytes,
                            const VendorTraits& traits);
ImageU8 planes_to_rgb(const DecodedPlanes& planes, const VendorTraits& traits);

// Full-range JFIF RGB->YCbCr used by the encoder (exposed for tests).
void rgb_to_ycbcr(std::uint8_t r, std::uint8_t g, std::uint8_t b, float& y,
                  float& cb, float& cr);

}  // namespace sysnoise::jpeg
