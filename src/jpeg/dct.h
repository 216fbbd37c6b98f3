// 8x8 DCT kernels.
//
// One forward DCT (used by the encoder) and four inverse DCTs — the heart
// of the paper's *decoder* SysNoise (Sec. 3.1): vendors disagree because
// some use the exact iDCT and others use fast / fixed-point variants
// (Chen et al., 1977), whose rounding shifts pixel values by a few LSBs.
#pragma once

namespace sysnoise::jpeg {

enum class IdctMethod {
  kFloatReference,  // naive double-precision separable iDCT ("exact")
  kFixedPoint13,    // 13-bit fixed-point basis ("islow"-like, libjpeg class)
  kFloatAan,        // AAN scaled float fast iDCT (FFmpeg class)
  kFixedPoint9,     // 9-bit fixed-point basis (HW accelerator class)
};

// Forward DCT-II with orthonormal scaling; input is level-shifted samples
// (in[64], raster order), output raw coefficients ready for quantization.
void fdct8x8(const float in[64], float out[64]);

// Inverse DCT; input dequantized coefficients (raster order), output
// reconstructed samples (still centered on 0, caller adds +128).
void idct8x8(IdctMethod method, const float in[64], float out[64]);

// Individual kernels (exposed for unit tests).
void idct8x8_reference(const float in[64], float out[64]);
// `bits` is the integer basis precision, 1..30 (vendors use 9 and 13);
// throws std::invalid_argument outside that range.
void idct8x8_fixed(const float in[64], float out[64], int bits);
void idct8x8_aan(const float in[64], float out[64]);

}  // namespace sysnoise::jpeg
