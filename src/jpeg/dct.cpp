#include "jpeg/dct.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

namespace sysnoise::jpeg {

namespace {

// Basis K[k][n] = alpha(k) * cos((2n+1) k pi / 16), so the 1-D iDCT is
// f[n] = sum_k F[k] K[k][n] and the 1-D DCT is F[k] = sum_n f[n] K[k][n].
struct Basis {
  double k[8][8];
  Basis() {
    for (int kk = 0; kk < 8; ++kk) {
      const double alpha = kk == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n)
        k[kk][n] = alpha * std::cos((2 * n + 1) * kk * std::numbers::pi / 16.0);
    }
  }
};

const Basis& basis() {
  static const Basis b;
  return b;
}

}  // namespace

void fdct8x8(const float in[64], float out[64]) {
  const auto& B = basis();
  double tmp[64];
  // Rows: F_row[u] over x.
  for (int y = 0; y < 8; ++y)
    for (int u = 0; u < 8; ++u) {
      double s = 0.0;
      for (int x = 0; x < 8; ++x) s += in[y * 8 + x] * B.k[u][x];
      tmp[y * 8 + u] = s;
    }
  // Columns.
  for (int u = 0; u < 8; ++u)
    for (int v = 0; v < 8; ++v) {
      double s = 0.0;
      for (int y = 0; y < 8; ++y) s += tmp[y * 8 + u] * B.k[v][y];
      out[v * 8 + u] = static_cast<float>(s);
    }
}

void idct8x8_reference(const float in[64], float out[64]) {
  const auto& B = basis();
  double tmp[64];
  // Rows: f_row[x] = sum_u F[u] K[u][x].
  for (int v = 0; v < 8; ++v)
    for (int x = 0; x < 8; ++x) {
      double s = 0.0;
      for (int u = 0; u < 8; ++u) s += in[v * 8 + u] * B.k[u][x];
      tmp[v * 8 + x] = s;
    }
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) {
      double s = 0.0;
      for (int v = 0; v < 8; ++v) s += tmp[v * 8 + x] * B.k[v][y];
      out[y * 8 + x] = static_cast<float>(s);
    }
}

namespace {

// Integer basis with `bits` fractional bits: round(K[k][n] * 2^bits).
using FixedBasis = std::array<std::array<std::int32_t, 8>, 8>;
constexpr int kMaxFixedBits = 30;

// Every supported precision's integer basis, built once.
const std::array<FixedBasis, kMaxFixedBits + 1>& fixed_bases() {
  static const auto bases = [] {
    std::array<FixedBasis, kMaxFixedBits + 1> all{};
    const auto& B = basis();
    for (int bits = 1; bits <= kMaxFixedBits; ++bits) {
      const double scale = static_cast<double>(1 << bits);
      for (int k = 0; k < 8; ++k)
        for (int n = 0; n < 8; ++n)
          all[static_cast<std::size_t>(bits)][static_cast<std::size_t>(k)]
             [static_cast<std::size_t>(n)] =
              static_cast<std::int32_t>(std::lround(B.k[k][n] * scale));
    }
    return all;
  }();
  return bases;
}

}  // namespace

void idct8x8_fixed(const float in[64], float out[64], int bits) {
  // Integer basis with `bits` fractional bits; row pass keeps `bits`
  // fractional bits, column pass descales with round-half-up. This mirrors
  // the structure (and rounding behaviour) of fixed-point vendor kernels.
  if (bits < 1 || bits > kMaxFixedBits)
    throw std::invalid_argument("idct8x8_fixed: bits must be in [1, 30]");
  const FixedBasis& ib = fixed_bases()[static_cast<std::size_t>(bits)];
  std::int64_t coeff[64];
  for (int i = 0; i < 64; ++i) coeff[i] = std::lround(in[i]);

  std::int64_t tmp[64];
  const std::int64_t half = 1ll << (bits - 1);
  for (int v = 0; v < 8; ++v)
    for (int x = 0; x < 8; ++x) {
      std::int64_t s = 0;
      for (int u = 0; u < 8; ++u) s += coeff[v * 8 + u] * ib[u][x];
      tmp[v * 8 + x] = (s + half) >> bits;  // keep integer samples per row pass
    }
  for (int x = 0; x < 8; ++x)
    for (int y = 0; y < 8; ++y) {
      std::int64_t s = 0;
      for (int v = 0; v < 8; ++v) s += tmp[v * 8 + x] * ib[v][y];
      out[y * 8 + x] = static_cast<float>((s + half) >> bits);
    }
}

namespace {

// 1-D AAN inverse butterfly on 8 floats (Arai-Agui-Nakajima), in-place
// strided access. Input must already carry the AAN scale factors.
void aan_idct_1d(float* p, int stride) {
  float& p0 = p[0 * stride];
  float& p1 = p[1 * stride];
  float& p2 = p[2 * stride];
  float& p3 = p[3 * stride];
  float& p4 = p[4 * stride];
  float& p5 = p[5 * stride];
  float& p6 = p[6 * stride];
  float& p7 = p[7 * stride];

  // Even part.
  float tmp0 = p0, tmp1 = p2, tmp2 = p4, tmp3 = p6;
  float tmp10 = tmp0 + tmp2;
  float tmp11 = tmp0 - tmp2;
  float tmp13 = tmp1 + tmp3;
  float tmp12 = (tmp1 - tmp3) * 1.414213562f - tmp13;
  tmp0 = tmp10 + tmp13;
  tmp3 = tmp10 - tmp13;
  tmp1 = tmp11 + tmp12;
  tmp2 = tmp11 - tmp12;

  // Odd part.
  float tmp4 = p1, tmp5 = p3, tmp6 = p5, tmp7 = p7;
  const float z13 = tmp6 + tmp5;
  const float z10 = tmp6 - tmp5;
  const float z11 = tmp4 + tmp7;
  const float z12 = tmp4 - tmp7;
  tmp7 = z11 + z13;
  tmp11 = (z11 - z13) * 1.414213562f;
  const float z5 = (z10 + z12) * 1.847759065f;
  tmp10 = 1.082392200f * z12 - z5;
  tmp12 = -2.613125930f * z10 + z5;
  tmp6 = tmp12 - tmp7;
  tmp5 = tmp11 - tmp6;
  tmp4 = tmp10 + tmp5;

  p0 = tmp0 + tmp7;
  p7 = tmp0 - tmp7;
  p1 = tmp1 + tmp6;
  p6 = tmp1 - tmp6;
  p2 = tmp2 + tmp5;
  p5 = tmp2 - tmp5;
  p4 = tmp3 + tmp4;
  p3 = tmp3 - tmp4;
}

}  // namespace

void idct8x8_aan(const float in[64], float out[64]) {
  // AAN scale factors folded in up front (libjpeg folds them into the
  // dequant table; we apply them here so all iDCTs share one interface).
  static const float kAan[8] = {1.0f,          1.387039845f, 1.306562965f,
                                1.175875602f,  1.0f,         0.785694958f,
                                0.541196100f,  0.275899379f};
  float ws[64];
  for (int v = 0; v < 8; ++v)
    for (int u = 0; u < 8; ++u)
      ws[v * 8 + u] = in[v * 8 + u] * kAan[v] * kAan[u] * 0.125f;

  for (int x = 0; x < 8; ++x) aan_idct_1d(ws + x, 8);  // columns
  for (int y = 0; y < 8; ++y) aan_idct_1d(ws + y * 8, 1);  // rows
  for (int i = 0; i < 64; ++i) out[i] = ws[i];
}

void idct8x8(IdctMethod method, const float in[64], float out[64]) {
  switch (method) {
    case IdctMethod::kFloatReference:
      idct8x8_reference(in, out);
      return;
    case IdctMethod::kFixedPoint13:
      idct8x8_fixed(in, out, 13);
      return;
    case IdctMethod::kFloatAan:
      idct8x8_aan(in, out);
      return;
    case IdctMethod::kFixedPoint9:
      idct8x8_fixed(in, out, 9);
      return;
  }
}

}  // namespace sysnoise::jpeg
