// Post-training quantization math (paper Sec. 3.2 "Data Precision" and
// Appendix A Eq. 9-10).
//
// INT8 uses per-tensor affine quantization: a scale s and zero point z fit
// the observed range; values are clipped to [-128, 127], rounded to
// nearest, and dequantized. The inference engine applies "fake quant"
// (quantize-then-dequantize in float) at conv/linear boundaries and runs
// the float GEMM, so INT8 results are a float emulation of an integer
// kernel, not its bytes. tests/test_quant.cpp only checks that a fake-quant
// float GEMM lands within 1e-4 of int8_gemm_dequant (int32 accumulation,
// float dequant) on one small shape; bitwise agreement is not claimed.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace sysnoise {

struct QuantParams {
  float scale = 1.0f;
  int zero_point = 0;  // in int8 domain
};

// Choose affine parameters so [lo, hi] maps onto [-128, 127]. Ensures the
// range contains zero (required for exact zero representation).
QuantParams choose_qparams(float lo, float hi);

// Symmetric variant used for weights (zero_point == 0).
QuantParams choose_qparams_symmetric(float abs_max);

std::int8_t quantize_value(float v, const QuantParams& qp);
float dequantize_value(std::int8_t q, const QuantParams& qp);

// Elementwise fake quantization (quantize + dequantize) in place.
void fake_quantize_(Tensor& t, const QuantParams& qp);

// Quantize a whole tensor to int8.
std::vector<std::int8_t> quantize_tensor(const Tensor& t, const QuantParams& qp);

// Observed activation range for calibration (running min/max).
struct RangeObserver {
  float lo = 0.0f;
  float hi = 0.0f;
  bool seen = false;
  void observe(const Tensor& t);
  QuantParams qparams() const { return choose_qparams(lo, hi); }
};

// Integer reference matmul: C_fp32 = dequant( A_q * B_q ) with int32
// accumulation — used by tests to prove fake-quant == integer execution.
void int8_gemm_dequant(int m, int n, int k, const std::int8_t* a,
                       const QuantParams& qa, const std::int8_t* b,
                       const QuantParams& qb, float* c_fp32);

}  // namespace sysnoise
