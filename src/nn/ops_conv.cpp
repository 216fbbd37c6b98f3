#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace sysnoise::nn {

namespace {

void im2col(const Tensor& x, int n, int c_begin, int c_count, int k, int stride,
            int pad, int oh, int ow, float* col) {
  const int h = x.dim(2), w = x.dim(3);
  // col layout: [c_count*k*k, oh*ow]
  for (int c = 0; c < c_count; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        float* row = col + static_cast<std::size_t>((c * k + ky) * k + kx) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            row[oy * ow + ox] =
                (iy >= 0 && iy < h && ix >= 0 && ix < w)
                    ? x.at4(n, c_begin + c, iy, ix)
                    : 0.0f;
          }
        }
      }
}

void col2im_acc(const float* col, int n, int c_begin, int c_count, int k, int stride,
                int pad, int oh, int ow, Tensor& gx) {
  const int h = gx.dim(2), w = gx.dim(3);
  for (int c = 0; c < c_count; ++c)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) {
        const float* row = col + static_cast<std::size_t>((c * k + ky) * k + kx) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= h) continue;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= w) continue;
            gx.at4(n, c_begin + c, iy, ix) += row[oy * ow + ox];
          }
        }
      }
}

}  // namespace

int pooled_size(int in, int kernel, int stride, int pad, bool ceil_mode) {
  const int numer = in + 2 * pad - kernel;
  int out;
  if (ceil_mode)
    out = static_cast<int>(std::ceil(static_cast<double>(numer) / stride)) + 1;
  else
    out = numer / stride + 1;
  if (ceil_mode && (out - 1) * stride >= in + pad) --out;  // PyTorch rule
  return std::max(out, 1);
}

Node* conv2d(Tape& t, Node* x, Param& w, Param* bias, const Conv2dSpec& spec,
             const std::string& layer_id) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            wd = x->value.dim(3);
  const int oc = w.value.dim(0), icg = w.value.dim(1), k = w.value.dim(2);
  const int groups = spec.groups;
  if (c != icg * groups || oc % groups != 0)
    throw std::invalid_argument("conv2d: channel/group mismatch");
  const int oh = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int ow = (wd + 2 * spec.pad - k) / spec.stride + 1;
  const int ocg = oc / groups;
  const int col_rows = icg * k * k;

  // Deployment-precision view of inputs and weights: FP32 reads both in
  // place, a precision transform or calibration works on copies.
  const bool in_place = t.ctx.precision == Precision::kFP32 && !t.ctx.calibrating;
  Tensor xcopy, wcopy;
  if (!in_place) {
    xcopy = x->value;
    apply_activation_precision(t.ctx, layer_id + ".in", xcopy);
    wcopy = apply_weight_precision(t.ctx, w.value);
  }
  const Tensor& xin = in_place ? x->value : xcopy;
  const Tensor& wq = in_place ? w.value : wcopy;

  const BackendScope backend_scope(t.ctx.backend);
  Tensor out({n, oc, oh, ow});
  // im2col columns come from the thread-local scratch arena (slot 2): sized
  // once per (shape, groups) high-water mark, reused across the whole batch
  // loop and across forward calls instead of a fresh vector per invocation.
  const std::size_t col_floats = static_cast<std::size_t>(col_rows) * oh * ow;
  auto conv_one = [&](int idx) {
    const int ni = idx / groups, g = idx % groups;
    float* col = tls_scratch(col_floats, /*slot=*/2);
    im2col(xin, ni, g * icg, icg, k, spec.stride, spec.pad, oh, ow, col);
    // out[ni, g*ocg : (g+1)*ocg] = Wg[ocg x col_rows] * col[col_rows x oh*ow]
    float* out_ptr = &out.at4(ni, g * ocg, 0, 0);
    const float* w_ptr = wq.data() + static_cast<std::size_t>(g) * ocg * col_rows;
    gemm(ocg, oh * ow, col_rows, w_ptr, col, out_ptr);
  };
  // With a parallelism grant (batched executor stacking configs), split the
  // (image, group) space across the pool — each worker im2cols into its own
  // scratch and writes a disjoint output slab, so results are bit-identical
  // at any worker count. A single (image, group) instead lets the GEMM split
  // its output-channel rows.
  if (gemm_workers() > 1 && n * groups > 1)
    parallel_ranges(n * groups, /*align=*/1, [&](int begin, int end) {
      for (int idx = begin; idx < end; ++idx) conv_one(idx);
    });
  else
    for (int idx = 0; idx < n * groups; ++idx) conv_one(idx);
  if (bias != nullptr) {
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < oc; ++ci) {
        const float bv = bias->value[static_cast<std::size_t>(ci)];
        float* p = &out.at4(ni, ci, 0, 0);
        for (int i = 0; i < oh * ow; ++i) p[i] += bv;
      }
  }

  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* wp = &w;
  Param* bp = bias;
  const Conv2dSpec sp = spec;
  const ComputeBackend backend = t.ctx.backend;
  // Backward uses the full-precision weights/input (straight-through).
  y->backprop = [y, xn, wp, bp, sp, n, icg, k, oh, ow, ocg, groups, col_rows,
                 backend]() {
    const BackendScope bw_scope(backend);
    const std::size_t col_floats = static_cast<std::size_t>(col_rows) * oh * ow;
    float* col = tls_scratch(col_floats, /*slot=*/2);
    float* gcol = tls_scratch(col_floats, /*slot=*/3);
    for (int ni = 0; ni < n; ++ni) {
      for (int g = 0; g < groups; ++g) {
        im2col(xn->value, ni, g * icg, icg, k, sp.stride, sp.pad, oh, ow, col);
        const float* gout = &y->grad.at4(ni, g * ocg, 0, 0);
        // grad_w += gout [ocg x ohw] * col^T  (col is [col_rows x ohw])
        float* gw = wp->grad.data() + static_cast<std::size_t>(g) * ocg * col_rows;
        gemm_bt_acc(ocg, col_rows, oh * ow, gout, col, gw);
        if (xn->requires_grad) {
          // gcol = W^T [col_rows x ocg] * gout
          const float* w_ptr =
              wp->value.data() + static_cast<std::size_t>(g) * ocg * col_rows;
          gemm_at(col_rows, oh * ow, ocg, w_ptr, gout, gcol);
          col2im_acc(gcol, ni, g * icg, icg, k, sp.stride, sp.pad, oh, ow,
                     xn->grad);
        }
      }
      if (bp != nullptr) {
        for (int ci = 0; ci < ocg * groups; ++ci) {
          const float* gp = &y->grad.at4(ni, ci, 0, 0);
          float s = 0.0f;
          for (int i = 0; i < oh * ow; ++i) s += gp[i];
          bp->grad[static_cast<std::size_t>(ci)] += s;
        }
      }
    }
  };
  return y;
}

Node* maxpool2d(Tape& t, Node* x, int kernel, int stride, int pad) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const bool ceil_mode = t.ctx.ceil_mode;
  const int oh = pooled_size(h, kernel, stride, pad, ceil_mode);
  const int ow = pooled_size(w, kernel, stride, pad, ceil_mode);
  Tensor out({n, c, oh, ow});
  auto argmax = std::make_shared<std::vector<int>>(out.size());
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = -1;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= w) continue;
              const float v = x->value.at4(ni, ci, iy, ix);
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          // Ceil-mode windows fully inside padding see no valid input; emit 0.
          out.at4(ni, ci, oy, ox) = best_idx >= 0 ? best : 0.0f;
          (*argmax)[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)] =
              best_idx;
        }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, argmax, c, oh, ow, w]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const int idx =
                (*argmax)[static_cast<std::size_t>(((ni * c + ci) * oh + oy) * ow + ox)];
            if (idx < 0) continue;
            xn->grad.at4(ni, ci, idx / w, idx % w) += y->grad.at4(ni, ci, oy, ox);
          }
  };
  return y;
}

Node* avgpool2d(Tape& t, Node* x, int kernel, int stride, int pad) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const int oh = pooled_size(h, kernel, stride, pad, /*ceil=*/false);
  const int ow = pooled_size(w, kernel, stride, pad, /*ceil=*/false);
  Tensor out({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float s = 0.0f;
          for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx) {
              const int iy = oy * stride - pad + ky, ix = ox * stride - pad + kx;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) s += x->value.at4(ni, ci, iy, ix);
            }
          out.at4(ni, ci, oy, ox) = s * inv;
        }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  const int kk = kernel, ss = stride, pp = pad;
  y->backprop = [y, xn, kk, ss, pp, inv, h, w, c, oh, ow]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < oh; ++oy)
          for (int ox = 0; ox < ow; ++ox) {
            const float g = y->grad.at4(ni, ci, oy, ox) * inv;
            for (int ky = 0; ky < kk; ++ky)
              for (int kx = 0; kx < kk; ++kx) {
                const int iy = oy * ss - pp + ky, ix = ox * ss - pp + kx;
                if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                  xn->grad.at4(ni, ci, iy, ix) += g;
              }
          }
  };
  return y;
}

Node* global_avgpool(Tape& t, Node* x) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      const float* p = &x->value.at4(ni, ci, 0, 0);
      float s = 0.0f;
      for (int i = 0; i < h * w; ++i) s += p[i];
      out.at2(ni, ci) = s * inv;
    }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, c, h, w, inv]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci) {
        const float g = y->grad.at2(ni, ci) * inv;
        float* p = &xn->grad.at4(ni, ci, 0, 0);
        for (int i = 0; i < h * w; ++i) p[i] += g;
      }
  };
  return y;
}

Node* upsample2x(Tape& t, Node* x) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  const int oh = 2 * h, ow = 2 * w;
  const UpsampleMode mode = t.ctx.upsample;
  const bool align = t.ctx.upsample_align_corners;
  Tensor out({n, c, oh, ow});

  // Sample positions + weights shared across N, C.
  struct Tap {
    int i0, i1;
    float w0, w1;
  };
  auto make_taps = [&](int in, int outn) {
    std::vector<Tap> taps(static_cast<std::size_t>(outn));
    for (int o = 0; o < outn; ++o) {
      if (mode == UpsampleMode::kNearest) {
        const int i = std::min(o / 2, in - 1);
        taps[static_cast<std::size_t>(o)] = {i, i, 1.0f, 0.0f};
      } else {
        float src = align && outn > 1
                        ? static_cast<float>(o) * (in - 1) / (outn - 1)
                        : (static_cast<float>(o) + 0.5f) / 2.0f - 0.5f;
        src = std::max(src, 0.0f);
        int i0 = static_cast<int>(src);
        i0 = std::min(i0, in - 1);
        const int i1 = std::min(i0 + 1, in - 1);
        const float frac = src - static_cast<float>(i0);
        taps[static_cast<std::size_t>(o)] = {i0, i1, 1.0f - frac, frac};
      }
    }
    return taps;
  };
  auto ytaps = std::make_shared<std::vector<Tap>>(make_taps(h, oh));
  auto xtaps = std::make_shared<std::vector<Tap>>(make_taps(w, ow));

  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int oy = 0; oy < oh; ++oy) {
        const Tap& ty = (*ytaps)[static_cast<std::size_t>(oy)];
        for (int ox = 0; ox < ow; ++ox) {
          const Tap& tx = (*xtaps)[static_cast<std::size_t>(ox)];
          out.at4(ni, ci, oy, ox) =
              ty.w0 * (tx.w0 * x->value.at4(ni, ci, ty.i0, tx.i0) +
                       tx.w1 * x->value.at4(ni, ci, ty.i0, tx.i1)) +
              ty.w1 * (tx.w0 * x->value.at4(ni, ci, ty.i1, tx.i0) +
                       tx.w1 * x->value.at4(ni, ci, ty.i1, tx.i1));
        }
      }

  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, ytaps, xtaps, c, oh, ow]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    for (int ni = 0; ni < n2; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int oy = 0; oy < oh; ++oy) {
          const Tap& ty = (*ytaps)[static_cast<std::size_t>(oy)];
          for (int ox = 0; ox < ow; ++ox) {
            const Tap& tx = (*xtaps)[static_cast<std::size_t>(ox)];
            const float g = y->grad.at4(ni, ci, oy, ox);
            xn->grad.at4(ni, ci, ty.i0, tx.i0) += g * ty.w0 * tx.w0;
            if (tx.w1 != 0.0f) xn->grad.at4(ni, ci, ty.i0, tx.i1) += g * ty.w0 * tx.w1;
            if (ty.w1 != 0.0f) {
              xn->grad.at4(ni, ci, ty.i1, tx.i0) += g * ty.w1 * tx.w0;
              if (tx.w1 != 0.0f) xn->grad.at4(ni, ci, ty.i1, tx.i1) += g * ty.w1 * tx.w1;
            }
          }
        }
  };
  return y;
}

}  // namespace sysnoise::nn
