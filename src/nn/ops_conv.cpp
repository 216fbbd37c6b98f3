#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "nn/ops.h"
#include "tensor/backend.h"
#include "tensor/gemm.h"

namespace sysnoise::nn {

namespace {

// Output positions o in [lo, hi) whose input coordinate o*stride - pad + tap
// lies inside [0, in); every other o reads padding.
struct ValidSpan {
  int lo, hi;
};

ValidSpan valid_span(int in, int tap, int stride, int pad, int out) {
  // First o with o*stride - pad + tap >= bound, clamped to [0, out].
  auto first_at_or_after = [&](int bound) {
    const int numer = bound + pad - tap;
    return numer <= 0 ? 0 : std::min((numer + stride - 1) / stride, out);
  };
  const int lo = first_at_or_after(0);
  return {lo, std::max(first_at_or_after(in), lo)};
}

// Where a conv's [c*k*k, oh*ow] column matrix lies in its padded [c, hpad,
// wpad] input: row kk = (ci, ky, kx) starts at koff[kk], column j = (oy, ox)
// adds coff[j].
struct ColumnOffsets {
  std::vector<int> koff, coff;
};

ColumnOffsets column_offsets(int c, int k, int hpad, int wpad, int oh, int ow,
                             int stride) {
  ColumnOffsets o{std::vector<int>(static_cast<std::size_t>(c) * k * k),
                  std::vector<int>(static_cast<std::size_t>(oh) * ow)};
  for (int ci = 0, kk = 0; ci < c; ++ci)
    for (int ky = 0; ky < k; ++ky)
      for (int kx = 0; kx < k; ++kx) o.koff[kk++] = (ci * hpad + ky) * wpad + kx;
  for (int oy = 0, j = 0; oy < oh; ++oy)
    for (int ox = 0; ox < ow; ++ox) o.coff[j++] = (oy * wpad + ox) * stride;
  return o;
}

// Image n's channels [c_begin, c_begin + c_count) as a [c_count, h+2*pad,
// w+2*pad] plane with +0 borders, in scratch slot 2. An unpadded input is
// read in place.
const float* padded_input(const Tensor& x, int n, int c_begin, int c_count,
                          int pad) {
  const int h = x.dim(2), w = x.dim(3);
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const float* src =
      x.data() + (static_cast<std::size_t>(n) * x.dim(1) + c_begin) * plane;
  if (pad == 0) return src;
  const int wp = w + 2 * pad;
  const std::size_t border = static_cast<std::size_t>(pad) * wp;
  const std::size_t pplane = static_cast<std::size_t>(h + 2 * pad) * wp;
  float* xp = tls_scratch(static_cast<std::size_t>(c_count) * pplane, /*slot=*/2);
  float* dst = xp;
  for (int c = 0; c < c_count; ++c) {
    std::fill(dst, dst + border + pad, 0.0f);
    dst += border + pad;
    for (int y = 0; y < h; ++y, src += w) {
      dst = std::copy(src, src + w, dst);
      // This row's right border and the next row's left border.
      std::fill(dst, dst + 2 * pad, 0.0f);
      dst += 2 * pad;
    }
    std::fill(dst, dst + border - pad, 0.0f);
    dst += border - pad;
  }
  return xp;
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

// Flat index of the first strict maximum in output (oy, ox)'s window,
// scanned row-major over its in-bounds taps: the element max-pool outputs.
// -1 if no value beats -inf.
int pool_argmax(const float* plane, int h, int w, int oy, int ox, int kernel,
                int stride, int pad) {
  const int ty = oy * stride - pad, tx = ox * stride - pad;
  float best = -std::numeric_limits<float>::infinity();
  int best_idx = -1;
  for (int iy = std::max(ty, 0); iy < std::min(ty + kernel, h); ++iy)
    for (int ix = std::max(tx, 0); ix < std::min(tx + kernel, w); ++ix) {
      const float v = plane[iy * w + ix];
      if (v > best) {
        best = v;
        best_idx = iy * w + ix;
      }
    }
  return best_idx;
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
  if (spec.stride < 1 || spec.pad < 0 || k > h + 2 * spec.pad ||
      k > wd + 2 * spec.pad)
    throw std::invalid_argument("conv2d: kernel does not fit the padded input");
  const int oh = (h + 2 * spec.pad - k) / spec.stride + 1;
  const int ow = (wd + 2 * spec.pad - k) / spec.stride + 1;
  const int ocg = oc / groups;
  const int col_rows = icg * k * k;

  // Deployment-precision view of inputs and weights: FP32 reads both in
  // place, a precision transform or calibration works on a copy of the
  // input, and the weights come converted once from the Param's cache.
  const bool in_place = t.ctx.precision == Precision::kFP32 && !t.ctx.calibrating;
  Tensor xcopy;
  if (!in_place) {
    xcopy = x->value;
    apply_activation_precision(t.ctx, layer_id + ".in", xcopy);
  }
  const Tensor& xin = in_place ? x->value : xcopy;
  const std::shared_ptr<const Tensor> wq = w.deployed(t.ctx);

  const BackendScope backend_scope(t.ctx.backend);
  Tensor out({n, oc, oh, ow});
  // Forward and backward read the column matrix straight from the padded
  // input (gemm_gather, gemm_bt_gather_acc), which gives gemm()'s and
  // gemm_bt_acc()'s bytes on that matrix under every backend.
  const ColumnOffsets off = column_offsets(icg, k, h + 2 * spec.pad,
                                           wd + 2 * spec.pad, oh, ow, spec.stride);
  for (int ni = 0; ni < n; ++ni)
    for (int g = 0; g < groups; ++g) {
      // out[ni, g*ocg : (g+1)*ocg] = Wg[ocg x col_rows] * col[col_rows x oh*ow]
      const float* w_ptr =
          wq->data() + static_cast<std::size_t>(g) * ocg * col_rows;
      gemm_gather(ocg, oh * ow, col_rows, w_ptr,
                  padded_input(xin, ni, g * icg, icg, spec.pad), off.koff.data(),
                  off.coff.data(), &out.at4(ni, g * ocg, 0, 0));
    }
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
  // Backward uses the full-precision weights/input (straight-through). It
  // works the offsets out again rather than holding them: an eval forward
  // never runs it, and its tape would keep them alive until it is freed.
  y->backprop = [y, xn, wp, bp, sp, n, icg, k, oh, ow, ocg, groups, col_rows,
                 backend]() {
    const BackendScope bw_scope(backend);
    const ColumnOffsets off =
        column_offsets(icg, k, xn->value.dim(2) + 2 * sp.pad,
                       xn->value.dim(3) + 2 * sp.pad, oh, ow, sp.stride);
    float* gcol =
        tls_scratch(static_cast<std::size_t>(col_rows) * oh * ow, /*slot=*/3);
    for (int ni = 0; ni < n; ++ni) {
      for (int g = 0; g < groups; ++g) {
        const float* gout = &y->grad.at4(ni, g * ocg, 0, 0);
        // grad_w += gout [ocg x ohw] * col^T  (col is [col_rows x ohw])
        float* gw = wp->grad.data() + static_cast<std::size_t>(g) * ocg * col_rows;
        gemm_bt_gather_acc(ocg, col_rows, oh * ow, gout,
                           padded_input(xn->value, ni, g * icg, icg, sp.pad),
                           off.koff.data(), off.coff.data(), gw);
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
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const float neg_inf = -std::numeric_limits<float>::infinity();
  Tensor out({n, c, oh, ow});
  const float* src = x->value.data();
  float* dst = out.data();
  // Each output row folds its windows tap by tap — rows of the window in
  // order, then kx — so every output sees its window in pool_argmax's
  // row-major order under the same strict `v > best` rule, without the index.
  for (int p = 0; p < n * c; ++p, src += plane)
    for (int oy = 0; oy < oh; ++oy, dst += ow) {
      std::fill(dst, dst + ow, neg_inf);
      const int ty = oy * stride - pad;
      for (int iy = std::max(ty, 0); iy < std::min(ty + kernel, h); ++iy) {
        const float* row = src + static_cast<std::size_t>(iy) * w;
        for (int kx = 0; kx < kernel; ++kx) {
          const ValidSpan xs = valid_span(w, kx, stride, pad, ow);
          for (int ox = xs.lo, ix = xs.lo * stride - pad + kx; ox < xs.hi;
               ++ox, ix += stride)
            dst[ox] = row[ix] > dst[ox] ? row[ix] : dst[ox];
        }
      }
      // found = something beat -inf. Windows that are all NaN or -inf, or
      // lie entirely in padding, emit 0.
      for (int ox = 0; ox < ow; ++ox) {
        const bool found = dst[ox] > neg_inf;
        dst[ox] = found ? dst[ox] : 0.0f;
      }
    }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  // Backward re-finds each window's first maximum in the input instead of
  // keeping an argmax per output from the forward.
  y->backprop = [y, xn, kernel, stride, pad, c, h, w, oh, ow, plane]() {
    if (!xn->requires_grad) return;
    const int n2 = y->value.dim(0);
    const float* src = xn->value.data();
    float* gx = xn->grad.data();
    const float* gy = y->grad.data();
    for (int p = 0; p < n2 * c; ++p, src += plane, gx += plane)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox, ++gy) {
          const int idx = pool_argmax(src, h, w, oy, ox, kernel, stride, pad);
          if (idx >= 0) gx[idx] += *gy;
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
