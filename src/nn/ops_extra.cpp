#include "nn/ops_extra.h"

#include <cmath>
#include <stdexcept>

namespace sysnoise::nn {

Node* silu(Tape& t, Node* x) {
  Tensor out = x->value;
  for (float& v : out.vec()) v = v / (1.0f + std::exp(-v));
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn]() {
    if (!xn->requires_grad) return;
    for (std::size_t i = 0; i < y->grad.size(); ++i) {
      const float v = xn->value[i];
      const float s = 1.0f / (1.0f + std::exp(-v));
      xn->grad[i] += y->grad[i] * (s + v * s * (1.0f - s));
    }
  };
  return y;
}

Node* channel_scale(Tape& t, Node* x, Node* s) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  if (s->value.dim(0) != n || s->value.dim(1) != c)
    throw std::invalid_argument("channel_scale: gate shape mismatch");
  Tensor out(x->value.shape());
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci) {
      const float g = s->value.at2(ni, ci);
      const float* p = &x->value.at4(ni, ci, 0, 0);
      float* o = &out.at4(ni, ci, 0, 0);
      for (int i = 0; i < h * w; ++i) o[i] = p[i] * g;
    }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  Node* sn = s;
  y->backprop = [y, xn, sn, n, c, h, w]() {
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < c; ++ci) {
        const float g = sn->value.at2(ni, ci);
        const float* go = &y->grad.at4(ni, ci, 0, 0);
        if (xn->requires_grad) {
          float* gx = &xn->grad.at4(ni, ci, 0, 0);
          for (int i = 0; i < h * w; ++i) gx[i] += go[i] * g;
        }
        if (sn->requires_grad) {
          const float* xv = &xn->value.at4(ni, ci, 0, 0);
          float acc = 0.0f;
          for (int i = 0; i < h * w; ++i) acc += go[i] * xv[i];
          sn->grad.at2(ni, ci) += acc;
        }
      }
  };
  return y;
}

Node* add_pos_embedding(Tape& t, Node* x, Param& pos) {
  const Tensor& table = pos.value;
  if (x->value.rank() != 3 || table.rank() != 3 || table.dim(0) != 1 ||
      x->value.dim(1) > table.dim(1) || x->value.dim(2) != table.dim(2))
    throw std::invalid_argument(
        "add_pos_embedding: x needs shape [B, T, D] and the table [1, >=T, D]");
  const int b = x->value.dim(0), tt = x->value.dim(1), d = x->value.dim(2);
  // Each batch item's T x D block lines up with the table's first T rows.
  const auto stride = static_cast<std::size_t>(tt) * static_cast<std::size_t>(d);
  Tensor out = x->value;
  for (int bi = 0; bi < b; ++bi)
    for (std::size_t i = 0; i < stride; ++i)
      out[static_cast<std::size_t>(bi) * stride + i] += table[i];
  Node* y = t.make(std::move(out));
  Node* xn = x;
  Param* pp = &pos;
  y->backprop = [y, xn, pp, b, stride]() {
    for (int bi = 0; bi < b; ++bi)
      for (std::size_t i = 0; i < stride; ++i) {
        const float g = y->grad[static_cast<std::size_t>(bi) * stride + i];
        pp->grad[i] += g;
        if (xn->requires_grad)
          xn->grad[static_cast<std::size_t>(bi) * stride + i] += g;
      }
  };
  return y;
}

Node* mean_tokens(Tape& t, Node* x) {
  const int b = x->value.dim(0), tt = x->value.dim(1), d = x->value.dim(2);
  Tensor out({b, d});
  const float inv = 1.0f / static_cast<float>(tt);
  for (int bi = 0; bi < b; ++bi)
    for (int ti = 0; ti < tt; ++ti)
      for (int di = 0; di < d; ++di)
        out.at2(bi, di) += x->value.at3(bi, ti, di) * inv;
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, b, tt, d, inv]() {
    if (!xn->requires_grad) return;
    for (int bi = 0; bi < b; ++bi)
      for (int ti = 0; ti < tt; ++ti)
        for (int di = 0; di < d; ++di)
          xn->grad.at3(bi, ti, di) += y->grad.at2(bi, di) * inv;
  };
  return y;
}

Node* nchw_to_nhwc(Tape& t, Node* x) {
  const int n = x->value.dim(0), c = x->value.dim(1), h = x->value.dim(2),
            w = x->value.dim(3);
  Tensor out({n, h, w, c});
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int y = 0; y < h; ++y)
        for (int xx = 0; xx < w; ++xx)
          out.data()[((static_cast<std::size_t>(ni) * h + y) * w + xx) * c + ci] =
              x->value.at4(ni, ci, y, xx);
  Node* yq = t.make(std::move(out));
  Node* xn = x;
  yq->backprop = [yq, xn, n, c, h, w]() {
    if (!xn->requires_grad) return;
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int y = 0; y < h; ++y)
          for (int xx = 0; xx < w; ++xx)
            xn->grad.at4(ni, ci, y, xx) +=
                yq->grad.data()[((static_cast<std::size_t>(ni) * h + y) * w + xx) * c + ci];
  };
  return yq;
}

namespace {

// Shared index map builder for window partition: flat output token index ->
// flat input token index (within one batch item).
std::vector<int> window_index_map(int h, int w, int win) {
  std::vector<int> map;
  map.reserve(static_cast<std::size_t>(h) * w);
  for (int wy = 0; wy < h / win; ++wy)
    for (int wx = 0; wx < w / win; ++wx)
      for (int iy = 0; iy < win; ++iy)
        for (int ix = 0; ix < win; ++ix)
          map.push_back((wy * win + iy) * w + (wx * win + ix));
  return map;
}

}  // namespace

Node* window_partition(Tape& t, Node* x, int h, int w, int win) {
  const int b = x->value.dim(0), d = x->value.dim(2);
  if (x->value.dim(1) != h * w || h % win != 0 || w % win != 0)
    throw std::invalid_argument("window_partition: bad geometry");
  const int nw = (h / win) * (w / win);
  auto map = std::make_shared<std::vector<int>>(window_index_map(h, w, win));
  Tensor out({b * nw, win * win, d});
  for (int bi = 0; bi < b; ++bi)
    for (std::size_t i = 0; i < map->size(); ++i)
      std::copy_n(
          x->value.data() + (static_cast<std::size_t>(bi) * h * w + static_cast<std::size_t>((*map)[i])) * d,
          d,
          out.data() + (static_cast<std::size_t>(bi) * map->size() + i) * d);
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, map, b, h, w, d]() {
    if (!xn->requires_grad) return;
    for (int bi = 0; bi < b; ++bi)
      for (std::size_t i = 0; i < map->size(); ++i) {
        const float* g =
            y->grad.data() + (static_cast<std::size_t>(bi) * map->size() + i) * d;
        float* dst =
            xn->grad.data() +
            (static_cast<std::size_t>(bi) * h * w + static_cast<std::size_t>((*map)[i])) * d;
        for (int j = 0; j < d; ++j) dst[j] += g[j];
      }
  };
  return y;
}

Node* window_merge(Tape& t, Node* x, int h, int w, int win, int batch) {
  const int d = x->value.dim(2);
  auto map = std::make_shared<std::vector<int>>(window_index_map(h, w, win));
  Tensor out({batch, h * w, d});
  for (int bi = 0; bi < batch; ++bi)
    for (std::size_t i = 0; i < map->size(); ++i)
      std::copy_n(
          x->value.data() + (static_cast<std::size_t>(bi) * map->size() + i) * d, d,
          out.data() +
              (static_cast<std::size_t>(bi) * h * w + static_cast<std::size_t>((*map)[i])) * d);
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, map, batch, h, w, d]() {
    if (!xn->requires_grad) return;
    for (int bi = 0; bi < batch; ++bi)
      for (std::size_t i = 0; i < map->size(); ++i) {
        const float* g =
            y->grad.data() +
            (static_cast<std::size_t>(bi) * h * w + static_cast<std::size_t>((*map)[i])) * d;
        float* dst =
            xn->grad.data() + (static_cast<std::size_t>(bi) * map->size() + i) * d;
        for (int j = 0; j < d; ++j) dst[j] += g[j];
      }
  };
  return y;
}

Node* patch_merge(Tape& t, Node* x, int h, int w) {
  const int b = x->value.dim(0), d = x->value.dim(2);
  if (x->value.dim(1) != h * w || h % 2 != 0 || w % 2 != 0)
    throw std::invalid_argument("patch_merge: bad geometry");
  const int oh = h / 2, ow = w / 2;
  Tensor out({b, oh * ow, 4 * d});
  for (int bi = 0; bi < b; ++bi)
    for (int oy = 0; oy < oh; ++oy)
      for (int ox = 0; ox < ow; ++ox) {
        float* dst =
            out.data() +
            (static_cast<std::size_t>(bi) * oh * ow + static_cast<std::size_t>(oy) * ow + ox) * 4 * d;
        int slot = 0;
        for (int dy = 0; dy < 2; ++dy)
          for (int dx = 0; dx < 2; ++dx) {
            const int src_tok = (2 * oy + dy) * w + (2 * ox + dx);
            std::copy_n(
                x->value.data() + (static_cast<std::size_t>(bi) * h * w + src_tok) * d, d,
                dst + slot * d);
            ++slot;
          }
      }
  Node* y = t.make(std::move(out));
  Node* xn = x;
  y->backprop = [y, xn, b, h, w, d]() {
    if (!xn->requires_grad) return;
    const int oh = h / 2, ow = w / 2;
    for (int bi = 0; bi < b; ++bi)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          const float* g =
              y->grad.data() +
              (static_cast<std::size_t>(bi) * oh * ow + static_cast<std::size_t>(oy) * ow + ox) * 4 * d;
          int slot = 0;
          for (int dy = 0; dy < 2; ++dy)
            for (int dx = 0; dx < 2; ++dx) {
              const int src_tok = (2 * oy + dy) * w + (2 * ox + dx);
              float* dst =
                  xn->grad.data() + (static_cast<std::size_t>(bi) * h * w + src_tok) * d;
              for (int j = 0; j < d; ++j) dst[j] += g[slot * d + j];
              ++slot;
            }
        }
  };
  return y;
}

Node* crop(Tape& t, Node* x, int h, int w) {
  if (x->value.dim(2) == h && x->value.dim(3) == w) return x;
  const int n = x->value.dim(0), c = x->value.dim(1);
  Tensor out({n, c, h, w});
  for (int ni = 0; ni < n; ++ni)
    for (int ci = 0; ci < c; ++ci)
      for (int y = 0; y < h; ++y)
        for (int xx = 0; xx < w; ++xx)
          out.at4(ni, ci, y, xx) = x->value.at4(ni, ci, y, xx);
  Node* yn = t.make(std::move(out));
  Node* xn = x;
  yn->backprop = [yn, xn, n, c, h, w]() {
    if (!xn->requires_grad) return;
    for (int ni = 0; ni < n; ++ni)
      for (int ci = 0; ci < c; ++ci)
        for (int y = 0; y < h; ++y)
          for (int xx = 0; xx < w; ++xx)
            xn->grad.at4(ni, ci, y, xx) += yn->grad.at4(ni, ci, y, xx);
  };
  return yn;
}

}  // namespace sysnoise::nn
