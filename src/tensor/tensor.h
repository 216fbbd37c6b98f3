// Dense float32 tensor used throughout the SysNoise reproduction.
//
// Layout is row-major over an arbitrary-rank shape; the NN stack uses the
// NCHW convention. The class is intentionally small: contiguous storage,
// value semantics, checked element access in debug builds.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace sysnoise {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);
  Tensor(std::initializer_list<int> shape) : Tensor(std::vector<int>(shape)) {}

  // Named constructors.
  static Tensor zeros(std::vector<int> shape);
  static Tensor full(std::vector<int> shape, float value);
  static Tensor from_vector(std::vector<int> shape, std::vector<float> data);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int i) const;
  int rank() const { return static_cast<int>(shape_.size()); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  // NCHW accessors (rank-4 only). Inline: col2im and pooling call them once
  // per element.
  float& at4(int n, int c, int h, int w) {
    assert(rank() == 4);
    const std::size_t idx =
        ((static_cast<std::size_t>(n) * shape_[1] + c) * shape_[2] + h) * shape_[3] + w;
    assert(idx < data_.size());
    return data_[idx];
  }
  float at4(int n, int c, int h, int w) const {
    return const_cast<Tensor*>(this)->at4(n, c, h, w);
  }
  // Rank-2 accessor (rows, cols).
  float& at2(int r, int c) {
    assert(rank() == 2);
    const std::size_t idx = static_cast<std::size_t>(r) * shape_[1] + c;
    assert(idx < data_.size());
    return data_[idx];
  }
  float at2(int r, int c) const { return const_cast<Tensor*>(this)->at2(r, c); }
  // Rank-3 accessor.
  float& at3(int a, int b, int c) {
    assert(rank() == 3);
    const std::size_t idx = (static_cast<std::size_t>(a) * shape_[1] + b) * shape_[2] + c;
    assert(idx < data_.size());
    return data_[idx];
  }
  float at3(int a, int b, int c) const {
    return const_cast<Tensor*>(this)->at3(a, b, c);
  }

  // Reinterpret the flat buffer with a new shape of identical element count.
  Tensor reshaped(std::vector<int> new_shape) const;

  // Elementwise in-place helpers.
  void fill(float value);
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(float scalar);
  Tensor& add_scaled_(const Tensor& other, float scale);  // this += scale*other

  // Reductions.
  float min() const;
  float max() const;
  float sum() const;
  float mean() const;
  float abs_max() const;

  // Slice batch item n (rank>=1, first axis) as copy of shape shape[1:].
  Tensor slice_front(int n) const;
  // Write `item` (shape shape[1:]) into first-axis position n.
  void set_front(int n, const Tensor& item);

  std::string shape_str() const;

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

// Elementwise binary/unary out-of-place helpers.
Tensor operator+(const Tensor& a, const Tensor& b);
Tensor operator-(const Tensor& a, const Tensor& b);
Tensor operator*(const Tensor& a, float s);

// Stack per-item tensors (each [1, ...]) into one batch tensor along the
// leading axis: k items of shape [1, d1, ...] -> [k, d1, ...].
Tensor stack_front(const std::vector<Tensor>& items);

// Stack already-batched tensors [b_i, d1, ...] (equal trailing dims) into
// one [sum(b_i), d1, ...] tensor along the leading axis. Row-major layout
// means every sample's bytes are copied verbatim, so sample s of part p is
// bit-identical at stacked index (b_0 + ... + b_{p-1} + s) — the property
// serving micro-batches rely on. Throws std::invalid_argument on
// trailing-dim mismatch.
Tensor stack_parts(const std::vector<const Tensor*>& parts);

// Maximum absolute difference between two same-shape tensors.
float max_abs_diff(const Tensor& a, const Tensor& b);

// Mean squared error between two same-shape tensors.
float mse(const Tensor& a, const Tensor& b);

std::size_t shape_numel(const std::vector<int>& shape);

}  // namespace sysnoise
