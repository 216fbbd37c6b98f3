#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

namespace sysnoise {

std::size_t shape_numel(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0) throw std::invalid_argument("negative dimension");
    n *= static_cast<std::size_t>(d);
  }
  return n;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor Tensor::zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(std::vector<int> shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from_vector(std::vector<int> shape, std::vector<float> data) {
  if (shape_numel(shape) != data.size())
    throw std::invalid_argument("from_vector: shape/data size mismatch");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

int Tensor::dim(int i) const {
  if (i < 0) i += rank();
  if (i < 0 || i >= rank()) throw std::out_of_range("Tensor::dim");
  return shape_[static_cast<std::size_t>(i)];
}

Tensor Tensor::reshaped(std::vector<int> new_shape) const {
  if (shape_numel(new_shape) != data_.size())
    throw std::invalid_argument("reshaped: element count mismatch");
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.data_ = data_;
  return t;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::add_(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::add_scaled_(const Tensor& other, float scale) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
  return *this;
}

float Tensor::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}

float Tensor::sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::abs_max() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Tensor Tensor::slice_front(int n) const {
  if (rank() < 1) throw std::invalid_argument("slice_front: rank 0");
  std::vector<int> sub(shape_.begin() + 1, shape_.end());
  Tensor out(sub);
  const std::size_t stride = out.size();
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(n * stride),
            data_.begin() + static_cast<std::ptrdiff_t>((n + 1) * stride),
            out.data_.begin());
  return out;
}

void Tensor::set_front(int n, const Tensor& item) {
  const std::size_t stride = item.size();
  assert((n + 1) * stride <= data_.size());
  std::copy(item.data_.begin(), item.data_.end(),
            data_.begin() + static_cast<std::ptrdiff_t>(n * stride));
}

std::string Tensor::shape_str() const {
  std::string s = "[";
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) s += ",";
    s += std::to_string(shape_[i]);
  }
  return s + "]";
}

Tensor operator+(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.add_(b);
  return out;
}

Tensor operator-(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.sub_(b);
  return out;
}

Tensor operator*(const Tensor& a, float s) {
  Tensor out = a;
  out.mul_(s);
  return out;
}

Tensor stack_front(const std::vector<Tensor>& items) {
  if (items.empty()) return {};
  std::vector<int> shape = items[0].shape();
  shape[0] = static_cast<int>(items.size());
  Tensor out(shape);
  for (std::size_t i = 0; i < items.size(); ++i)
    out.set_front(static_cast<int>(i), items[i].slice_front(0));
  return out;
}

Tensor stack_parts(const std::vector<const Tensor*>& parts) {
  if (parts.empty()) return {};
  const std::vector<int>& head = parts[0]->shape();
  if (head.empty()) throw std::invalid_argument("stack_parts: rank-0 part");
  int total = 0;
  for (const Tensor* part : parts) {
    const std::vector<int>& shape = part->shape();
    if (shape.size() != head.size() ||
        !std::equal(shape.begin() + 1, shape.end(), head.begin() + 1))
      throw std::invalid_argument("stack_parts: trailing-dim mismatch (" +
                                  part->shape_str() + " vs " +
                                  parts[0]->shape_str() + ")");
    total += shape[0];
  }
  std::vector<int> shape = head;
  shape[0] = total;
  Tensor out(shape);
  float* dst = out.data();
  for (const Tensor* part : parts) {
    std::memcpy(dst, part->data(), part->size() * sizeof(float));
    dst += part->size();
  }
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

float mse(const Tensor& a, const Tensor& b) {
  assert(a.size() == b.size());
  if (a.empty()) return 0.0f;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return static_cast<float>(s / static_cast<double>(a.size()));
}

}  // namespace sysnoise
