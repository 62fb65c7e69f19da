// Dense float32 tensor with value semantics.
//
// This is the storage substrate for the whole reproduction: the nn layers,
// the PQ codebooks, and the CAM lookup tables all live in Tensors. Tensors
// are always contiguous and row-major; views are deliberately not supported
// (a copy is explicit), which keeps aliasing out of the backprop engine.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pecan {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for the empty shape).
std::int64_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" — used in error messages and debug logs.
std::string shape_str(const Shape& shape);

class Tensor {
 public:
  /// Empty 0-d tensor with a single zero element is NOT created; a default
  /// tensor has no elements and no dims. Use Tensor(shape) for real data.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape. Throws on negative dims.
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// Flat element access with bounds check in debug builds.
  float& operator[](std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float operator[](std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }

  /// Multi-dim access, e.g. t.at({n, c, h, w}). Bounds-checked; O(ndim).
  float& at(std::initializer_list<std::int64_t> idx);
  float at(std::initializer_list<std::int64_t> idx) const;

  /// Row-major flat offset of a multi-index.
  std::int64_t offset(std::initializer_list<std::int64_t> idx) const;

  /// Same data, new shape (numel must match). Copies from an lvalue,
  /// moves from an rvalue.
  Tensor reshaped(Shape shape) const&;
  Tensor reshaped(Shape shape) &&;

  void fill(float value);

  /// 2-D transpose; throws unless ndim() == 2.
  Tensor transposed_2d() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace pecan
