#ifndef METABLINK_TENSOR_TENSOR_H_
#define METABLINK_TENSOR_TENSOR_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace metablink::tensor {

/// Dense row-major float matrix (rank 1 or 2). This is deliberately small:
/// the autodiff graph (graph.h) provides all composite operations; Tensor is
/// just storage plus indexing.
class Tensor {
 public:
  Tensor() = default;

  /// Rank-2 tensor of zeros.
  Tensor(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Rank-2 tensor with explicit contents. Pre: data.size() == rows*cols.
  Tensor(std::size_t rows, std::size_t cols, std::vector<float> data);

  static Tensor Zeros(std::size_t rows, std::size_t cols) {
    return Tensor(rows, cols);
  }

  /// Rank-1 vector viewed as a single row.
  static Tensor RowVector(std::vector<float> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* row_data(std::size_t r) { return data_.data() + r * cols_; }
  const float* row_data(std::size_t r) const {
    return data_.data() + r * cols_;
  }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Sets every element to zero (keeps the shape).
  void SetZero();

  /// Reshapes to [rows, cols] and zero-fills. Reuses the existing
  /// allocation when capacity suffices, so scratch tensors resized to the
  /// same (or smaller) shape stop allocating after warm-up.
  void Resize(std::size_t rows, std::size_t cols);

  /// Frobenius norm.
  float Norm() const;

  /// Copies row `r` into a new vector.
  std::vector<float> Row(std::size_t r) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// Dot product of two equal-length float spans.
float Dot(const float* a, const float* b, std::size_t n);

/// y += alpha * x over n elements: one separately rounded multiply and one
/// add per element, never fused. `x` and `y` must be the same span or not
/// overlap at all; a partial overlap would read elements already updated.
/// Runtime-dispatched (AVX2 or scalar, identical bits) with the other
/// kernels in kernels.cc.
void Axpy(float alpha, const float* x, float* y, std::size_t n);

}  // namespace metablink::tensor

#endif  // METABLINK_TENSOR_TENSOR_H_
