#include "tensor/tensor.h"

#include <cmath>

#include "util/logging.h"

namespace metablink::tensor {

Tensor::Tensor(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  METABLINK_CHECK(data_.size() == rows_ * cols_)
      << "shape (" << rows_ << "," << cols_ << ") vs data size "
      << data_.size();
}

Tensor Tensor::RowVector(std::vector<float> data) {
  std::size_t n = data.size();
  return Tensor(1, n, std::move(data));
}

void Tensor::SetZero() {
  std::fill(data_.begin(), data_.end(), 0.0f);
}

void Tensor::Resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // assign() reuses the existing heap block when it is large enough.
  data_.assign(rows * cols, 0.0f);
}

float Tensor::Norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

std::vector<float> Tensor::Row(std::size_t r) const {
  return std::vector<float>(row_data(r), row_data(r) + cols_);
}

float Dot(const float* a, const float* b, std::size_t n) {
  // Four independent accumulator chains so the FMAs pipeline instead of
  // serializing on one register; double accumulation keeps the result
  // within one double ulp of the sequential sum, so the rounded float is
  // stable across the unrolled and remainder paths.
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += static_cast<double>(a[i]) * b[i];
    acc1 += static_cast<double>(a[i + 1]) * b[i + 1];
    acc2 += static_cast<double>(a[i + 2]) * b[i + 2];
    acc3 += static_cast<double>(a[i + 3]) * b[i + 3];
  }
  for (; i < n; ++i) acc0 += static_cast<double>(a[i]) * b[i];
  return static_cast<float>((acc0 + acc1) + (acc2 + acc3));
}

}  // namespace metablink::tensor
