#include "src/math/matrix.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/parallel.h"
#include "src/math/kernels.h"

namespace openea::math {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::FillUniform(Rng& rng, float scale) {
  for (float& v : data_) v = rng.NextFloat(-scale, scale);
}

void Matrix::FillXavier(Rng& rng) {
  const float scale =
      std::sqrt(6.0f / static_cast<float>(rows_ + cols_ + 1e-9f));
  FillUniform(rng, scale);
}

void Matrix::FillIdentity() {
  Fill(0.0f);
  const size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) At(i, i) = 1.0f;
}

void Matrix::AddScaled(const Matrix& other, float alpha) {
  OPENEA_CHECK_EQ(rows_, other.rows_);
  OPENEA_CHECK_EQ(cols_, other.cols_);
  kernels::Active().axpy(alpha, other.data_.data(), data_.data(),
                         data_.size());
}

void Matrix::Scale(float alpha) {
  kernels::Active().scale(alpha, data_.data(), data_.size());
}

float Matrix::FrobeniusNorm() const {
  return std::sqrt(kernels::Active().squared_l2(data_.data(), data_.size()));
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out.At(c, r) = At(r, c);
  }
  return out;
}

void Gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  OPENEA_CHECK_EQ(a.cols(), b.rows());
  out.Reshape(a.rows(), b.cols());
  // Row-blocked across the pool; each chunk is one call into the dispatched
  // gemm_block kernel (i-k-j order inside, matching the historical serial
  // loop under the scalar backend).
  const kernels::KernelTable& kt = kernels::Active();
  const size_t k = a.cols(), n = b.cols();
  ParallelFor(0, a.rows(), 0, [&](size_t row_begin, size_t row_end) {
    kt.gemm_block(a.Row(row_begin).data(), k, b.Data().data(), n,
                  out.Row(row_begin).data(), n, row_end - row_begin, k, n);
  });
}

void GemmTransposeA(const Matrix& a, const Matrix& b, Matrix& out) {
  OPENEA_CHECK_EQ(a.rows(), b.rows());
  out.Reshape(a.cols(), b.cols());
  // Blocked over output rows (columns of a); k ascends inside each output
  // row, preserving the serial accumulation order. a is walked column-wise,
  // so the inner j loop is an axpy into the output row (with the historical
  // zero-skip kept outside the kernel).
  const kernels::KernelTable& kt = kernels::Active();
  ParallelFor(0, a.cols(), 0, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      auto out_row = out.Row(i);
      std::fill(out_row.begin(), out_row.end(), 0.0f);
      for (size_t k = 0; k < a.rows(); ++k) {
        const float aki = a.At(k, i);
        if (aki == 0.0f) continue;
        kt.axpy(aki, b.Row(k).data(), out_row.data(), b.cols());
      }
    }
  });
}

void GemmTransposeB(const Matrix& a, const Matrix& b, Matrix& out) {
  OPENEA_CHECK_EQ(a.cols(), b.cols());
  out.Reshape(a.rows(), b.rows());
  const kernels::KernelTable& kt = kernels::Active();
  const size_t k = a.cols();
  ParallelFor(0, a.rows(), 0, [&](size_t row_begin, size_t row_end) {
    for (size_t i = row_begin; i < row_end; ++i) {
      kt.dot_tile(a.Row(i).data(), k, b.Data().data(), k, out.Row(i).data(),
                  b.rows(), 1, b.rows(), k);
    }
  });
}

void MatVec(const Matrix& m, std::span<const float> x, std::span<float> y) {
  OPENEA_CHECK_EQ(m.cols(), x.size());
  OPENEA_CHECK_EQ(m.rows(), y.size());
  const kernels::KernelTable& kt = kernels::Active();
  ParallelFor(0, m.rows(), 0, [&](size_t row_begin, size_t row_end) {
    kt.dot_tile(x.data(), m.cols(), m.Row(row_begin).data(), m.cols(),
                y.data() + row_begin, row_end - row_begin, 1,
                row_end - row_begin, m.cols());
  });
}

void MatTransposeVec(const Matrix& m, std::span<const float> x,
                     std::span<float> y) {
  OPENEA_CHECK_EQ(m.rows(), x.size());
  OPENEA_CHECK_EQ(m.cols(), y.size());
  std::fill(y.begin(), y.end(), 0.0f);
  const kernels::KernelTable& kt = kernels::Active();
  for (size_t r = 0; r < m.rows(); ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    kt.axpy(xr, m.Row(r).data(), y.data(), m.cols());
  }
}

Matrix LeastSquaresMap(const Matrix& x, const Matrix& y, float ridge) {
  OPENEA_CHECK_EQ(x.rows(), y.rows());
  const size_t d = x.cols();
  Matrix xtx;
  GemmTransposeA(x, x, xtx);
  for (size_t i = 0; i < d; ++i) xtx.At(i, i) += ridge;
  Matrix xty;
  GemmTransposeA(x, y, xty);

  // Gaussian elimination with partial pivoting on the augmented system
  // [xtx | xty] -> solve xtx * M = xty.
  const size_t n_rhs = xty.cols();
  Matrix aug(d, d + n_rhs);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) aug.At(i, j) = xtx.At(i, j);
    for (size_t j = 0; j < n_rhs; ++j) aug.At(i, d + j) = xty.At(i, j);
  }
  for (size_t col = 0; col < d; ++col) {
    size_t pivot = col;
    float best = std::fabs(aug.At(col, col));
    for (size_t r = col + 1; r < d; ++r) {
      const float v = std::fabs(aug.At(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-12f) continue;
    if (pivot != col) {
      for (size_t j = 0; j < aug.cols(); ++j)
        std::swap(aug.At(col, j), aug.At(pivot, j));
    }
    const float inv = 1.0f / aug.At(col, col);
    for (size_t j = col; j < aug.cols(); ++j) aug.At(col, j) *= inv;
    for (size_t r = 0; r < d; ++r) {
      if (r == col) continue;
      const float factor = aug.At(r, col);
      if (factor == 0.0f) continue;
      for (size_t j = col; j < aug.cols(); ++j)
        aug.At(r, j) -= factor * aug.At(col, j);
    }
  }
  Matrix m(d, n_rhs);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < n_rhs; ++j) m.At(i, j) = aug.At(i, d + j);
  }
  return m;
}

}  // namespace openea::math
