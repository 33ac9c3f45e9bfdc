#include "math/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "math/kernels/kernel_table.h"

namespace fvae {

namespace {

// dst (cols x rows) = src (rows x cols)^T, walked in square tiles so the
// strided side of the copy stays within a few cache lines per tile.
void TransposeInto(const float* src, size_t rows, size_t cols, float* dst) {
  constexpr size_t kTile = 32;
  for (size_t r0 = 0; r0 < rows; r0 += kTile) {
    const size_t r1 = std::min(rows, r0 + kTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTile) {
      const size_t c1 = std::min(cols, c0 + kTile);
      for (size_t r = r0; r < r1; ++r) {
        for (size_t c = c0; c < c1; ++c) dst[c * rows + r] = src[r * cols + c];
      }
    }
  }
}

// Packs src^T into this thread's panel and returns it. The panel grows to
// the largest operand the thread has packed and is reused after that, so
// concurrent callers never share it and a warmed-up caller does not
// allocate.
const float* PackTransposed(const Matrix& src) {
  thread_local std::vector<float> panel;
  if (panel.size() < src.size()) panel.resize(src.size());
  TransposeInto(src.data(), src.rows(), src.cols(), panel.data());
  return panel.data();
}

}  // namespace

Matrix Matrix::FromRows(const std::vector<std::vector<float>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    FVAE_CHECK(rows[r].size() == m.cols_) << "ragged initializer";
    std::copy(rows[r].begin(), rows[r].end(), m.Row(r));
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, float stddev, Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data_[i] = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return m;
}

Matrix Matrix::XavierUniform(size_t fan_in, size_t fan_out, Rng& rng) {
  Matrix m(fan_in, fan_out);
  const float limit = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  for (size_t i = 0; i < m.size(); ++i) {
    m.data_[i] = static_cast<float>(rng.Uniform(-limit, limit));
  }
  return m;
}

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  // Capacity-reusing: allocates only while growing past the high-water
  // mark, so a warmed-up serving encode is allocation-free (asserted by
  // serving_test's operator-new interposer).
  data_.assign(rows * cols, 0.0f);  // fvae-lint: allow(hot-alloc)
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  TransposeInto(data(), rows_, cols_, out.data());
  return out;
}

void Matrix::Scale(float factor) {
  for (float& v : data_) v *= factor;
}

void Matrix::Add(const Matrix& other) {
  FVAE_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, float factor) {
  FVAE_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += factor * other.data_[i];
  }
}

float Matrix::FrobeniusNorm() const {
  double total = 0.0;
  for (float v : data_) total += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(total));
}

float Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  FVAE_CHECK(a.rows_ == b.rows_ && a.cols_ == b.cols_) << "shape mismatch";
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a.data_[i] - b.data_[i]));
  }
  return max_diff;
}

std::string Matrix::ToString(size_t max_rows, size_t max_cols) const {
  std::ostringstream out;
  out << rows_ << "x" << cols_ << " [";
  for (size_t r = 0; r < std::min(rows_, max_rows); ++r) {
    out << (r == 0 ? "[" : " [");
    for (size_t c = 0; c < std::min(cols_, max_cols); ++c) {
      if (c > 0) out << ", ";
      out << (*this)(r, c);
    }
    if (cols_ > max_cols) out << ", ...";
    out << "]";
    if (r + 1 < std::min(rows_, max_rows)) out << "\n";
  }
  if (rows_ > max_rows) out << "\n ...";
  out << "]";
  return out.str();
}

void Gemm(const Matrix& a, const Matrix& b, Matrix* out) {
  FVAE_CHECK(a.cols() == b.rows())
      << "gemm shape mismatch: " << a.cols() << " vs " << b.rows();
  out->Resize(a.rows(), b.cols());
  GemmAccumulate(a, b, out);
}

void GemmAccumulate(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k && out->rows() == m && out->cols() == n)
      << "gemm-accumulate shape mismatch";
  // Shape checks stay here; the arithmetic runs in the ISA-dispatched
  // kernel layer (src/math/kernels/), which guarantees ascending-p
  // accumulation with no zero-operand skips in every tile and tail path.
  Kernels().gemm_accumulate(a.Row(0), b.Row(0), out->Row(0), m, k, n);
}

// Both transposed products pack the transposed operand and run the same
// gemm_accumulate kernel as Gemm, so all three share its numeric contract:
// GemmNT(a, b) is bitwise Gemm(a, b.Transposed()) and GemmTN(a, b) is
// bitwise Gemm(a.Transposed(), b).
void GemmNT(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  FVAE_CHECK(b.cols() == k)
      << "gemm-nt shape mismatch: " << a.cols() << " vs " << b.cols();
  out->Resize(m, n);
  if (out->size() == 0 || k == 0) return;
  Kernels().gemm_accumulate(a.data(), PackTransposed(b), out->data(), m, k,
                            n);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  FVAE_CHECK(b.rows() == k)
      << "gemm-tn shape mismatch: " << a.rows() << " vs " << b.rows();
  out->Resize(m, n);
  if (out->size() == 0 || k == 0) return;
  Kernels().gemm_accumulate(PackTransposed(a), b.data(), out->data(), m, k,
                            n);
}

}  // namespace fvae
