#include "tests/support/dense_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pme::linalg {

namespace {

/// In-place row echelon reduction; returns the rank.
size_t EchelonRank(std::vector<double>& m, size_t rows, size_t cols,
                   double tol) {
  size_t rank = 0;
  for (size_t col = 0; col < cols && rank < rows; ++col) {
    // Partial pivot.
    size_t pivot = rank;
    double best = std::fabs(m[rank * cols + col]);
    for (size_t r = rank + 1; r < rows; ++r) {
      double v = std::fabs(m[r * cols + col]);
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best <= tol) continue;
    if (pivot != rank) {
      for (size_t c = 0; c < cols; ++c) {
        std::swap(m[pivot * cols + c], m[rank * cols + c]);
      }
    }
    const double p = m[rank * cols + col];
    for (size_t r = rank + 1; r < rows; ++r) {
      const double f = m[r * cols + col] / p;
      if (f == 0.0) continue;
      for (size_t c = col; c < cols; ++c) {
        m[r * cols + c] -= f * m[rank * cols + c];
      }
    }
    ++rank;
  }
  return rank;
}

}  // namespace

size_t DenseMatrix::Rank(double tol) const {
  std::vector<double> work = data_;
  return EchelonRank(work, rows_, cols_, tol);
}

bool DenseMatrix::RowSpaceContains(const std::vector<double>& v,
                                   double tol) const {
  assert(v.size() == cols_ || rows_ == 0);
  std::vector<double> work = data_;
  const size_t base_rank = EchelonRank(work, rows_, cols_, tol);
  std::vector<double> augmented = data_;
  augmented.insert(augmented.end(), v.begin(), v.end());
  const size_t aug_rank = EchelonRank(augmented, rows_ + 1, cols_, tol);
  return aug_rank == base_rank;
}

void DenseMatrix::AppendRow(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  assert(row.size() == cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

}  // namespace pme::linalg
