// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_DENSE_MATRIX_H_
#define PME_TESTS_SUPPORT_DENSE_MATRIX_H_

#include <cstddef>
#include <vector>

namespace pme::linalg {

/// Row-major dense matrix used where problems are small by construction:
/// per-bucket invariant matrices (a bucket holds ℓ records, so g+h ≤ 2ℓ
/// rows).
class DenseMatrix {
 public:
  DenseMatrix() = default;
  /// Zero-initialized rows x cols matrix.
  DenseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Rank via Gaussian elimination with partial pivoting; entries whose
  /// magnitude falls below `tol` are treated as zero. Used to verify the
  /// paper's Conciseness theorem (rank of a bucket's invariant matrix is
  /// g + h − 1).
  size_t Rank(double tol = 1e-10) const;

  /// True iff `v` lies in the row space of this matrix: rank([M; v]) ==
  /// rank(M). Used to verify the Completeness theorem.
  bool RowSpaceContains(const std::vector<double>& v,
                        double tol = 1e-10) const;

  /// Appends a row (must match cols(); first row fixes cols for an empty
  /// matrix).
  void AppendRow(const std::vector<double>& row);

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace pme::linalg

#endif  // PME_TESTS_SUPPORT_DENSE_MATRIX_H_
