// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_LINALG_SPARSE_MATRIX_H_
#define PME_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/vec_math.h"

namespace pme::linalg {

/// One nonzero entry during matrix assembly.
struct Triplet {
  uint32_t row;
  uint32_t col;
  double value;
};

/// Immutable sparse matrix in Compressed Sparse Row (CSR) form.
///
/// This is the workhorse of the MaxEnt solver: the constraint matrix `A`
/// (one row per ME constraint, one column per probability term) is stored
/// here, and every dual-gradient evaluation performs one `Av` and one
/// `Transpose·v` product. Both products are cache-friendly single passes
/// over the CSR arrays.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() = default;

  /// Builds from triplets. Duplicate (row, col) entries are summed;
  /// explicit zeros are dropped. Triplets out of bounds yield an error.
  static Result<SparseMatrix> FromTriplets(size_t rows, size_t cols,
                                           std::vector<Triplet> triplets);

  /// Builds a dense row-major matrix (testing convenience).
  static SparseMatrix FromDense(const std::vector<std::vector<double>>& dense);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// y = A x. `x.size()` must equal `cols()`; `y` is resized to `rows()`.
  void Multiply(const std::vector<double>& x, std::vector<double>& y) const;

  /// y = A^T x. `x.size()` must equal `rows()`; `y` is resized to `cols()`.
  void TransposeMultiply(const std::vector<double>& x,
                         std::vector<double>& y) const;

  /// y = A x into a pre-sized buffer (`x.size == cols()`, `y.size ==
  /// rows()`). The dual hot path: no resize, no per-call bounds logic —
  /// a single unrolled, prefetch-friendly pass over the CSR arrays.
  void MultiplyInto(kernels::ConstSpan x, kernels::Span y) const;

  /// Fused gradient pass y = A x − b (`b.size == y.size == rows()`): the
  /// row product and the RHS subtraction in one sweep, saving a second
  /// pass over the gradient vector per dual evaluation.
  void MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                         kernels::Span y) const;

  /// y = A^T x into a pre-sized buffer (`x.size == rows()`, `y.size ==
  /// cols()`).
  void TransposeMultiplyInto(kernels::ConstSpan x, kernels::Span y) const;

  /// y += alpha * A^T x (no reallocation; `y.size()` must equal `cols()`).
  void TransposeMultiplyAccumulate(double alpha, const std::vector<double>& x,
                                   std::vector<double>& y) const;

  /// Element lookup (O(row nnz)); 0.0 for structural zeros.
  double At(size_t row, size_t col) const;

  /// CSR internals, exposed read-only for kernels that fuse operations
  /// (e.g. the dual objective computes exp(A^T lambda) in one pass).
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class SparseMatrixBuilder;

  static Result<SparseMatrix> BuildCsr(size_t rows, size_t cols,
                                       std::vector<Triplet>& triplets);

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;    // size rows_+1
  std::vector<uint32_t> col_indices_;  // size nnz
  std::vector<double> values_;         // size nnz
};

/// Incremental row-by-row CSR builder. Rows are appended in order; each
/// row's entries may arrive unsorted and with duplicates (summed).
class SparseMatrixBuilder {
 public:
  /// `cols` fixes the column dimension up front.
  explicit SparseMatrixBuilder(size_t cols) : cols_(cols) {}

  /// Starts a fresh row; returns its index.
  size_t BeginRow();

  /// Adds `value` at `col` of the current row. Requires an open row.
  Status Add(uint32_t col, double value);

  /// Appends a complete row from parallel arrays.
  Status AddRow(const std::vector<uint32_t>& cols,
                const std::vector<double>& values);

  /// Pointer flavor of AddRow, for callers that hold a row as a slice
  /// of a larger array.
  Status AddRow(const uint32_t* cols, const double* values, size_t n);

  /// Number of rows begun so far.
  size_t rows() const { return open_rows_; }

  /// Finalizes into an immutable CSR matrix.
  Result<SparseMatrix> Build();

 private:
  size_t cols_;
  size_t open_rows_ = 0;
  size_t current_row_ = 0;
  bool row_open_ = false;
  std::vector<Triplet> triplets_;
};

}  // namespace pme::linalg

#endif  // PME_LINALG_SPARSE_MATRIX_H_
