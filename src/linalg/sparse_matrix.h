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

/// One nonzero entry of SparseMatrix::FromTriplets.
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

  /// Builds from triplets (testing convenience). Duplicate (row, col)
  /// entries are summed; explicit zeros are dropped. Triplets out of
  /// bounds yield an error.
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

  /// Rows [row_begin, row_end) of MultiplyMinusInto, the rest of `y`
  /// untouched. Each row is the same dot product whichever range it falls
  /// in, so any split of the rows gives the full pass's bits.
  void MultiplyMinusRows(kernels::ConstSpan x, kernels::ConstSpan b,
                         kernels::Span y, size_t row_begin,
                         size_t row_end) const;

  /// y = A^T x into a pre-sized buffer (`x.size == rows()`, `y.size ==
  /// cols()`).
  void TransposeMultiplyInto(kernels::ConstSpan x, kernels::Span y) const;

  /// The entries of columns [col_begin, col_end), as a list of row
  /// segments: every row with entries in the range, ascending, and the
  /// offsets [lo, hi) of those entries (rows keep their entries in
  /// ascending column order, so they are contiguous).
  struct ColumnSlice {
    size_t col_begin = 0;
    size_t col_end = 0;
    std::vector<uint32_t> rows;
    std::vector<size_t> lo;
    std::vector<size_t> hi;
  };
  ColumnSlice SliceColumns(size_t col_begin, size_t col_end) const;

  /// Columns [slice.col_begin, slice.col_end) of TransposeMultiplyInto,
  /// the rest of `y` untouched. Every column accumulates its rows in
  /// ascending order, as in the whole-matrix pass, so any split of the
  /// columns into slices gives that pass's bits.
  void TransposeMultiplySlice(kernels::ConstSpan x, kernels::Span y,
                              const ColumnSlice& slice) const;

  /// Element lookup (O(row nnz)); 0.0 for structural zeros.
  double At(size_t row, size_t col) const;

  /// CSR internals, exposed read-only for kernels that fuse operations
  /// (e.g. the dual objective computes exp(A^T lambda) in one pass).
  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<uint32_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  friend class SparseMatrixBuilder;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;    // size rows_+1
  std::vector<uint32_t> col_indices_;  // size nnz
  std::vector<double> values_;         // size nnz
};

/// Incremental row-by-row CSR builder: entries go straight into the
/// CSR arrays, and Build moves them into the matrix. Rows are appended in
/// order. A row's entries may arrive unsorted, with duplicates or with
/// zeros; only a row that does is sorted when it closes (stably, so
/// duplicates are summed in arrival order), and zero sums are dropped.
class SparseMatrixBuilder {
 public:
  /// `cols` fixes the column dimension up front.
  explicit SparseMatrixBuilder(size_t cols) : cols_(cols), offsets_{0} {}

  /// Sizes the arrays for `rows` rows and `nnz` entries, so a caller that
  /// knows its problem's size writes it without regrowing them.
  void Reserve(size_t rows, size_t nnz);

  /// Closes the open row, if any, and starts a fresh one; returns its
  /// index.
  size_t BeginRow();

  /// Adds `value` at `col` of the current row. Requires an open row.
  Status Add(uint32_t col, double value) {
    if (!row_open_) {
      return Status::FailedPrecondition("Add() called before BeginRow()");
    }
    if (col >= cols_) {
      return Status::InvalidArgument("column index out of bounds");
    }
    // The row stays in CSR form while its columns strictly ascend and
    // its values are nonzero.
    if (value == 0.0 ||
        (col_indices_.size() > offsets_.back() && col <= col_indices_.back())) {
      row_canonical_ = false;
    }
    col_indices_.push_back(col);
    values_.push_back(value);
    return Status::Ok();
  }

  /// Adds `value` at the `len` columns first, first + stride, ...,
  /// first + (len − 1)·stride of the current row, checking the columns
  /// once. Requires an open row.
  Status AddStrided(uint32_t first, uint32_t stride, uint32_t len,
                    double value);

  /// Appends a complete row from `n` parallel entries (a row held as a
  /// slice of a larger array).
  Status AddRow(const uint32_t* cols, const double* values, size_t n);

  /// Finalizes into an immutable CSR matrix.
  Result<SparseMatrix> Build();

 private:
  void CloseRow();

  size_t cols_;
  bool row_open_ = false;
  bool row_canonical_ = true;
  std::vector<size_t> offsets_;  // one per closed row, plus the leading 0
  std::vector<uint32_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace pme::linalg

#endif  // PME_LINALG_SPARSE_MATRIX_H_
