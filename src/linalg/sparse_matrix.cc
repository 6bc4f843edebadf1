#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>

namespace pme::linalg {

Result<SparseMatrix> SparseMatrix::BuildCsr(size_t rows, size_t cols,
                                            std::vector<Triplet>& triplets) {
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      return Status::InvalidArgument("triplet index out of bounds");
    }
  }
  // Callers that append rows with ascending columns (block assembly)
  // skip the sort.
  const auto before = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  if (!std::is_sorted(triplets.begin(), triplets.end(), before)) {
    std::sort(triplets.begin(), triplets.end(), before);
  }

  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    m.row_offsets_[r] = m.values_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      uint32_t c = triplets[i].col;
      double v = 0.0;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      if (v != 0.0) {
        m.col_indices_.push_back(c);
        m.values_.push_back(v);
      }
    }
  }
  m.row_offsets_[rows] = m.values_.size();
  return m;
}

Result<SparseMatrix> SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                                std::vector<Triplet> triplets) {
  return BuildCsr(rows, cols, triplets);
}

SparseMatrix SparseMatrix::FromDense(
    const std::vector<std::vector<double>>& dense) {
  std::vector<Triplet> triplets;
  size_t cols = dense.empty() ? 0 : dense[0].size();
  for (size_t r = 0; r < dense.size(); ++r) {
    assert(dense[r].size() == cols);
    for (size_t c = 0; c < cols; ++c) {
      if (dense[r][c] != 0.0) {
        triplets.push_back({static_cast<uint32_t>(r),
                            static_cast<uint32_t>(c), dense[r][c]});
      }
    }
  }
  return std::move(FromTriplets(dense.size(), cols, std::move(triplets)))
      .value();
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 1); }
inline void PrefetchWrite(const void* p) { __builtin_prefetch(p, 1, 1); }
#else
inline void PrefetchRead(const void*) {}
inline void PrefetchWrite(const void*) {}
#endif

/// How many nonzeros ahead the gather/scatter targets are prefetched.
/// The CSR arrays themselves stream sequentially (the hardware prefetcher
/// handles them); only the indirect x[col] / y[col] accesses need help.
constexpr size_t kPrefetchDistance = 16;

/// One CSR row's dot product against x: four independent partial sums
/// expose ILP across the FMA chain, and the gathered x entries a few
/// nonzeros ahead are prefetched. Shared by MultiplyInto and the fused
/// MultiplyMinusInto so the kernels cannot drift apart.
inline double RowDot(const uint32_t* ci, const double* va, const double* xd,
                     size_t k, size_t end, size_t nnz) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    if (k + kPrefetchDistance < nnz) {
      PrefetchRead(xd + ci[k + kPrefetchDistance]);
    }
    a0 += va[k] * xd[ci[k]];
    a1 += va[k + 1] * xd[ci[k + 1]];
    a2 += va[k + 2] * xd[ci[k + 2]];
    a3 += va[k + 3] * xd[ci[k + 3]];
  }
  double acc = (a0 + a1) + (a2 + a3);
  for (; k < end; ++k) acc += va[k] * xd[ci[k]];
  return acc;
}

}  // namespace

void SparseMatrix::Multiply(const std::vector<double>& x,
                            std::vector<double>& y) const {
  assert(x.size() == cols_);
  y.resize(rows_);
  MultiplyInto(kernels::ConstSpan(x), kernels::Span(y));
}

void SparseMatrix::MultiplyInto(kernels::ConstSpan x, kernels::Span y) const {
  assert(x.size == cols_);
  assert(y.size == rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = 0; r < rows_; ++r) {
    y.data[r] = RowDot(ci, va, x.data, off[r], off[r + 1], nnz);
  }
}

void SparseMatrix::MultiplyMinusInto(kernels::ConstSpan x, kernels::ConstSpan b,
                                     kernels::Span y) const {
  assert(x.size == cols_);
  assert(b.size == rows_ && y.size == rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = 0; r < rows_; ++r) {
    y.data[r] = RowDot(ci, va, x.data, off[r], off[r + 1], nnz) - b.data[r];
  }
}

void SparseMatrix::TransposeMultiply(const std::vector<double>& x,
                                     std::vector<double>& y) const {
  assert(x.size() == rows_);
  y.resize(cols_);
  TransposeMultiplyInto(kernels::ConstSpan(x), kernels::Span(y));
}

void SparseMatrix::TransposeMultiplyInto(kernels::ConstSpan x,
                                         kernels::Span y) const {
  assert(x.size == rows_);
  assert(y.size == cols_);
  std::fill(y.data, y.data + y.size, 0.0);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  double* const yd = y.data;
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = x.data[r];
    if (xr == 0.0) continue;
    size_t k = off[r];
    const size_t end = off[r + 1];
    for (; k + 4 <= end; k += 4) {
      if (k + kPrefetchDistance < nnz) {
        PrefetchWrite(yd + ci[k + kPrefetchDistance]);
      }
      yd[ci[k]] += va[k] * xr;
      yd[ci[k + 1]] += va[k + 1] * xr;
      yd[ci[k + 2]] += va[k + 2] * xr;
      yd[ci[k + 3]] += va[k + 3] * xr;
    }
    for (; k < end; ++k) yd[ci[k]] += va[k] * xr;
  }
}

void SparseMatrix::TransposeMultiplyAccumulate(double alpha,
                                               const std::vector<double>& x,
                                               std::vector<double>& y) const {
  assert(x.size() == rows_);
  assert(y.size() == cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = alpha * x[r];
    if (xr == 0.0) continue;
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      y[col_indices_[k]] += values_[k] * xr;
    }
  }
}

double SparseMatrix::At(size_t row, size_t col) const {
  assert(row < rows_ && col < cols_);
  for (size_t k = row_offsets_[row]; k < row_offsets_[row + 1]; ++k) {
    if (col_indices_[k] == col) return values_[k];
  }
  return 0.0;
}

size_t SparseMatrixBuilder::BeginRow() {
  row_open_ = true;
  current_row_ = open_rows_;
  ++open_rows_;
  return current_row_;
}

Status SparseMatrixBuilder::Add(uint32_t col, double value) {
  if (!row_open_) {
    return Status::FailedPrecondition("Add() called before BeginRow()");
  }
  if (col >= cols_) {
    return Status::InvalidArgument("column index out of bounds");
  }
  triplets_.push_back({static_cast<uint32_t>(current_row_), col, value});
  return Status::Ok();
}

Status SparseMatrixBuilder::AddRow(const std::vector<uint32_t>& cols,
                                   const std::vector<double>& values) {
  if (cols.size() != values.size()) {
    return Status::InvalidArgument("AddRow: parallel arrays differ in size");
  }
  return AddRow(cols.data(), values.data(), cols.size());
}

Status SparseMatrixBuilder::AddRow(const uint32_t* cols, const double* values,
                                   size_t n) {
  BeginRow();
  for (size_t i = 0; i < n; ++i) {
    PME_RETURN_IF_ERROR(Add(cols[i], values[i]));
  }
  return Status::Ok();
}

Result<SparseMatrix> SparseMatrixBuilder::Build() {
  return SparseMatrix::BuildCsr(open_rows_, cols_, triplets_);
}

}  // namespace pme::linalg
