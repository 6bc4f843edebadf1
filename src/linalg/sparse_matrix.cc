#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pme::linalg {

namespace {

/// Puts one row of `n` parallel (column, value) entries in CSR form in
/// place: columns ascending, duplicate columns summed in arrival order,
/// zero sums dropped. Returns the row's new length.
size_t SortAndSumRow(uint32_t* cols, double* values, size_t n) {
  std::vector<std::pair<uint32_t, double>> entries(n);
  for (size_t i = 0; i < n; ++i) entries[i] = {cols[i], values[i]};
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  size_t w = 0;
  for (size_t i = 0; i < n;) {
    const uint32_t c = entries[i].first;
    double v = 0.0;
    for (; i < n && entries[i].first == c; ++i) v += entries[i].second;
    if (v != 0.0) {
      cols[w] = c;
      values[w] = v;
      ++w;
    }
  }
  return w;
}

}  // namespace

Result<SparseMatrix> SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                                std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    if (t.row >= rows || t.col >= cols) {
      return Status::InvalidArgument("triplet index out of bounds");
    }
  }
  std::stable_sort(triplets.begin(), triplets.end(),
                   [](const Triplet& x, const Triplet& y) {
                     return x.row < y.row;
                   });
  SparseMatrixBuilder builder(cols);
  builder.Reserve(rows, triplets.size());
  size_t i = 0;
  for (size_t r = 0; r < rows; ++r) {
    builder.BeginRow();
    for (; i < triplets.size() && triplets[i].row == r; ++i) {
      PME_RETURN_IF_ERROR(builder.Add(triplets[i].col, triplets[i].value));
    }
  }
  return builder.Build();
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
#else
inline void PrefetchRead(const void*) {}
#endif

/// How many nonzeros ahead the gathered x[col] entries are prefetched.
/// The CSR arrays themselves stream sequentially (the hardware prefetcher
/// handles them); only the indirect accesses need help.
constexpr size_t kPrefetchDistance = 16;

/// One CSR row's dot product against x: four independent partial sums
/// expose ILP across the FMA chain, and the gathered x entries a few
/// nonzeros ahead are prefetched.
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

void SparseMatrix::MultiplyMinusRows(kernels::ConstSpan x, kernels::ConstSpan b,
                                     kernels::Span y, size_t row_begin,
                                     size_t row_end) const {
  assert(x.size == cols_);
  assert(b.size == rows_ && y.size == rows_);
  assert(row_begin <= row_end && row_end <= rows_);
  const size_t* const off = row_offsets_.data();
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  const size_t nnz = values_.size();
  for (size_t r = row_begin; r < row_end; ++r) {
    y.data[r] = RowDot(ci, va, x.data, off[r], off[r + 1], nnz) - b.data[r];
  }
}

SparseMatrix::ColumnSlice SparseMatrix::SliceColumns(size_t col_begin,
                                                     size_t col_end) const {
  assert(col_begin <= col_end && col_end <= cols_);
  const uint32_t* const ci = col_indices_.data();
  // The first entry of row r at or after col_begin; the row meets the
  // slice when that entry lies before col_end. Only a row that starts
  // before the slice and ends inside or after it needs a search.
  const auto lower = [&](size_t r) {
    const uint32_t* const first = ci + row_offsets_[r];
    const uint32_t* const last = ci + row_offsets_[r + 1];
    if (first == last || *first >= col_begin) return first;
    if (last[-1] < col_begin) return last;
    return std::lower_bound(first, last, col_begin);
  };
  const auto meets = [&](size_t r, const uint32_t* lo) {
    return lo != ci + row_offsets_[r + 1] && *lo < col_end;
  };
  // Count the rows first and size the vectors exactly: a team member's
  // slice of a large block meets a small share of its rows.
  size_t count = 0;
  for (size_t r = 0; r < rows_; ++r) count += meets(r, lower(r)) ? 1 : 0;
  ColumnSlice slice;
  slice.col_begin = col_begin;
  slice.col_end = col_end;
  slice.rows.reserve(count);
  slice.lo.reserve(count);
  slice.hi.reserve(count);
  for (size_t r = 0; r < rows_; ++r) {
    const uint32_t* const lo = lower(r);
    if (!meets(r, lo)) continue;
    const uint32_t* const last = ci + row_offsets_[r + 1];
    const uint32_t* const hi =
        last[-1] < col_end ? last : std::lower_bound(lo, last, col_end);
    slice.rows.push_back(static_cast<uint32_t>(r));
    slice.lo.push_back(static_cast<size_t>(lo - ci));
    slice.hi.push_back(static_cast<size_t>(hi - ci));
  }
  return slice;
}

void SparseMatrix::TransposeMultiplySlice(kernels::ConstSpan x,
                                          kernels::Span y,
                                          const ColumnSlice& slice) const {
  assert(x.size == rows_);
  assert(y.size == cols_);
  std::fill(y.data + slice.col_begin, y.data + slice.col_end, 0.0);
  const uint32_t* const ci = col_indices_.data();
  const double* const va = values_.data();
  double* const yd = y.data;
  for (size_t i = 0; i < slice.rows.size(); ++i) {
    const double xr = x.data[slice.rows[i]];
    if (xr == 0.0) continue;
    size_t k = slice.lo[i];
    const size_t end = slice.hi[i];
    for (; k + 4 <= end; k += 4) {
      yd[ci[k]] += va[k] * xr;
      yd[ci[k + 1]] += va[k + 1] * xr;
      yd[ci[k + 2]] += va[k + 2] * xr;
      yd[ci[k + 3]] += va[k + 3] * xr;
    }
    for (; k < end; ++k) yd[ci[k]] += va[k] * xr;
  }
}

double SparseMatrix::At(size_t row, size_t col) const {
  assert(row < rows_ && col < cols_);
  for (size_t k = row_offsets_[row]; k < row_offsets_[row + 1]; ++k) {
    if (col_indices_[k] == col) return values_[k];
  }
  return 0.0;
}

void SparseMatrixBuilder::Reserve(size_t rows, size_t nnz) {
  offsets_.reserve(rows + 1);
  col_indices_.reserve(nnz);
  values_.reserve(nnz);
}

size_t SparseMatrixBuilder::BeginRow() {
  if (row_open_) CloseRow();
  row_open_ = true;
  row_canonical_ = true;
  return offsets_.size() - 1;
}

void SparseMatrixBuilder::CloseRow() {
  const size_t start = offsets_.back();
  if (!row_canonical_) {
    const size_t len =
        SortAndSumRow(col_indices_.data() + start, values_.data() + start,
                      col_indices_.size() - start);
    col_indices_.resize(start + len);
    values_.resize(start + len);
  }
  offsets_.push_back(col_indices_.size());
  row_open_ = false;
}

Status SparseMatrixBuilder::AddStrided(uint32_t first, uint32_t stride,
                                       uint32_t len, double value) {
  if (!row_open_) {
    return Status::FailedPrecondition("AddStrided() called before BeginRow()");
  }
  if (len == 0) return Status::Ok();
  const uint64_t last = first + uint64_t{stride} * (len - 1);
  if (last >= cols_) {
    return Status::InvalidArgument("column index out of bounds");
  }
  if (value == 0.0 || (stride == 0 && len > 1) ||
      (col_indices_.size() > offsets_.back() && first <= col_indices_.back())) {
    row_canonical_ = false;
  }
  const size_t n = col_indices_.size();
  col_indices_.resize(n + len);
  uint32_t* const cols = col_indices_.data() + n;
  for (uint32_t k = 0; k < len; ++k) cols[k] = first + k * stride;
  values_.insert(values_.end(), len, value);
  return Status::Ok();
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
  if (row_open_) CloseRow();
  SparseMatrix m;
  m.rows_ = offsets_.size() - 1;
  m.cols_ = cols_;
  m.row_offsets_ = std::move(offsets_);
  m.col_indices_ = std::move(col_indices_);
  m.values_ = std::move(values_);
  offsets_.assign(1, 0);
  col_indices_.clear();
  values_.clear();
  return m;
}

}  // namespace pme::linalg
