#include "maxent/dual.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "common/vec_math.h"

namespace pme::maxent {

DualFunction::DualFunction(const linalg::SparseMatrix* a, kernels::ConstSpan b,
                           Team* team)
    : a_(a),
      b_(b),
      own_team_(team == nullptr ? std::make_unique<Team>(1) : nullptr),
      team_(team == nullptr ? own_team_.get() : team) {
  assert(a != nullptr);
  assert(a->rows() == b.size);
  const size_t size = team_->size();
  const size_t n = a->cols();
  const size_t m = a->rows();
  const size_t nnz = a->nnz();
  const std::vector<size_t>& off = a->row_offsets();
  exp_partials_.resize(NumChunks(n));
  dot_partials_.resize(NumChunks(m));

  // Nonzeros before each variable chunk; the column slices are cut at
  // the chunk boundaries nearest the nonzero quantiles.
  std::vector<size_t> before;
  if (size > 1) {
    before.assign(exp_partials_.size() + 1, 0);
    for (const uint32_t c : a->col_indices()) ++before[c / kTeamChunk + 1];
    for (size_t c = 1; c < before.size(); ++c) before[c] += before[c - 1];
  }
  col_chunks_.assign(size + 1, exp_partials_.size());
  row_cuts_.assign(size + 1, m);
  col_chunks_[0] = 0;
  row_cuts_[0] = 0;
  for (size_t t = 1; t < size; ++t) {
    const size_t target = nnz * t / size;
    col_chunks_[t] = std::max<size_t>(
        col_chunks_[t - 1],
        std::lower_bound(before.begin(), before.end(), target) -
            before.begin());
    row_cuts_[t] = std::max<size_t>(
        row_cuts_[t - 1],
        std::lower_bound(off.begin(), off.end(), target) - off.begin());
    row_cuts_[t] = std::min(row_cuts_[t], m);
  }
  slices_.reserve(size);
  for (size_t t = 0; t < size; ++t) {
    slices_.push_back(
        a->SliceColumns(std::min(col_chunks_[t] * kTeamChunk, n),
                        std::min(col_chunks_[t + 1] * kTeamChunk, n)));
  }
}

double DualFunction::Evaluate(const std::vector<double>& lambda,
                              std::vector<double>* grad,
                              std::vector<double>* p) const {
  DualWorkspace ws;
  const double value = EvaluateInto(lambda, grad, &ws);
  if (p != nullptr) *p = std::move(ws.p);
  return value;
}

double DualFunction::EvaluateInto(const std::vector<double>& lambda,
                                  std::vector<double>* grad,
                                  DualWorkspace* ws) const {
  assert(ws != nullptr);
  assert(lambda.size() == dim());
  ++evaluations_;
  const size_t n = num_vars();
  const size_t m = dim();
  // p <- Aᵀλ, then one fused exp-sum kernel pass per chunk turns the
  // exponents into the primal iterate and its total in place (single
  // buffer, no `t`); bᵀλ rides along in the same fork.
  if (ws->p.size() != n) ws->p.resize(n);
  const kernels::ConstSpan x(lambda);
  const kernels::Span p(ws->p);
  team_->Run([&](size_t t) {
    a_->TransposeMultiplySlice(x, p, slices_[t]);
    for (size_t c = col_chunks_[t]; c < col_chunks_[t + 1]; ++c) {
      const size_t begin = c * kTeamChunk;
      const size_t len = std::min(n, begin + kTeamChunk) - begin;
      exp_partials_[c] =
          kernels::ExpM1SumInPlace(kernels::Span(p.data + begin, len));
    }
    const auto [first, last] = team_->Share(t, dot_partials_.size());
    for (size_t c = first; c < last; ++c) {
      const size_t begin = c * kTeamChunk;
      const size_t len = std::min(m, begin + kTeamChunk) - begin;
      dot_partials_[c] = kernels::Dot(kernels::ConstSpan(b_.data + begin, len),
                                      kernels::ConstSpan(x.data + begin, len));
    }
  });
  const double value =
      SumInChunkOrder(exp_partials_) - SumInChunkOrder(dot_partials_);
  if (grad != nullptr) {
    if (grad->size() != m) grad->resize(m);
    // ∇D = A p − b, one fused CSR pass per member's row range.
    const kernels::Span g(*grad);
    team_->Run([&](size_t t) {
      a_->MultiplyMinusRows(p, b_, g, row_cuts_[t], row_cuts_[t + 1]);
    });
  }
  return value;
}

std::vector<double> DualFunction::Primal(
    const std::vector<double>& lambda) const {
  std::vector<double> p;
  Evaluate(lambda, nullptr, &p);
  return p;
}

}  // namespace pme::maxent
