// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_DECOMPOSED_H_
#define PME_MAXENT_DECOMPOSED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "anonymize/bucketized_table.h"
#include "common/status.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "maxent/block_plan.h"
#include "maxent/problem.h"
#include "maxent/solver.h"

namespace pme::maxent {

/// The Section 5.5 optimization, taken one step further: buckets
/// *irrelevant* to the background knowledge (Definition 5.6) keep the
/// Theorem-5 closed form (Lemma 2), and the *relevant* set is split into
/// independent connected components (maxent::BlockPlan) — the constraint
/// matrix is block-diagonal across components, so each block is solved
/// as its own, much smaller dual problem. Blocks run in parallel when
/// `options.threads > 1` or on `options.pool`; the result is identical
/// for any thread count (per-block solves are deterministic and land in
/// disjoint variable ranges).
///
/// Equivalent to `Solve` on the full system (Proposition 1; the dual
/// separates because components share no variables), but on
/// Figure-7-style workloads where knowledge touches a small fraction of
/// buckets this is the difference between one O(n) dual and many O(n_k)
/// duals — seconds vs minutes.
///
/// This overload plans `system` itself (BlockPlan::Build over `table`:
/// its invariant rows are left to the table, and a system whose
/// invariant-row count differs from the table's is kInvalidArgument),
/// solves over a freshly derived closed form, and returns the full joint
/// in `p`.
///
/// Failure semantics: each block is solved once (Solve) under a
/// wall-time budget proportional to its variable count (a slice of
/// `options.deadline`). A block whose solve is not acceptable
/// (IsAcceptable) keeps the better of two answers: its final iterate,
/// when that is finite and violates the block problem less than the
/// closed-form no-knowledge prior does, or else that prior. A block with
/// no solve result (a thrown task, a presolve error) keeps the prior.
/// Both are reported in `component_outcomes` (with the block error's
/// message) and `components_{solved,degraded,failed}`; the call still
/// returns Ok with `degraded = true`, so one bad component never sinks
/// the whole analysis. `termination` is kCancelled when the token fired,
/// kDeadlineExceeded when the request deadline is spent. The one error
/// the call returns is kInfeasible for a knowledge row with no support
/// and a nonzero bound — a property of the request, not of a block.
Result<SolverResult> SolveDecomposed(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system,
    const SolverOptions& options = {});

/// The request path: solves the blocks of `plan` (its cache already
/// consulted) over `prior` — the table's Theorem-5 closed form, with
/// pme::Entropy `prior_entropy`. Every block, the one block of a whole-
/// table plan included, is assembled (AssembleBlock) and answered from
/// the cache, or solved from BlockStart as its plan entry says. The
/// result is an overlay: `p` stays empty, `blocks` holds each block's
/// (cols, p) slice and `prior` shares the prior; entropy is derived per
/// block, and a solved block's max violation is its solve's. Work scales
/// with the coupled blocks, not with the table. `plan` and the rows it
/// points to must outlive the call.
Result<SolverResult> SolveDecomposed(
    const BlockPlan& plan, std::shared_ptr<const std::vector<double>> prior,
    double prior_entropy, const SolverOptions& options);

/// The MaxEntProblem of `block`: its buckets' invariant rows, written
/// from their counts through constraints::ForEachInvariantRow (a QI row
/// is h consecutive columns, an SA row g columns at stride h), then its
/// request rows as AppendRows writes them, in the stacked layout. The same
/// rows, columns and order as the block's slice of the whole system's
/// matrix form.
Result<MaxEntProblem> AssembleBlock(const BlockPlan& plan,
                                    const PlanBlock& block);

/// The dual a solve of `block` starts from, aligned with the block
/// problem's rows: the closed form's dual (ClosedFormDual over `prior`),
/// at which every invariant row of the block already holds, or, on a
/// cache warm hit, the plan's warm_start — the cached invariant
/// multipliers, and the request rows' where they match.
std::vector<double> BlockStart(const BlockPlan& plan, const PlanBlock& block,
                               const std::vector<double>& prior);

/// The full joint of `result`: `p` itself, or the prior with the block
/// slices written over it. For reports, exports and tests — the request
/// path reads the overlay through JointView instead.
std::vector<double> MaterializeJoint(const SolverResult& result);

/// Random access to the joint of an overlay result planned by `plan`,
/// without materializing it. Caches the last bucket looked up, so reads
/// grouped by bucket (bucket-major variable order) cost one O(1) lookup
/// per bucket. Not thread-safe: one view per thread.
class JointView {
 public:
  JointView(const BlockPlan& plan, const SolverResult& result)
      : plan_(plan), result_(result) {}

  double operator[](uint32_t var) const {
    const uint32_t bucket = plan_.index().TermOf(var).bucket;
    if (bucket != bucket_) Seek(bucket);
    return data_[var - first_];
  }

 private:
  void Seek(uint32_t bucket) const;

  const BlockPlan& plan_;
  const SolverResult& result_;
  mutable uint32_t bucket_ = UINT32_MAX;
  mutable const double* data_ = nullptr;  // the bucket's first variable
  mutable uint32_t first_ = 0;            // its variable id
};

/// Statistics of the decomposition (for the ablation bench).
struct DecompositionStats {
  size_t relevant_buckets = 0;    ///< buckets inside coupled components
  size_t irrelevant_buckets = 0;  ///< closed-form buckets
  size_t relevant_variables = 0;
  size_t total_variables = 0;
  /// Component census: total blocks, knowledge-coupled blocks, and the
  /// variable count of every coupled block (for size histograms).
  size_t num_components = 0;
  size_t num_coupled_components = 0;
  std::vector<size_t> coupled_component_variables;
  /// Per-coupled-block solve effort of the *last* decomposed solve, in
  /// block-id order (dual iterations and wall seconds; 0 / ~0 for exact
  /// cache hits). Filled by the pipeline from
  /// SolverResult::component_outcomes — AnalyzeDecomposition alone leaves
  /// them empty (it never solves).
  std::vector<size_t> coupled_component_iterations;
  std::vector<double> coupled_component_seconds;
};

/// The census of a plan, by arithmetic over its blocks.
DecompositionStats AnalyzeDecomposition(const BlockPlan& plan);

/// The census of `system` over `table` (plans it first, as
/// BlockPlan::Build does).
Result<DecompositionStats> AnalyzeDecomposition(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system);

}  // namespace pme::maxent

#endif  // PME_MAXENT_DECOMPOSED_H_
