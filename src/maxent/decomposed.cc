#include "maxent/decomposed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "common/vec_math.h"
#include "maxent/closed_form.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"

namespace pme::maxent {

using constraints::LinearConstraint;
using constraints::Relation;

namespace {

/// Process-wide solve.* metrics, mirroring the per-run SolverResult
/// census so the `stats` verb can report fallback-ladder outcomes
/// without threading result structs through the serve layer.
struct SolveMetrics {
  metrics::Counter* runs;
  metrics::Counter* monolithic_fallbacks;
  metrics::Counter* components_solved;
  metrics::Counter* components_degraded;
  metrics::Counter* components_failed;
  metrics::Histogram* block_seconds;
  metrics::Histogram* block_iterations;
};

SolveMetrics& GetSolveMetrics() {
  static SolveMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    SolveMetrics r;
    r.runs = &registry.GetCounter("solve.runs");
    r.monolithic_fallbacks =
        &registry.GetCounter("solve.monolithic_fallbacks");
    r.components_solved = &registry.GetCounter("solve.components_solved");
    r.components_degraded =
        &registry.GetCounter("solve.components_degraded");
    r.components_failed = &registry.GetCounter("solve.components_failed");
    r.block_seconds = &registry.GetHistogram("solve.block_seconds");
    // Iteration counts: buckets [0,1), [1,2), [2,4) ... cover the
    // fixed-point loop's realistic range up to ~2^30.
    metrics::HistogramOptions iter_options;
    iter_options.lowest = 1.0;
    iter_options.growth = 2.0;
    iter_options.num_buckets = 31;
    r.block_iterations =
        &registry.GetHistogram("solve.block_iterations", iter_options);
    return r;
  }();
  return m;
}

/// Appends `rows` to a block matrix in the block's local columns, in the
/// matrix form ConstraintSystem::ToMatrices gives them (kGe rows negated
/// into kLe form). Entries are appended with ascending columns, so the
/// builder keeps them in place; zero coefficients are left out, as the
/// CSR build drops them anyway.
Status AppendRows(const BlockPlan& plan,
                  const std::vector<const LinearConstraint*>& rows,
                  linalg::SparseMatrixBuilder* matrix,
                  std::vector<double>* rhs) {
  std::vector<std::pair<uint32_t, double>> entries;
  uint32_t bucket = UINT32_MAX;
  uint32_t block = 0;
  uint32_t col = 0;
  uint32_t first = 0;
  for (const LinearConstraint* c : rows) {
    const double sign = c->rel == Relation::kGe ? -1.0 : 1.0;
    entries.clear();
    for (size_t i = 0; i < c->vars.size(); ++i) {
      if (c->coefs[i] == 0.0) continue;
      const uint32_t var = c->vars[i];
      const uint32_t b = plan.index().TermOf(var).bucket;
      if (b != bucket) {
        bucket = b;
        plan.LocateBucket(b, &block, &col);
        first = plan.index().BucketRange(b).first;
      }
      entries.emplace_back(col + (var - first), sign * c->coefs[i]);
    }
    const auto by_col = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    if (!std::is_sorted(entries.begin(), entries.end(), by_col)) {
      std::stable_sort(entries.begin(), entries.end(), by_col);
    }
    matrix->BeginRow();
    for (const auto& [local, value] : entries) {
      PME_RETURN_IF_ERROR(matrix->Add(local, value));
    }
    rhs->push_back(sign * c->rhs);
  }
  return Status::Ok();
}

/// The MaxEntProblem of one block, built from its own rows: the same
/// rows and columns, in the same order, as the block's slice of the
/// whole system's matrix form.
Result<MaxEntProblem> AssembleBlock(const BlockPlan& plan,
                                    const PlanBlock& block) {
  MaxEntProblem sub;
  sub.num_vars = block.cols.size();
  linalg::SparseMatrixBuilder eq(sub.num_vars);
  linalg::SparseMatrixBuilder ineq(sub.num_vars);
  PME_RETURN_IF_ERROR(AppendRows(plan, block.eq_rows, &eq, &sub.eq_rhs));
  PME_RETURN_IF_ERROR(
      AppendRows(plan, block.ineq_rows, &ineq, &sub.ineq_rhs));
  PME_ASSIGN_OR_RETURN(sub.eq, eq.Build());
  PME_ASSIGN_OR_RETURN(sub.ineq, ineq.Build());
  return sub;
}

double RowViolation(const LinearConstraint& c, const JointView& joint) {
  double lhs = 0.0;
  for (size_t i = 0; i < c.vars.size(); ++i) {
    lhs += c.coefs[i] * joint[c.vars[i]];
  }
  return c.ViolationAt(lhs);
}

}  // namespace

void JointView::Seek(uint32_t bucket) const {
  bucket_ = bucket;
  first_ = plan_.index().BucketRange(bucket).first;
  uint32_t block = 0;
  uint32_t col = 0;
  data_ = plan_.LocateBucket(bucket, &block, &col)
              ? result_.blocks[block].p.data() + col
              : result_.prior->data() + first_;
}

std::vector<double> MaterializeJoint(const SolverResult& result) {
  if (result.prior == nullptr) return result.p;
  std::vector<double> p = *result.prior;
  for (const SolverResult::BlockSlice& slice : result.blocks) {
    for (size_t j = 0; j < slice.cols.size(); ++j) {
      p[slice.cols[j]] = slice.p[j];
    }
  }
  return p;
}

DecompositionStats AnalyzeDecomposition(const BlockPlan& plan) {
  DecompositionStats stats;
  stats.total_variables = plan.index().num_variables();
  stats.num_components = plan.num_components();
  stats.num_coupled_components = plan.blocks().size();
  for (const PlanBlock& block : plan.blocks()) {
    size_t variables = 0;
    for (const uint32_t b : block.buckets) {
      const auto [first, last] = plan.index().BucketRange(b);
      variables += last - first;
    }
    stats.relevant_buckets += block.buckets.size();
    stats.relevant_variables += variables;
    stats.coupled_component_variables.push_back(variables);
  }
  stats.irrelevant_buckets = plan.num_buckets() - stats.relevant_buckets;
  return stats;
}

DecompositionStats AnalyzeDecomposition(
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system) {
  return AnalyzeDecomposition(BlockPlan::Build(
      index, system, std::numeric_limits<double>::infinity()));
}

Result<SolverResult> SolveMonolithic(
    const constraints::ConstraintSystem& system, SolverKind kind,
    const SolverOptions& options) {
  trace::TraceSpan solve_span("solve_decomposed", "solve");
  GetSolveMetrics().runs->Add();
  PME_ASSIGN_OR_RETURN(MaxEntProblem whole, BuildProblem(system));
  SolverResult mono;
  if (options.fallback) {
    PME_ASSIGN_OR_RETURN(mono, SolveWithFallback(whole, kind, options));
  } else {
    PME_ASSIGN_OR_RETURN(mono, Solve(whole, kind, options));
  }
  mono.used_monolithic_fallback = true;
  GetSolveMetrics().monolithic_fallbacks->Add();
  solve_span.AddArg("monolithic", 1.0);
  return mono;
}

Result<SolverResult> SolveDecomposed(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system, SolverKind kind,
    const SolverOptions& options) {
  Timer timer;
  BlockPlan plan;
  {
    trace::TraceSpan plan_span("plan", "solve");
    plan = BlockPlan::Build(index, system,
                            options.monolithic_fallback_fraction);
    plan.ConsultCache(options);
  }
  if (plan.monolithic()) return SolveMonolithic(system, kind, options);
  auto prior = std::make_shared<const std::vector<double>>(
      ClosedFormNoKnowledge(table, index));
  const double prior_entropy = Entropy(*prior);
  PME_ASSIGN_OR_RETURN(
      SolverResult result,
      SolveDecomposed(plan, std::move(prior), prior_entropy, kind, options));
  result.p = MaterializeJoint(result);
  result.blocks.clear();
  result.prior.reset();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<SolverResult> SolveDecomposed(
    const BlockPlan& plan, std::shared_ptr<const std::vector<double>> prior,
    double prior_entropy, SolverKind kind, const SolverOptions& options) {
  Timer timer;
  trace::TraceSpan solve_span("solve_decomposed", "solve");
  GetSolveMetrics().runs->Add();
  SolverResult result;
  result.kind = kind;
  result.converged = true;
  result.prior = std::move(prior);
  const std::vector<PlanBlock>& blocks = plan.blocks();

  // Worst violation of `rows` at the result's joint (every block slice
  // in place).
  const auto max_violation = [&](const std::vector<const LinearConstraint*>&
                                     rows) {
    const JointView joint(plan, result);
    double worst = 0.0;
    for (const LinearConstraint* c : rows) {
      worst = std::max(worst, RowViolation(*c, joint));
    }
    return worst;
  };

  if (blocks.empty()) {
    result.entropy = prior_entropy;
    result.max_violation = max_violation(plan.unsupported_rows());
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  // A row with no support is vacuously satisfied or flatly infeasible.
  for (const LinearConstraint* c : plan.unsupported_rows()) {
    const double rhs = c->rel == Relation::kGe ? -c->rhs : c->rhs;
    if (c->rel == Relation::kEq ? std::fabs(rhs) > 1e-12 : rhs < -1e-12) {
      return Status::Infeasible("constraint '" + c->label +
                                "' has empty support and nonzero bound");
    }
  }
  result.cache_enabled = plan.cache_enabled();
  result.cache_exact_hits = plan.cache_exact_hits();
  result.cache_warm_hits = plan.cache_warm_hits();
  result.cache_misses = plan.cache_misses();

  // Per-component wall-time budgets: each coupled block gets a share of
  // the remaining deadline proportional to its variable count. Blocks
  // running in parallel each consume their own share of wall time; in a
  // serial run the shares are relative to each block's own start, with
  // the request deadline as the hard cap either way.
  size_t total_block_vars = 0;
  for (const PlanBlock& block : blocks) {
    // Blocks answered from the cache consume no solve time; the deadline
    // budget is shared among the blocks that actually run.
    if (block.cached == nullptr) total_block_vars += block.cols.size();
  }
  const double remaining_at_start = options.deadline.RemainingSeconds();
  std::vector<double> budget_seconds(blocks.size(), 0.0);
  for (size_t i = 0; i < blocks.size(); ++i) {
    budget_seconds[i] = remaining_at_start *
                        static_cast<double>(blocks[i].cols.size()) /
                        static_cast<double>(std::max<size_t>(total_block_vars,
                                                             1));
  }

  // Solve every block independently — in parallel when asked to. Each
  // task only writes its own slot, and the aggregation below runs after
  // the barrier in block order, so the result is deterministic for any
  // thread count.
  std::vector<std::optional<Result<SolverResult>>> block_results(
      blocks.size());
  std::vector<size_t> block_attempts(blocks.size(), 0);
  std::vector<double> block_seconds(blocks.size(), 0.0);
  const size_t threads = ThreadPool::ResolveThreads(options.threads);
  // Pool workers carry no ambient trace id of their own; capturing the
  // requester's id here and re-installing it inside the task stitches
  // worker-thread block spans into the request's timeline.
  const uint64_t request_trace_id = trace::CurrentTraceId();
  const std::function<void(size_t)> block_task = [&](size_t i) {
        if (blocks[i].cached != nullptr) return;  // answered from the cache
        trace::TraceIdScope trace_scope(request_trace_id);
        trace::TraceSpan block_span("solve_block", "solve");
        block_span.AddArg("block", static_cast<double>(i));
        Timer block_timer;
        const PlanBlock& block = blocks[i];
        block_span.AddArg("vars", static_cast<double>(block.cols.size()));
        SolverOptions block_options = options;
        if (!block.warm_start.empty()) {
          block_options.warm_start_original = &block.warm_start;
        }
        if (!options.deadline.is_infinite()) {
          block_options.deadline = Deadline::Earlier(
              options.deadline, Deadline::AfterSeconds(budget_seconds[i]));
        }
        // Failpoint `block_deadline@N`: the Nth block solved starts with
        // an already-spent budget — the deterministic stand-in for "this
        // component's share of the deadline ran out".
        if (PME_FAILPOINT("block_deadline")) {
          block_options.deadline = Deadline::AfterSeconds(0.0);
        }
        // Failpoint `pool_task_throw@N`: the Nth block task throws,
        // exercising the pool's exception containment end to end (the
        // slot stays unset and the component degrades below).
        if (PME_FAILPOINT("pool_task_throw")) {
          throw std::runtime_error("injected pool_task_throw failpoint");
        }
        auto solve_block = [&]() -> Result<SolverResult> {
          MaxEntProblem sub;
          {
            trace::TraceSpan assemble_span("assemble", "solve");
            PME_ASSIGN_OR_RETURN(sub, AssembleBlock(plan, block));
          }
          if (options.fallback) {
            return SolveWithFallback(sub, kind, block_options,
                                     &block_attempts[i]);
          }
          block_attempts[i] = 1;
          return Solve(sub, kind, block_options);
        };
        block_results[i] = solve_block();
        block_seconds[i] = block_timer.ElapsedSeconds();
      };
  // A shared pool (the serving path) hosts the tasks as one batch —
  // only this solve's blocks are awaited; otherwise a private pool of
  // `threads` workers is spun for this call (serial inline when 1).
  const Status pool_status =
      options.pool != nullptr
          ? options.pool->RunBatch(blocks.size(), block_task)
          : ThreadPool::ParallelFor(threads, blocks.size(), block_task);

  // Aggregate, in block order. Each block keeps the cached solution, its
  // solve's answer, its best finite iterate, or — with the fallback
  // ladder on, when every rung failed — the closed-form prior, flagged:
  // one bad component must degrade its own answer, never the whole
  // analysis. With fallback off, the historical fail-fast contract
  // stands: the first component error propagates.
  result.blocks.resize(blocks.size());
  result.component_outcomes.reserve(blocks.size());
  std::vector<double> block_violation(blocks.size(), 0.0);
  std::vector<double> prior_slice;
  double entropy = prior_entropy;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const PlanBlock& block = blocks[i];
    SolverResult::BlockSlice& slice = result.blocks[i];
    slice.cols = block.cols;
    ComponentOutcome outcome;
    outcome.block = static_cast<uint32_t>(i);
    outcome.num_variables = block.cols.size();
    outcome.attempts = block_attempts[i];
    outcome.solver = kind;
    outcome.seconds = block_seconds[i];

    prior_slice.resize(block.cols.size());
    for (size_t j = 0; j < block.cols.size(); ++j) {
      prior_slice[j] = (*result.prior)[block.cols[j]];
    }

    if (block.cached != nullptr) {
      // No solve ran, so this block contributes zero iterations (the
      // bench's speedup measurement) while its dual value and convergence
      // flag still count toward the aggregate exactly as the original
      // solve's did.
      const CachedComponentSolution& cached = *block.cached;
      slice.p = cached.p;
      block_violation[i] = cached.max_violation;
      result.dual_value += cached.dual_value;
      result.presolve_fixed += cached.presolve_fixed;
      result.converged = result.converged && cached.converged;
      outcome.cache = CacheOutcome::kExactHit;
      ++result.components_solved;
    } else {
      if (!block.warm_start.empty()) outcome.cache = CacheOutcome::kWarmStart;
      Status block_error = Status::Ok();
      const SolverResult* sub = nullptr;
      if (!block_results[i].has_value()) {
        // The task never stored a result: it threw (and was contained by
        // the pool). pool_status carries the first exception message.
        block_error = pool_status.ok()
                          ? Status::Internal("block task produced no result")
                          : pool_status;
      } else if (!block_results[i]->ok()) {
        block_error = block_results[i]->status();
      } else {
        sub = &block_results[i]->value();
      }
      if (!options.fallback && !block_error.ok()) return block_error;
      if (sub != nullptr) {
        outcome.iterations = sub->iterations;
        outcome.solver = sub->kind;
        result.iterations += sub->iterations;
      }
      const bool accepted =
          sub != nullptr && (!options.fallback || IsAcceptable(*sub, options));
      // Unacceptable but finite, with real progress made: a hard-to-
      // converge or interrupted block keeps its best-so-far iterate
      // rather than throwing the work away. A block that never got to
      // iterate (budget spent up front) falls through to the prior: its
      // untouched start point is worse than the closed form.
      const bool kept_iterate =
          !accepted && sub != nullptr && sub->iterations > 0 &&
          sub->termination != StatusCode::kNumericalError &&
          std::isfinite(sub->max_violation);
      slice.p = accepted || kept_iterate ? sub->p : prior_slice;
      if (accepted) {
        result.dual_value += sub->dual_value;
        result.presolve_fixed += sub->presolve_fixed;
        result.converged = result.converged && sub->converged;
        if (result.termination == StatusCode::kOk) {
          result.termination = sub->termination;
        }
        outcome.status = sub->termination;
        outcome.degraded = sub->degraded;
        ++(sub->degraded ? result.components_degraded
                         : result.components_solved);
      } else {
        outcome.degraded = true;
        outcome.used_prior = !kept_iterate;
        result.converged = false;
        if (sub != nullptr) {
          outcome.status = sub->termination == StatusCode::kOk
                               ? StatusCode::kNotConverged
                               : sub->termination;
          ++result.components_degraded;
        } else {
          outcome.status = block_error.code();
          ++result.components_failed;
        }
      }
    }
    result.component_outcomes.push_back(outcome);
    // -Σ p ln p, starting from the prior's entropy and swapping in the
    // block's contribution (blocks never overlap).
    entropy += kernels::NegXLogXSum(kernels::ConstSpan(slice.p)) -
               kernels::NegXLogXSum(kernels::ConstSpan(prior_slice));
  }
  if (!options.fallback && !pool_status.ok()) return pool_status;

  // Per-block violations; an exact hit's rows are those it was solved
  // with, so the cached value stands.
  result.max_violation = max_violation(plan.unsupported_rows());
  for (size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i].cached == nullptr) {
      block_violation[i] = std::max(max_violation(blocks[i].eq_rows),
                                    max_violation(blocks[i].ineq_rows));
    }
    result.max_violation = std::max(result.max_violation, block_violation[i]);
  }

  {
    SolveMetrics& sm = GetSolveMetrics();
    sm.components_solved->Add(result.components_solved);
    sm.components_degraded->Add(result.components_degraded);
    sm.components_failed->Add(result.components_failed);
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i].cached != nullptr) continue;  // no solve ran
      sm.block_seconds->Observe(block_seconds[i]);
      sm.block_iterations->Observe(
          static_cast<double>(result.component_outcomes[i].iterations));
    }
    solve_span.AddArg("blocks", static_cast<double>(blocks.size()));
  }

  // Publish freshly solved, acceptable block solutions — serially and in
  // block-id order, so insertions (and therefore evictions and the whole
  // cache census) are identical for any --threads value.
  if (result.cache_enabled) {
    SolutionCache* const cache = options.solution_cache;
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i].cached != nullptr) continue;
      if (!block_results[i].has_value() || !block_results[i]->ok()) continue;
      const SolverResult& sub = block_results[i]->value();
      if (!IsAcceptable(sub, options)) continue;
      CachedComponentSolution entry;
      entry.p = sub.p;
      entry.lambda_full = sub.dual_lambda_full;
      entry.eq_row_sigs = blocks[i].eq_row_sigs;
      entry.ineq_row_sigs = blocks[i].ineq_row_sigs;
      entry.dual_value = sub.dual_value;
      entry.max_violation = block_violation[i];
      entry.iterations = sub.iterations;
      entry.presolve_fixed = sub.presolve_fixed;
      entry.converged = sub.converged;
      cache->Insert(blocks[i].exact_key, blocks[i].vars_key, std::move(entry));
    }
    const SolutionCacheStats stats = cache->Stats();
    result.cache_entries = stats.entries;
    result.cache_evictions = stats.evictions;
    result.cache_resident_doubles = stats.resident_doubles;
  }

  result.degraded =
      result.components_degraded > 0 || result.components_failed > 0;
  // A cooperative cancel outranks per-component bookkeeping: the caller
  // asked the whole request to stop, and the aggregate says so (while
  // still carrying the partial answer). A spent request deadline
  // likewise marks the aggregate, so callers can tell "finished with
  // degraded parts" from "ran out of time".
  if (options.cancel.cancelled()) {
    result.termination = StatusCode::kCancelled;
  } else if (options.fallback && options.deadline.Expired()) {
    result.termination = StatusCode::kDeadlineExceeded;
  }

  result.entropy = entropy;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace pme::maxent
