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
#include "common/team.h"
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
/// census so the `stats` verb can report block outcomes without
/// threading result structs through the serve layer.
struct SolveMetrics {
  metrics::Counter* runs;
  metrics::Counter* components_solved;
  metrics::Counter* components_degraded;
  metrics::Counter* components_failed;
  /// Blocks whose solve ended with converged == false, accepted or not.
  metrics::Counter* not_converged;
  /// Blocks whose solve started at the closed form's dual (no warm start).
  metrics::Counter* closed_form_starts;
  metrics::Histogram* block_seconds;
  metrics::Histogram* block_iterations;
};

SolveMetrics& GetSolveMetrics() {
  static SolveMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    SolveMetrics r;
    r.runs = &registry.GetCounter("solve.runs");
    r.components_solved = &registry.GetCounter("solve.components_solved");
    r.components_degraded =
        &registry.GetCounter("solve.components_degraded");
    r.components_failed = &registry.GetCounter("solve.components_failed");
    r.not_converged = &registry.GetCounter("solve.not_converged");
    r.closed_form_starts = &registry.GetCounter("solve.closed_form_starts");
    r.block_seconds = &registry.GetHistogram("solve.block_seconds");
    // Iteration counts: buckets [0,1), [1,2), [2,4) ... up to ~2^30,
    // far past the default LBFGS iteration budget.
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

}  // namespace

Result<MaxEntProblem> AssembleBlock(const BlockPlan& plan,
                                    const PlanBlock& block) {
  MaxEntProblem problem;
  problem.num_vars = block.cols.size();
  problem.num_eq = block.num_table_rows + block.num_eq;
  problem.rhs.reserve(block.num_rows());
  // Each column lies in one QI row and at most one SA row of its bucket,
  // and a request row adds at most its length: the arrays are sized once.
  size_t nnz = 2 * block.cols.size();
  for (const LinearConstraint* c : block.rows) nnz += c->vars.size();
  linalg::SparseMatrixBuilder matrix(block.cols.size());
  matrix.Reserve(block.num_rows(), nnz);
  // The invariant rows, bucket by bucket, from the buckets' counts: the
  // variables of bucket b are the local columns from `bucket_col` on.
  Status status = Status::Ok();
  uint32_t bucket_col = 0;
  for (const uint32_t b : block.buckets) {
    const auto [first, last] = plan.index().BucketRange(b);
    constraints::ForEachInvariantRow(
        plan.table(), plan.index(), b, plan.invariant_options(),
        [&](const constraints::InvariantRow& row) {
          matrix.BeginRow();
          if (status.ok()) {
            status = matrix.AddStrided(bucket_col + (row.first - first),
                                       row.stride, row.len, 1.0);
          }
          problem.rhs.push_back(row.rhs);
        });
    PME_RETURN_IF_ERROR(status);
    bucket_col += last - first;
  }
  // The request rows list their variables in ascending order, so bucket
  // by bucket: the last bucket located is usually the next one asked
  // for, and the local columns ascend with them.
  uint32_t bucket = UINT32_MAX;
  uint32_t block_id = 0;
  uint32_t col = 0;
  uint32_t first = 0;
  PME_RETURN_IF_ERROR(AppendRows(
      block.rows,
      [&](uint32_t var) {
        const uint32_t b = plan.index().TermOf(var).bucket;
        if (b != bucket) {
          bucket = b;
          plan.LocateBucket(b, &block_id, &col);
          first = plan.index().BucketRange(b).first;
        }
        return col + (var - first);
      },
      &matrix, &problem.rhs));
  PME_ASSIGN_OR_RETURN(problem.a, matrix.Build());
  return problem;
}

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

std::vector<double> BlockStart(const BlockPlan& plan, const PlanBlock& block,
                               const std::vector<double>& prior) {
  if (!block.warm_start.empty()) return block.warm_start;
  return ClosedFormDual(plan, block, prior);
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
  stats.irrelevant_buckets =
      plan.index().num_buckets() - stats.relevant_buckets;
  return stats;
}

Result<DecompositionStats> AnalyzeDecomposition(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system) {
  PME_ASSIGN_OR_RETURN(const BlockPlan plan,
                       BlockPlan::Build(table, index, system));
  return AnalyzeDecomposition(plan);
}

Result<SolverResult> SolveDecomposed(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system,
    const SolverOptions& options) {
  Timer timer;
  BlockPlan plan;
  {
    trace::TraceSpan plan_span("plan", "solve");
    PME_ASSIGN_OR_RETURN(plan, BlockPlan::Build(table, index, system));
    plan.ConsultCache(options);
  }
  auto prior = std::make_shared<const std::vector<double>>(
      ClosedFormNoKnowledge(table, index));
  const double prior_entropy = Entropy(*prior);
  PME_ASSIGN_OR_RETURN(
      SolverResult result,
      SolveDecomposed(plan, std::move(prior), prior_entropy, options));
  result.p = MaterializeJoint(result);
  result.blocks.clear();
  result.prior.reset();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

Result<SolverResult> SolveDecomposed(
    const BlockPlan& plan, std::shared_ptr<const std::vector<double>> prior,
    double prior_entropy, const SolverOptions& options) {
  Timer timer;
  trace::TraceSpan solve_span("solve_decomposed", "solve");
  GetSolveMetrics().runs->Add();
  SolverResult result;
  result.converged = true;
  result.prior = std::move(prior);
  const std::vector<PlanBlock>& blocks = plan.blocks();

  // A request row with no supported variable reads 0 whatever the joint,
  // so it is vacuously satisfied or flatly infeasible, whether or not the
  // plan has a block to solve.
  double unsupported_violation = 0.0;
  for (const LinearConstraint* c : plan.unsupported_rows()) {
    const double rhs = c->rel == Relation::kGe ? -c->rhs : c->rhs;
    if (c->rel == Relation::kEq ? std::fabs(rhs) > 1e-12 : rhs < -1e-12) {
      return Status::Infeasible("constraint '" + c->label +
                                "' has empty support and nonzero bound");
    }
    unsupported_violation = std::max(unsupported_violation,
                                     c->ViolationAt(0.0));
  }
  if (blocks.empty()) {
    result.entropy = prior_entropy;
    result.max_violation = unsupported_violation;
    result.seconds = timer.ElapsedSeconds();
    return result;
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
  std::vector<double> block_seconds(blocks.size(), 0.0);
  const size_t threads = ThreadPool::ResolveThreads(options.threads);
  // Threads per block: one each, except that with fewer blocks to solve
  // than threads the largest block gets the spare ones as a team — as
  // many as it has variable chunks to share out. A shared pool (the
  // serving path) is sized for its concurrent requests, so its blocks
  // keep one thread each.
  std::vector<size_t> team_size(blocks.size(), 1);
  if (options.pool == nullptr) {
    size_t to_solve = 0;
    size_t largest = blocks.size();
    for (size_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i].cached != nullptr) continue;
      ++to_solve;
      if (largest == blocks.size() ||
          blocks[i].cols.size() > blocks[largest].cols.size()) {
        largest = i;
      }
    }
    if (to_solve > 0 && to_solve < threads) {
      team_size[largest] = std::min(threads - to_solve + 1,
                                    NumChunks(blocks[largest].cols.size()));
    }
  }
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
          const std::vector<double> start =
              BlockStart(plan, block, *result.prior);
          if (block.warm_start.empty()) {
            GetSolveMetrics().closed_form_starts->Add();
          }
          block_options.warm_start = &start;
          Team team(team_size[i]);
          block_span.AddArg("team", static_cast<double>(team.size()));
          return Solve(sub, block_options, &team);
        };
        block_results[i] = solve_block();
        if (block_results[i]->ok()) {
          const SolverResult& solved = block_results[i]->value();
          block_span.AddArg("iterations",
                            static_cast<double>(solved.iterations));
          block_span.AddArg("evaluations",
                            static_cast<double>(solved.evaluations));
          block_span.AddArg("converged", solved.converged ? 1.0 : 0.0);
        }
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
  // acceptable solve's answer, or — flagged — the better of its
  // unacceptable solve's iterate and the closed-form prior: one bad
  // component must degrade its own answer, never the whole analysis.
  result.blocks.resize(blocks.size());
  result.component_outcomes.reserve(blocks.size());
  std::vector<double> prior_slice;
  double entropy = prior_entropy;
  size_t not_converged = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const PlanBlock& block = blocks[i];
    SolverResult::BlockSlice& slice = result.blocks[i];
    slice.cols = block.cols;
    ComponentOutcome outcome;
    outcome.block = static_cast<uint32_t>(i);
    outcome.num_variables = block.cols.size();
    outcome.seconds = block_seconds[i];

    prior_slice.resize(block.cols.size());
    for (size_t j = 0; j < block.cols.size(); ++j) {
      prior_slice[j] = (*result.prior)[block.cols[j]];
    }
    const double prior_slice_entropy =
        kernels::NegXLogXSum(kernels::ConstSpan(prior_slice));
    // -Σ p ln p of the slice the block keeps: its solve and the cache
    // computed it on those same values.
    double slice_entropy = prior_slice_entropy;

    if (block.cached != nullptr) {
      // No solve ran, so this block contributes zero iterations (the
      // bench's speedup measurement) while its dual value and convergence
      // flag still count toward the aggregate exactly as the original
      // solve's did. Its rows are those it was solved with, so the cached
      // violation stands.
      const CachedComponentSolution& cached = *block.cached;
      slice.p = cached.p;
      slice_entropy = cached.entropy;
      outcome.max_violation = cached.max_violation;
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
        outcome.iterations = sub->iterations;
        result.iterations += sub->iterations;
        if (!sub->converged) ++not_converged;
      }
      if (sub != nullptr && IsAcceptable(*sub)) {
        slice.p = sub->p;
        slice_entropy = sub->entropy;
        outcome.max_violation = sub->max_violation;
        result.dual_value += sub->dual_value;
        result.presolve_fixed += sub->presolve_fixed;
        result.converged = result.converged && sub->converged;
        if (result.termination == StatusCode::kOk) {
          result.termination = sub->termination;
        }
        outcome.status = sub->termination;
        ++result.components_solved;
      } else {
        // Keep the iterate only when it is finite and violates the
        // block problem less than the prior does: a budget spent before
        // the first step, or a poisoned line search, leaves a start point
        // that is not even a distribution.
        double iterate_violation = std::numeric_limits<double>::infinity();
        if (sub != nullptr &&
            std::all_of(sub->p.begin(), sub->p.end(),
                        [](double v) { return std::isfinite(v); })) {
          iterate_violation = sub->max_violation;
        }
        const Result<MaxEntProblem> problem = AssembleBlock(plan, block);
        const double prior_violation =
            problem.ok() ? ProblemViolation(problem.value(), prior_slice)
                         : std::numeric_limits<double>::infinity();
        outcome.used_prior = !(iterate_violation < prior_violation);
        if (!outcome.used_prior) {
          slice.p = sub->p;
          slice_entropy = sub->entropy;
        } else {
          slice.p = prior_slice;
        }
        outcome.max_violation = std::min(iterate_violation, prior_violation);
        outcome.degraded = true;
        result.converged = false;
        if (sub != nullptr) {
          outcome.status = sub->termination == StatusCode::kOk
                               ? StatusCode::kNotConverged
                               : sub->termination;
          ++result.components_degraded;
        } else {
          outcome.status = block_error.code();
          outcome.message = block_error.message();
          ++result.components_failed;
        }
      }
    }
    result.component_outcomes.push_back(outcome);
    // -Σ p ln p, starting from the prior's entropy and swapping in the
    // block's contribution (blocks never overlap).
    entropy += slice_entropy - prior_slice_entropy;
  }

  result.max_violation = unsupported_violation;
  for (const ComponentOutcome& outcome : result.component_outcomes) {
    result.max_violation =
        std::max(result.max_violation, outcome.max_violation);
  }

  {
    SolveMetrics& sm = GetSolveMetrics();
    sm.components_solved->Add(result.components_solved);
    sm.components_degraded->Add(result.components_degraded);
    sm.components_failed->Add(result.components_failed);
    sm.not_converged->Add(not_converged);
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
      if (!IsAcceptable(sub)) continue;
      CachedComponentSolution entry;
      entry.p = sub.p;
      entry.lambda_full = sub.dual_lambda_full;
      entry.row_sigs = blocks[i].row_sigs;
      entry.dual_value = sub.dual_value;
      entry.entropy = sub.entropy;
      entry.max_violation = result.component_outcomes[i].max_violation;
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
  } else if (options.deadline.Expired()) {
    result.termination = StatusCode::kDeadlineExceeded;
  }

  result.entropy = entropy;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace pme::maxent
