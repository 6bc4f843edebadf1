// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_SOLVER_H_
#define PME_MAXENT_SOLVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/hash.h"
#include "common/status.h"
#include "maxent/problem.h"

namespace pme {
class Team;        // common/team.h
class ThreadPool;  // common/thread_pool.h
}

namespace pme::maxent {

class SolutionCache;  // maxent/solution_cache.h

/// What SolveDecomposed may reuse from a SolutionCache:
///  - kOff: never consult the cache (it is not even read).
///  - kExact: scatter a cached solution when a component's constraint
///    rows are byte-identical to a previous solve; otherwise solve cold.
///  - kWarm: kExact, plus warm-start the dual of a component whose
///    variable set matches a cached entry but whose rows changed
///    (the single-statement-toggle case) from the cached multipliers.
/// Solutions are inserted under every mode except kOff.
enum class CacheMode : int {
  kOff = 0,
  kExact = 1,
  kWarm = 2,
};

const char* CacheModeToString(CacheMode mode);

/// Inverse of CacheModeToString: "off", "exact" or "warm". Any other
/// name is kInvalidArgument ("cache must be 'off', 'exact' or 'warm',
/// got '<name>'").
Result<CacheMode> ParseCacheMode(const std::string& name);

/// How a component's answer relates to the solution cache this solve.
enum class CacheOutcome : int {
  kNone = 0,       ///< cache off, or a cold solve (miss)
  kExactHit = 1,   ///< cached solution scattered, no solve ran
  kWarmStart = 2,  ///< solved, dual warm-started from a cached entry
};

/// Tuning knobs of the solve.
struct SolverOptions {
  /// Iteration budget for the dual minimization. Iterations are cheap
  /// (two sparse matrix-vector products each); hard zero-targets in the
  /// knowledge need a deep tail of iterations to push multipliers far
  /// out, so the default budget is generous — accuracy experiments must
  /// never return a silently unconverged posterior.
  size_t max_iterations = 20000;
  /// Convergence threshold on ‖∇D‖∞ — i.e. the worst constraint
  /// violation of the primal iterate.
  double tolerance = 1e-8;
  /// Run the structural presolve (zero forcing / singleton substitution)
  /// before the iterative solve. Strongly recommended: hard zeros in the
  /// constraints otherwise require unbounded multipliers.
  bool presolve = true;
  /// Worker threads for the block-decomposed solve (SolveDecomposed):
  /// independent connected components are solved concurrently, and when
  /// fewer blocks need a solve than there are threads, the largest one
  /// solves on a team of the spare threads (common/team.h). 1 = serial;
  /// 0 = hardware concurrency. Results are identical for any value — the
  /// per-block solves, their team reductions and the scatter order are
  /// deterministic.
  size_t threads = 1;
  /// Shared worker pool for the block-decomposed solve. When set,
  /// SolveDecomposed schedules its block tasks on this pool (batch
  /// semantics: only this solve's blocks are awaited) instead of
  /// spinning a private pool from `threads` — the serving path, where
  /// many concurrent requests must share one fixed set of solver
  /// threads. Not owned; must outlive the solve. `threads` is ignored
  /// for scheduling when set.
  ThreadPool* pool = nullptr;
  /// Wall-clock budget for the solve, checked once per outer iteration
  /// by the minimizer. On expiry the solve stops and returns the best
  /// iterate reached so far with termination == kDeadlineExceeded —
  /// never an empty-handed error. Infinite (never expires) by default.
  /// SolveDecomposed additionally derives per-component sub-deadlines
  /// from this budget, proportional to component size.
  Deadline deadline;
  /// Cooperative cancellation, checked together with the deadline each
  /// iteration (termination == kCancelled, best-so-far returned).
  CancellationToken cancel;
  /// Optional start for the dual multipliers, one per row of the
  /// problem's matrix (the stacked layout, maxent/problem.h) before
  /// presolve; zeros when unset. Solve maps it through the presolve row
  /// map into the reduced dual space, so a start survives a *different*
  /// presolve than the one that produced it (the cached re-analysis
  /// case: an edited component drops/keeps different rows). Ignored when
  /// the size does not match a.rows() or any entry is non-finite (a
  /// poisoned start must not propagate a fault). SolveDecomposed passes
  /// every block its BlockStart: the closed form's dual or the solution
  /// cache's warm start. Not owned; must outlive Solve.
  const std::vector<double>* warm_start = nullptr;
  /// Component-solution cache consulted by SolveDecomposed (see
  /// maxent/solution_cache.h). Not owned; null disables caching
  /// regardless of `cache_mode`. Solve alone never consults it: the
  /// cache is keyed by the blocks of a BlockPlan.
  SolutionCache* solution_cache = nullptr;
  /// What to reuse from `solution_cache` (off | exact | warm).
  CacheMode cache_mode = CacheMode::kWarm;
  /// Namespace mixed into every solution-cache key, exact and warm.
  /// Callers sharing one SolutionCache across different tables — the
  /// artifact-serving path — set this to the table artifact's content
  /// hash so two tables that happen to produce colliding block digests
  /// can never serve each other's solutions. The default (zero) keeps
  /// all single-table callers in one namespace.
  Hash128 cache_namespace{};
};

/// Per-component record of the decomposed solve (SolveDecomposed solves
/// every block once and keeps the better of its iterate and its prior
/// when the solve is not acceptable).
struct ComponentOutcome {
  /// Dense index of the coupled block (matches the decomposition's
  /// block numbering; uncoupled closed-form components are not listed —
  /// they are exact by Theorem 5 and cannot fail).
  uint32_t block = 0;
  /// Variables in the block.
  size_t num_variables = 0;
  /// Terminal status of the block's solve: kOk,
  /// kDeadlineExceeded, kCancelled, kNotConverged, or — for a block with
  /// no result — its error's code.
  StatusCode status = StatusCode::kOk;
  /// A block with no result: its error's message (presolve's verdict, a
  /// thrown task's text). Empty otherwise.
  std::string message;
  /// True when the solve was not acceptable (IsAcceptable): the block
  /// kept its best iterate or, when that is no better, its prior.
  bool degraded = false;
  /// True when the block kept the closed-form no-knowledge prior: its
  /// solve left no finite iterate that violates the block's rows less
  /// than the prior does. The component's answer then ignores its
  /// knowledge constraints and overstates privacy for those buckets.
  bool used_prior = false;
  /// Worst violation of the block's rows at the answer it kept.
  double max_violation = 0.0;
  /// Dual iterations this block's solve performed (0 for an exact cache
  /// hit — no solve ran). The warm-vs-cold iteration reduction of the
  /// incremental-reanalysis bench is measured from exactly this field.
  size_t iterations = 0;
  /// Wall-clock seconds of this block's solve (slicing + solve; for an
  /// exact hit, just the scatter bookkeeping).
  double seconds = 0.0;
  /// Cache relationship of this block's answer.
  CacheOutcome cache = CacheOutcome::kNone;
};

/// Outcome of a MaxEnt solve.
struct SolverResult {
  /// The maximum-entropy joint distribution over the *full* variable
  /// space (fixed variables restored). Empty for a decomposed solve over
  /// a shared prior, whose joint is `prior` overlaid with `blocks`
  /// (maxent::MaterializeJoint expands it).
  std::vector<double> p;
  /// One coupled block's answer: its variables (ascending ids) and their
  /// values.
  struct BlockSlice {
    std::vector<uint32_t> cols;
    std::vector<double> p;
  };
  /// Overlay results only: every coupled block's slice, in block order.
  /// Every variable outside them keeps its `prior` value.
  std::vector<BlockSlice> blocks;
  /// Overlay results only: the Theorem-5 closed form the blocks overlay.
  std::shared_ptr<const std::vector<double>> prior;
  /// Dual iterations actually performed.
  size_t iterations = 0;
  /// Dual evaluations, line-search probes and the final primal included
  /// (plain Solve only).
  size_t evaluations = 0;
  /// Final dual objective value (reduced problem).
  double dual_value = 0.0;
  /// Worst constraint violation at the returned solution.
  double max_violation = 0.0;
  /// Entropy −Σ p ln p of the returned solution (nats).
  double entropy = 0.0;
  /// Wall-clock seconds of the solve (excluding problem construction).
  double seconds = 0.0;
  /// True when the tolerance was met within the iteration budget.
  bool converged = false;
  /// Variables eliminated by presolve.
  size_t presolve_fixed = 0;
  /// Why the solve stopped: kOk for a normal finish (converged or budget
  /// exhausted with a finite iterate), kDeadlineExceeded / kCancelled
  /// when interrupted (p is the best iterate so far), kNumericalError
  /// when the returned point is non-finite.
  StatusCode termination = StatusCode::kOk;
  /// The dual multipliers, one per row of the problem's matrix before
  /// presolve (the stacked layout, maxent/problem.h; presolve-dropped
  /// rows at 0), converged or not — the payload for
  /// SolverOptions::warm_start and the form the solution cache stores. Empty for decomposed solves
  /// (block duals do not concatenate meaningfully; per-block duals live
  /// in the solution cache).
  std::vector<double> dual_lambda_full;
  /// True when some block's solve was not acceptable and the block kept
  /// its best iterate or its closed-form prior.
  bool degraded = false;
  /// Decomposed-solve census over *coupled* components: answered by an
  /// acceptable solve / kept an unacceptable solve's iterate or the prior
  /// / hard failure with no solve result (kept prior, counted
  /// separately). All zero for a plain Solve.
  size_t components_solved = 0;
  size_t components_degraded = 0;
  size_t components_failed = 0;
  /// One record per coupled component (empty for a plain Solve).
  std::vector<ComponentOutcome> component_outcomes;
  /// Solution-cache census of *this* solve (all zero when no cache was
  /// consulted): blocks answered from the cache without solving, blocks
  /// solved with a warm-started dual, and blocks solved cold.
  size_t cache_exact_hits = 0;
  size_t cache_warm_hits = 0;
  size_t cache_misses = 0;
  /// True when a SolutionCache was consulted (drives report rendering).
  bool cache_enabled = false;
  /// Cache-wide census snapshot taken after this solve's insertions.
  size_t cache_entries = 0;
  size_t cache_evictions = 0;
  size_t cache_resident_doubles = 0;
};

/// Solves the MaxEnt problem: presolve, then LBFGS on the dual (Nocedal
/// [16], chosen over iterative scaling on the strength of Malouf's
/// comparison, [18] and Section 3.3). Inequality rows (Section 4.5 /
/// Kazama–Tsujii) make the dual box-constrained, λ_j ≤ 0 for every ≤ row,
/// and the same LBFGS keeps that box.
///
/// Returns kNotConverged (with the best iterate embedded in the message)
/// only for genuinely failed solves; hitting max_iterations with a small
/// residual still returns OK with `converged == false`.
///
/// The dual minimization runs on `team` (the calling thread alone when
/// null); the result has the same bits for any team size.
Result<SolverResult> Solve(const MaxEntProblem& problem,
                           const SolverOptions& options = {},
                           Team* team = nullptr);

/// Worst violation of `problem`'s rows at `p` (one value per column): the
/// absolute residual of an equality row, the excess of a ≤ row. A
/// solve's SolverResult::max_violation is this, on the problem it was
/// given.
double ProblemViolation(const MaxEntProblem& problem,
                        const std::vector<double>& p);

/// Accepts `result` as an answer: a normal termination that either met
/// the tolerance or left a worst violation of at most 1e-6 (a solve that
/// exhausted its budget a few ulps above `tolerance` is still a
/// perfectly good posterior).
bool IsAcceptable(const SolverResult& result);

}  // namespace pme::maxent

#endif  // PME_MAXENT_SOLVER_H_
