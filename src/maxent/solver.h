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

/// Available dual minimizers. The paper's implementation uses LBFGS
/// (Nocedal [16]), the default, chosen over iterative scaling on the
/// strength of Malouf's comparison ([18], Section 3.3). kProjected is the
/// Barzilai–Borwein projected-gradient solver — always used for
/// inequality problems, selectable for equality-only ones, and the
/// fallback ladder's restart (robust, no curvature memory to poison).
enum class SolverKind : int {
  kLbfgs = 0,
  kProjected = 5,
};

const char* SolverKindToString(SolverKind kind);

/// Inverse of SolverKindToString: "lbfgs" or "projected". Any other
/// name is kInvalidArgument ("unknown solver: <name>").
Result<SolverKind> ParseSolverKind(const std::string& name);

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

/// Tuning knobs common to all solvers.
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
  /// by every minimizer. On expiry the solve stops and returns the best
  /// iterate reached so far with termination == kDeadlineExceeded —
  /// never an empty-handed error. Infinite (never expires) by default.
  /// SolveDecomposed additionally derives per-component sub-deadlines
  /// from this budget, proportional to component size.
  Deadline deadline;
  /// Cooperative cancellation, checked together with the deadline each
  /// iteration (termination == kCancelled, best-so-far returned).
  CancellationToken cancel;
  /// Optional warm start for the dual multipliers, one per row of the
  /// problem's matrix (the stacked layout, maxent/problem.h) before
  /// presolve. Solve maps it through the presolve row map into the
  /// reduced dual space, so a warm start survives a *different* presolve
  /// than the one that produced it (the cached re-analysis case: an
  /// edited component drops/keeps different rows). Ignored when the size
  /// does not match a.rows() or any entry is non-finite (a poisoned start
  /// must not propagate a fault into the fallback restart). Used by the
  /// solution cache and by the fallback ladder's restart. Not owned; must
  /// outlive Solve.
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

/// Per-component record of the decomposed solve's fallback ladder
/// (SolveDecomposed runs every block through SolveWithFallback).
struct ComponentOutcome {
  /// Dense index of the coupled block (matches the decomposition's
  /// block numbering; uncoupled closed-form components are not listed —
  /// they are exact by Theorem 5 and cannot fail).
  uint32_t block = 0;
  /// Variables in the block.
  size_t num_variables = 0;
  /// The minimizer that produced the kept answer — for an exact cache
  /// hit, the one that produced the cached solution (meaningless when
  /// `used_prior`).
  SolverKind solver = SolverKind::kLbfgs;
  /// Terminal status of the accepted (or kept) attempt: kOk,
  /// kDeadlineExceeded, kCancelled, kNotConverged, or — for a block with
  /// no result — its error's code.
  StatusCode status = StatusCode::kOk;
  /// A block with no result: its error's message (presolve's verdict, a
  /// thrown task's text). Empty otherwise.
  std::string message;
  /// Solve attempts consumed, requested solver included.
  size_t attempts = 0;
  /// True when the answer came from below the requested solver (the
  /// projected restart or the prior).
  bool degraded = false;
  /// True when every attempt failed and the block kept the
  /// closed-form no-knowledge prior — the component's answer ignores its
  /// knowledge constraints and overstates privacy for those buckets.
  bool used_prior = false;
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
  /// Which minimizer produced this result: the requested kind, or
  /// kProjected whenever the reduced problem has inequality rows. A
  /// decomposed solve reads kProjected when every block it answered by a
  /// solve, this call's or a cached one, ended on projected gradient, the
  /// requested kind otherwise; each block's minimizer is in
  /// `component_outcomes`.
  SolverKind kind = SolverKind::kLbfgs;
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
  /// True when any part of the answer was produced below the requested
  /// solver (the projected restart or the closed-form prior).
  bool degraded = false;
  /// Decomposed-solve census over *coupled* components: answered by the
  /// requested solver / degraded to the restart or the prior / hard
  /// failure (kept prior, counted separately). All zero for a plain
  /// Solve.
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

/// Solves the MaxEnt problem with the chosen solver.
///
/// Equality-only problems use the requested `kind` directly. Problems with
/// inequality rows (Section 4.5 / Kazama–Tsujii) are solved by projected
/// gradient on the sign-constrained dual, regardless of `kind` (LBFGS has
/// no inequality variant here); `result.kind` then reads kProjected.
///
/// Returns kNotConverged (with the best iterate embedded in the message)
/// only for genuinely failed solves; hitting max_iterations with a small
/// residual still returns OK with `converged == false`.
///
/// The dual minimization runs on `team` (the calling thread alone when
/// null); the result has the same bits for any team size.
Result<SolverResult> Solve(const MaxEntProblem& problem,
                           SolverKind kind = SolverKind::kLbfgs,
                           const SolverOptions& options = {},
                           Team* team = nullptr);

/// Accepts `result` as an answer: a normal termination that either met
/// the tolerance or left a worst violation of at most 1e-6 (a solve that
/// exhausted its budget a few ulps above `tolerance` is still a
/// perfectly good posterior).
bool IsAcceptable(const SolverResult& result);

/// The per-problem degradation ladder used by SolveDecomposed, at most
/// two attempts: the requested solver, then — only when that attempt did
/// not already run projected gradient (a kProjected request, or any
/// problem whose inequality rows route it there) and options.deadline has
/// not expired — a projected-gradient restart warm-started from the first
/// attempt's dual point. Returns the first acceptable attempt's result
/// (`degraded` set when it was the restart). When neither is acceptable,
/// returns the finite attempt with the smallest violation, its
/// `termination` explaining why (recoverable failures never surface as an
/// error Status; a hard error from the first attempt does). `attempts`,
/// when non-null, receives the number of attempts made. Both attempts
/// run on `team`, as in Solve.
Result<SolverResult> SolveWithFallback(const MaxEntProblem& problem,
                                       SolverKind kind,
                                       const SolverOptions& options,
                                       size_t* attempts = nullptr,
                                       Team* team = nullptr);

}  // namespace pme::maxent

#endif  // PME_MAXENT_SOLVER_H_
