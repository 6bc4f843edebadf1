// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_MAXENT_SOLUTION_CACHE_H_
#define PME_MAXENT_SOLUTION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "maxent/solver.h"

namespace pme::maxent {

/// One cached coupled-component solution, content-addressed by the
/// component's rows digest (BlockPlan::ConsultCache: the digest of its
/// buckets' counts, which fix its invariant rows, plus its request rows'
/// constraints::ConstraintRowSignature values). Everything needed to
/// either scatter the answer without solving (exact hit) or to
/// warm-start a changed component from its old dual (near miss):
///
///  - `p` is the posterior slice in block-local column order (the order
///    of the component's variables, ascending by full-space id).
///  - `lambda_full` are the dual multipliers, one per block row before
///    presolve (SolverResult::dual_lambda_full), presolve-dropped rows at
///    0: the block's invariant rows, then its request rows. Stored
///    pre-presolve so it can be re-mapped onto a *different* presolve of
///    an edited component.
///  - `row_sigs` are the request rows' content signatures, aligned with
///    the tail of `lambda_full`. A warm start for an edited component
///    (same buckets, so the same invariant rows) takes the invariant
///    multipliers by position, matches request rows by signature and
///    seeds unmatched (new/edited) rows with 0, which is a near-feasible
///    point when few rows changed.
///
/// Both row lists are in the block's stacked layout (maxent/problem.h).
struct CachedComponentSolution {
  std::vector<double> p;
  std::vector<double> lambda_full;
  std::vector<Hash128> row_sigs;
  double dual_value = 0.0;
  /// Worst violation of the block's rows at `p`: the rows are fixed by
  /// the exact key, so an exact hit reuses it instead of re-evaluating.
  double max_violation = 0.0;
  /// −Σ p ln p over `p`, the solve's own (SolverResult::entropy), so an
  /// exact hit skips that pass too.
  double entropy = 0.0;
  size_t iterations = 0;     ///< iterations the original solve spent
  size_t presolve_fixed = 0;
  bool converged = true;

  /// Doubles resident for budget accounting (signatures count as two).
  size_t ResidentDoubles() const {
    return p.size() + lambda_full.size() + 2 * row_sigs.size();
  }
};

/// Monotonic census of one cache instance.
struct SolutionCacheStats {
  size_t exact_hits = 0;
  size_t warm_hits = 0;  ///< vars-key hits that produced a warm payload
  size_t misses = 0;
  size_t insertions = 0;
  size_t evictions = 0;
  size_t entries = 0;           ///< currently resident entries
  size_t resident_doubles = 0;  ///< currently resident payload doubles
};

/// Sharded, LRU-evicting map from component content digests to solved
/// component solutions. Thread-safe: lookups and inserts may race from
/// concurrent analyses (the `pme serve` scenario); entries are handed
/// out as shared_ptr so eviction can never pull a solution out from
/// under a reader.
///
/// Two indexes:
///  - the exact index keys entries by the component's rows digest
///    (byte-identical subproblem → reusable solution), and
///  - the warm index maps a buckets-only digest (PlanBlock::vars_hash:
///    the variables and the invariant rows) to the most recently
///    inserted exact key for those buckets (same component, edited
///    request rows → warm-startable dual).
///
/// Eviction is LRU by resident doubles against `byte_budget`, applied
/// per shard (each shard owns an equal slice of the budget). Warm-index
/// entries whose exact entry was evicted are dropped lazily on lookup.
///
/// Determinism: the census (hits/misses/evictions) is a function of the
/// *order* of Lookup/Insert calls only. SolveDecomposed performs both in
/// component-id order regardless of its thread count, so repeated runs
/// produce identical censuses.
class SolutionCache {
 public:
  /// Default budget: 64 MiB of resident payload.
  static constexpr size_t kDefaultByteBudget = size_t{64} << 20;

  explicit SolutionCache(size_t byte_budget = kDefaultByteBudget);
  /// Gives the resident doubles back to the process-wide
  /// cache.resident_doubles gauge, as Clear does.
  ~SolutionCache();

  SolutionCache(const SolutionCache&) = delete;
  SolutionCache& operator=(const SolutionCache&) = delete;

  /// Exact lookup by rows digest. A hit refreshes the entry's LRU
  /// position. Counts one exact hit or one miss.
  std::shared_ptr<const CachedComponentSolution> FindExact(
      const Hash128& exact_key);

  /// Warm lookup by buckets-only digest: the most recent entry whose
  /// component had the same buckets. Does not count a miss
  /// (it runs after FindExact already did); counts a warm hit when an
  /// entry is returned.
  std::shared_ptr<const CachedComponentSolution> FindWarm(
      const Hash128& vars_key);

  /// Inserts (or replaces) the entry for `exact_key` and points the warm
  /// index for `vars_key` at it. Evicts LRU entries from the shard until
  /// its budget slice holds the new resident size.
  void Insert(const Hash128& exact_key, const Hash128& vars_key,
              CachedComponentSolution solution);

  /// Drops every entry and warm-index pointer (the census is kept).
  void Clear();

  /// Aggregated census across shards.
  SolutionCacheStats Stats() const;

  size_t byte_budget() const { return byte_budget_; }

 private:
  static constexpr size_t kNumShards = 16;

  struct Entry {
    std::shared_ptr<const CachedComponentSolution> solution;
    std::list<Hash128>::iterator lru_pos;  // into Shard::lru, MRU front
  };

  struct Shard {
    std::mutex mutex;
    std::unordered_map<Hash128, Entry, Hash128Hasher> entries;
    std::list<Hash128> lru;  // front = most recently used
    size_t resident_doubles = 0;
    // Census slices (aggregated by Stats()).
    size_t exact_hits = 0;
    size_t warm_hits = 0;
    size_t misses = 0;
    size_t insertions = 0;
    size_t evictions = 0;
    // vars digest -> exact key of the latest entry with that structure.
    std::unordered_map<Hash128, Hash128, Hash128Hasher> warm_index;
  };

  Shard& ShardOf(const Hash128& key) {
    return shards_[key.hi % kNumShards];
  }

  /// Evicts LRU entries until the shard is within `budget_doubles`.
  /// Caller holds the shard mutex.
  void EvictLocked(Shard& shard, size_t budget_doubles);

  size_t byte_budget_;
  size_t shard_budget_doubles_;
  Shard shards_[kNumShards];
};

}  // namespace pme::maxent

#endif  // PME_MAXENT_SOLUTION_CACHE_H_
