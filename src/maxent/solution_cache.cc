#include "maxent/solution_cache.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"

namespace pme::maxent {
namespace {

/// Process-wide cache.* metrics. The per-shard census fields stay the
/// per-instance source of truth for Stats(); the registry counters are
/// the cross-cutting view the `stats` serve verb and --metrics-out dump.
struct CacheMetrics {
  metrics::Counter* exact_hits;
  metrics::Counter* warm_hits;
  metrics::Counter* misses;
  metrics::Counter* insertions;
  metrics::Counter* evictions;
  metrics::Gauge* resident_doubles;
};

CacheMetrics& GetCacheMetrics() {
  static CacheMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    CacheMetrics r;
    r.exact_hits = &registry.GetCounter("cache.exact_hits");
    r.warm_hits = &registry.GetCounter("cache.warm_hits");
    r.misses = &registry.GetCounter("cache.misses");
    r.insertions = &registry.GetCounter("cache.insertions");
    r.evictions = &registry.GetCounter("cache.evictions");
    r.resident_doubles = &registry.GetGauge("cache.resident_doubles");
    return r;
  }();
  return m;
}

}  // namespace

SolutionCache::SolutionCache(size_t byte_budget)
    : byte_budget_(byte_budget),
      // Each shard owns an equal slice of the budget, floored at one
      // double so a tiny budget still admits (and immediately bounds)
      // entries instead of dividing to zero.
      shard_budget_doubles_(
          std::max<size_t>(byte_budget / sizeof(double) / kNumShards, 1)) {}

std::shared_ptr<const CachedComponentSolution> SolutionCache::FindExact(
    const Hash128& exact_key) {
  Shard& shard = ShardOf(exact_key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.entries.find(exact_key);
  if (it == shard.entries.end()) {
    ++shard.misses;
    GetCacheMetrics().misses->Add();
    return nullptr;
  }
  // Refresh the LRU position: a hit entry is the last to be evicted.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  ++shard.exact_hits;
  GetCacheMetrics().exact_hits->Add();
  return it->second.solution;
}

std::shared_ptr<const CachedComponentSolution> SolutionCache::FindWarm(
    const Hash128& vars_key) {
  Hash128 exact_key;
  {
    Shard& shard = ShardOf(vars_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.warm_index.find(vars_key);
    if (it == shard.warm_index.end()) return nullptr;
    exact_key = it->second;
  }
  // The entry lives in the exact key's shard; it may have been evicted
  // since the warm pointer was written — drop the stale pointer then.
  std::shared_ptr<const CachedComponentSolution> found;
  {
    Shard& shard = ShardOf(exact_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(exact_key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      ++shard.warm_hits;
      GetCacheMetrics().warm_hits->Add();
      found = it->second.solution;
    }
  }
  if (found == nullptr) {
    Shard& shard = ShardOf(vars_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.warm_index.find(vars_key);
    if (it != shard.warm_index.end() && it->second == exact_key) {
      shard.warm_index.erase(it);
    }
  }
  return found;
}

void SolutionCache::Insert(const Hash128& exact_key, const Hash128& vars_key,
                           CachedComponentSolution solution) {
  auto shared =
      std::make_shared<const CachedComponentSolution>(std::move(solution));
  const size_t doubles = shared->ResidentDoubles();
  {
    Shard& shard = ShardOf(exact_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(exact_key);
    if (it != shard.entries.end()) {
      // Replace in place (same key, refreshed content — e.g. a tighter
      // re-solve of the same component).
      const size_t replaced = it->second.solution->ResidentDoubles();
      shard.resident_doubles -= replaced;
      shard.resident_doubles += doubles;
      GetCacheMetrics().resident_doubles->Add(
          static_cast<int64_t>(doubles) - static_cast<int64_t>(replaced));
      it->second.solution = std::move(shared);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    } else {
      shard.lru.push_front(exact_key);
      shard.entries.emplace(exact_key,
                            Entry{std::move(shared), shard.lru.begin()});
      shard.resident_doubles += doubles;
      ++shard.insertions;
      GetCacheMetrics().insertions->Add();
      GetCacheMetrics().resident_doubles->Add(static_cast<int64_t>(doubles));
    }
    EvictLocked(shard, shard_budget_doubles_);
    // Failpoint `cache_evict_race`: a deterministic stand-in for an
    // eviction storm racing concurrent lookups — every entry of this
    // shard (including the one just inserted) is thrown out, so warm
    // pointers dangle and in-flight shared_ptr handles outlive their
    // entries. Correctness must not depend on residency.
    if (PME_FAILPOINT("cache_evict_race")) {
      EvictLocked(shard, 0);
    }
  }
  {
    Shard& shard = ShardOf(vars_key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.warm_index[vars_key] = exact_key;
  }
}

void SolutionCache::EvictLocked(Shard& shard, size_t budget_doubles) {
  while (shard.resident_doubles > budget_doubles && !shard.lru.empty()) {
    const Hash128 victim = shard.lru.back();
    auto it = shard.entries.find(victim);
    const size_t evicted = it->second.solution->ResidentDoubles();
    shard.resident_doubles -= evicted;
    shard.entries.erase(it);
    shard.lru.pop_back();
    ++shard.evictions;
    GetCacheMetrics().evictions->Add();
    GetCacheMetrics().resident_doubles->Add(-static_cast<int64_t>(evicted));
  }
}

SolutionCache::~SolutionCache() { Clear(); }

void SolutionCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    GetCacheMetrics().resident_doubles->Add(
        -static_cast<int64_t>(shard.resident_doubles));
    shard.entries.clear();
    shard.lru.clear();
    shard.warm_index.clear();
    shard.resident_doubles = 0;
  }
}

SolutionCacheStats SolutionCache::Stats() const {
  SolutionCacheStats stats;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(
        const_cast<Shard&>(shard).mutex);
    stats.exact_hits += shard.exact_hits;
    stats.warm_hits += shard.warm_hits;
    stats.misses += shard.misses;
    stats.insertions += shard.insertions;
    stats.evictions += shard.evictions;
    stats.entries += shard.entries.size();
    stats.resident_doubles += shard.resident_doubles;
  }
  return stats;
}

}  // namespace pme::maxent
