#include "maxent/block_plan.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/union_find.h"
#include "maxent/problem.h"

namespace pme::maxent {

using constraints::ConstraintSource;
using constraints::LinearConstraint;

namespace {

/// The cache key of one block: its content digest plus the solve knobs
/// that change the answer (tolerance, presolve). Two analyses asking for
/// different precision must not serve each other's solutions.
Hash128 MakeExactKey(const Hash128& rows_hash, const SolverOptions& options) {
  Hasher128 h;
  h.Update(std::string_view("pme.cachekey.v2"));
  h.Update(options.cache_namespace);
  h.Update(rows_hash);
  h.Update(options.tolerance);
  h.Update(static_cast<uint64_t>(options.presolve ? 1 : 0));
  return h.Finish();
}

/// The structure (warm-start) key of one block: its variable digest
/// under the caller's cache namespace, so two artifacts sharing one
/// cache keep disjoint warm-start spaces too.
Hash128 MakeVarsKey(const Hash128& vars_hash, const SolverOptions& options) {
  Hasher128 h;
  h.Update(std::string_view("pme.varskey.v1"));
  h.Update(options.cache_namespace);
  h.Update(vars_hash);
  return h.Finish();
}

/// Builds a warm-start vector aligned with the block problem's rows
/// from a cached entry with the same vars_key. Equal vars keys mean
/// identical invariant rows, so their multipliers carry over by position.
/// Request rows are matched by content signature (which hashes the
/// relation, so an equality row never takes an inequality row's
/// multiplier); unmatched ones — the toggled/edited statements — start
/// at 0. Returns an empty vector when the entry does not fit the block.
std::vector<double> BuildWarmStart(const CachedComponentSolution& cached,
                                   const PlanBlock& block) {
  const size_t num_table_rows = block.num_table_rows;
  if (cached.lambda_full.size() != num_table_rows + cached.row_sigs.size()) {
    return {};
  }
  std::unordered_map<Hash128, double, Hash128Hasher> lambda;
  for (size_t j = 0; j < cached.row_sigs.size(); ++j) {
    lambda.emplace(cached.row_sigs[j],
                   cached.lambda_full[num_table_rows + j]);
  }
  std::vector<double> warm(block.num_rows(), 0.0);
  std::copy(cached.lambda_full.begin(),
            cached.lambda_full.begin() + num_table_rows, warm.begin());
  for (size_t j = 0; j < block.row_sigs.size(); ++j) {
    auto it = lambda.find(block.row_sigs[j]);
    if (it != lambda.end()) warm[num_table_rows + j] = it->second;
  }
  return warm;
}

}  // namespace

BlockPlan BlockPlan::Build(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::InvariantOptions& invariant_options,
    const std::vector<LinearConstraint>& request_rows, bool one_block) {
  std::vector<const LinearConstraint*> rows;
  rows.reserve(request_rows.size());
  for (const LinearConstraint& c : request_rows) rows.push_back(&c);
  return BuildFromRows(table, index, invariant_options, rows, one_block);
}

Result<BlockPlan> BlockPlan::Build(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system) {
  const constraints::InvariantOptions keep_all;
  std::vector<const LinearConstraint*> request_rows;
  for (const LinearConstraint& c : system.constraints()) {
    if (c.source != ConstraintSource::kQiInvariant &&
        c.source != ConstraintSource::kSaInvariant) {
      request_rows.push_back(&c);
    }
  }
  const size_t invariant_rows = system.size() - request_rows.size();
  size_t table_rows = 0;
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    table_rows += constraints::NumInvariantRows(table, b, keep_all);
  }
  if (invariant_rows != table_rows) {
    return Status::InvalidArgument(
        "the system holds " + std::to_string(invariant_rows) +
        " invariant rows; the table has " + std::to_string(table_rows));
  }
  return BuildFromRows(table, index, keep_all, request_rows, false);
}

BlockPlan BlockPlan::BuildFromRows(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const constraints::InvariantOptions& invariant_options,
    const std::vector<const LinearConstraint*>& request_rows,
    bool one_block) {
  BlockPlan plan;
  plan.table_ = &table;
  plan.index_ = &index;
  plan.invariant_options_ = invariant_options;

  // The buckets the request rows touch (every bucket for one block);
  // local id = rank among them.
  IdSet touched_set(index.num_buckets());
  if (one_block) {
    for (uint32_t b = 0; b < index.num_buckets(); ++b) touched_set.Insert(b);
  } else {
    for (const LinearConstraint* c : request_rows) {
      for (size_t i = 0; i < c->vars.size(); ++i) {
        if (c->coefs[i] != 0.0) {
          touched_set.Insert(index.TermOf(c->vars[i]).bucket);
        }
      }
    }
  }
  touched_set.Seal();
  const std::vector<uint32_t> touched = touched_set.Members();
  const auto local_of_var = [&](uint32_t var) {
    return touched_set.Rank(index.TermOf(var).bucket);
  };

  // Union every bucket a request row supports into one component; the
  // row invalidates the closed form for that component.
  UnionFind uf(touched.size());
  std::vector<uint8_t> coupled(touched.size(), one_block ? 1 : 0);
  for (uint32_t l = 1; one_block && l < touched.size(); ++l) uf.Union(0, l);
  for (const LinearConstraint* c : request_rows) {
    int64_t first = -1;
    for (size_t i = 0; i < c->vars.size(); ++i) {
      if (c->coefs[i] == 0.0) continue;
      const uint32_t local = local_of_var(c->vars[i]);
      coupled[local] = 1;
      if (first < 0) {
        first = local;
      } else {
        uf.Union(static_cast<uint32_t>(first), local);
      }
    }
  }

  // Blocks open at the first (smallest) bucket of each coupled component.
  std::vector<uint8_t> root_coupled(touched.size(), 0);
  for (uint32_t l = 0; l < touched.size(); ++l) {
    if (coupled[l]) root_coupled[uf.Find(l)] = 1;
  }
  std::vector<uint32_t> block_of_root(touched.size(), UINT32_MAX);
  size_t touched_components = 0;
  for (uint32_t l = 0; l < touched.size(); ++l) {
    const uint32_t root = uf.Find(l);
    if (root == l) ++touched_components;
    if (!root_coupled[root]) continue;
    if (block_of_root[root] == UINT32_MAX) {
      block_of_root[root] = static_cast<uint32_t>(plan.blocks_.size());
      plan.blocks_.emplace_back();
    }
    plan.blocks_[block_of_root[root]].buckets.push_back(touched[l]);
  }
  plan.num_components_ =
      index.num_buckets() - touched.size() + touched_components;

  // Columns: each block's bucket ranges, concatenated.
  plan.coupled_ = IdSet(index.num_buckets());
  for (uint32_t l = 0; l < touched.size(); ++l) {
    const uint32_t block_id = block_of_root[uf.Find(l)];
    if (block_id == UINT32_MAX) continue;
    PlanBlock& block = plan.blocks_[block_id];
    plan.coupled_.Insert(touched[l]);
    plan.coupled_block_.push_back(block_id);
    plan.coupled_col_.push_back(static_cast<uint32_t>(block.cols.size()));
    const auto [first, last] = index.BucketRange(touched[l]);
    for (uint32_t v = first; v < last; ++v) block.cols.push_back(v);
  }
  plan.coupled_.Seal();

  // Each block's invariant rows, implied by its buckets.
  for (PlanBlock& block : plan.blocks_) {
    for (const uint32_t b : block.buckets) {
      block.num_table_rows +=
          constraints::NumInvariantRows(table, b, invariant_options);
    }
  }
  // Request rows join the block of their first supported variable.
  for (const LinearConstraint* c : request_rows) {
    const auto it = std::find_if(c->coefs.begin(), c->coefs.end(),
                                 [](double v) { return v != 0.0; });
    if (it == c->coefs.end()) {
      plan.unsupported_rows_.push_back(c);
      continue;
    }
    const size_t first = static_cast<size_t>(it - c->coefs.begin());
    const uint32_t root = uf.Find(local_of_var(c->vars[first]));
    plan.blocks_[block_of_root[root]].rows.push_back(c);
  }
  for (PlanBlock& block : plan.blocks_) block.num_eq = StackRows(&block.rows);
  return plan;
}

void BlockPlan::ConsultCache(const SolverOptions& options) {
  SolutionCache* const cache = options.solution_cache;
  if (cache == nullptr || options.cache_mode == CacheMode::kOff) return;
  cache_enabled_ = true;
  std::vector<Hash128> sorted;
  for (PlanBlock& block : blocks_) {
    std::vector<Hash128> request_sigs;
    request_sigs.reserve(block.rows.size());
    for (const LinearConstraint* c : block.rows) {
      request_sigs.push_back(constraints::ConstraintRowSignature(*c));
    }
    rows_hashed_ += request_sigs.size();

    // The invariant rows are a function of the buckets' counts, the
    // record count (their rhs is count / N) and the invariant options.
    Hasher128 vars;
    vars.Update(std::string_view("pme.vars.v2"));
    vars.Update(static_cast<uint64_t>(index_->num_variables()));
    vars.Update(static_cast<uint64_t>(index_->num_buckets()));
    vars.Update(static_cast<uint64_t>(table_->num_records()));
    vars.Update(
        static_cast<uint64_t>(invariant_options_.drop_redundant_row ? 1 : 0));
    vars.Update(static_cast<uint64_t>(block.buckets.size()));
    for (const uint32_t b : block.buckets) {
      const auto qi_runs = table_->BucketQiCounts(b);
      const auto sa_runs = table_->BucketSaCounts(b);
      vars.Update(b);
      vars.Update(static_cast<uint64_t>(qi_runs.size()));
      vars.Update(static_cast<uint64_t>(sa_runs.size()));
      for (const anonymize::IdCount& run : qi_runs) vars.Update(run.count);
      for (const anonymize::IdCount& run : sa_runs) vars.Update(run.count);
    }
    block.vars_hash = vars.Finish();

    // The request rows are sorted so the digest is independent of their
    // order, which the solution is too.
    Hasher128 rows;
    rows.Update(std::string_view("pme.rows.v3"));
    rows.Update(block.vars_hash);
    sorted = request_sigs;
    std::sort(sorted.begin(), sorted.end());
    rows.Update(static_cast<uint64_t>(sorted.size()));
    for (const Hash128& sig : sorted) rows.Update(sig);
    block.rows_hash = rows.Finish();

    block.exact_key = MakeExactKey(block.rows_hash, options);
    block.vars_key = MakeVarsKey(block.vars_hash, options);
    auto hit = cache->FindExact(block.exact_key);
    if (hit != nullptr && hit->p.size() == block.cols.size()) {
      block.cached = std::move(hit);
      ++cache_exact_hits_;
      continue;
    }
    ++cache_misses_;
    // The warm lookup and the insertion after the solve match request
    // rows by signature.
    block.row_sigs = std::move(request_sigs);
    if (options.cache_mode != CacheMode::kWarm) continue;
    if (static_cast<double>(block.cols.size()) >
        kDominantBlockFraction *
            static_cast<double>(index_->num_variables())) {
      ++warm_withheld_;
      continue;
    }
    auto warm = cache->FindWarm(block.vars_key);
    if (warm != nullptr) {
      block.warm_start = BuildWarmStart(*warm, block);
      if (!block.warm_start.empty()) ++cache_warm_hits_;
    }
  }
}

}  // namespace pme::maxent
