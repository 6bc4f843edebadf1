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

bool IsInvariant(const LinearConstraint& c) {
  return c.source == ConstraintSource::kQiInvariant ||
         c.source == ConstraintSource::kSaInvariant;
}

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

/// Builds a warm-start vector aligned with the block's rows from a
/// cached entry: rows are matched by content signature (which hashes the
/// relation, so an equality row never takes an inequality row's
/// multiplier); unmatched rows — the toggled/edited statements — start
/// at 0. Returns an empty vector when nothing matched (a zero vector is
/// the cold start; passing it would only pretend to be warm).
std::vector<double> BuildWarmStart(const CachedComponentSolution& cached,
                                   const PlanBlock& block) {
  if (cached.lambda_full.size() != cached.row_sigs.size()) return {};
  std::unordered_map<Hash128, double, Hash128Hasher> lambda;
  for (size_t j = 0; j < cached.row_sigs.size(); ++j) {
    lambda.emplace(cached.row_sigs[j], cached.lambda_full[j]);
  }
  std::vector<double> warm(block.rows.size(), 0.0);
  size_t matched = 0;
  for (size_t j = 0; j < block.row_sigs.size(); ++j) {
    auto it = lambda.find(block.row_sigs[j]);
    if (it != lambda.end()) {
      warm[j] = it->second;
      ++matched;
    }
  }
  if (matched == 0) return {};
  return warm;
}

}  // namespace

Result<BucketRowIndex> BucketRowIndex::Build(
    const constraints::TermIndex& index,
    const std::vector<LinearConstraint>& rows) {
  BucketRowIndex out;
  out.offsets.assign(index.num_buckets() + 1, 0);
  out.sigs.reserve(rows.size());
  int64_t previous = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const LinearConstraint& c = rows[r];
    const auto row = [r] { return "table row " + std::to_string(r); };
    // A block's table rows must lead its stacked row list.
    if (c.rel != constraints::Relation::kEq) {
      return Status::InvalidArgument(row() + " is not an equality");
    }
    int64_t bucket = -1;
    std::pair<uint32_t, uint32_t> range;  // the bucket's variables
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      if (bucket < 0) {
        bucket = index.TermOf(c.vars[i]).bucket;
        range = index.BucketRange(static_cast<uint32_t>(bucket));
      } else if (c.vars[i] < range.first || c.vars[i] >= range.second) {
        return Status::InvalidArgument(row() + " (bucket " +
                                       std::to_string(bucket) +
                                       ") spans more than one bucket");
      }
    }
    if (bucket < 0) {
      return Status::InvalidArgument(row() + " has no supported variable");
    }
    if (bucket < previous) {
      return Status::InvalidArgument(row() + " (bucket " +
                                     std::to_string(bucket) +
                                     ") is out of bucket order");
    }
    previous = bucket;
    ++out.offsets[static_cast<size_t>(bucket) + 1];
    out.sigs.push_back(constraints::ConstraintRowSignature(c));
  }
  out.digests.reserve(index.num_buckets());
  for (size_t b = 0; b < index.num_buckets(); ++b) {
    out.offsets[b + 1] += out.offsets[b];
    Hasher128 h;
    h.Update(std::string_view("pme.bucketrows.v1"));
    h.Update(static_cast<uint64_t>(out.offsets[b + 1] - out.offsets[b]));
    for (uint32_t r = out.offsets[b]; r < out.offsets[b + 1]; ++r) {
      h.Update(out.sigs[r]);
    }
    out.digests.push_back(h.Finish());
  }
  return out;
}

BlockPlan BlockPlan::Build(
    const constraints::TermIndex& index,
    const std::vector<LinearConstraint>* table_rows,
    const BucketRowIndex* bucket_rows,
    const std::vector<LinearConstraint>& request_rows, bool one_block) {
  BlockPlan plan;
  plan.index_ = &index;
  if (table_rows != nullptr) plan.bucket_rows_ = bucket_rows;

  // The buckets the request rows touch (every bucket for one block);
  // local id = rank among them.
  IdSet touched_set(index.num_buckets());
  if (one_block) {
    for (uint32_t b = 0; b < index.num_buckets(); ++b) touched_set.Insert(b);
  } else {
    for (const LinearConstraint& c : request_rows) {
      for (size_t i = 0; i < c.vars.size(); ++i) {
        if (c.coefs[i] != 0.0) {
          touched_set.Insert(index.TermOf(c.vars[i]).bucket);
        }
      }
    }
  }
  touched_set.Seal();
  const std::vector<uint32_t> touched = touched_set.Members();
  const auto local_of_var = [&](uint32_t var) {
    return touched_set.Rank(index.TermOf(var).bucket);
  };

  // Union every bucket a row supports into one component. Rows beyond
  // the structural invariants (knowledge, but also ad-hoc rows)
  // invalidate the closed form for their component.
  UnionFind uf(touched.size());
  std::vector<uint8_t> coupled(touched.size(), one_block ? 1 : 0);
  for (uint32_t l = 1; one_block && l < touched.size(); ++l) uf.Union(0, l);
  for (const LinearConstraint& c : request_rows) {
    const bool knowledge = !IsInvariant(c);
    int64_t first = -1;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      const uint32_t local = local_of_var(c.vars[i]);
      if (knowledge) coupled[local] = 1;
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

  // Table rows of each block's buckets, in table order (ascending
  // buckets hold ascending rows).
  if (table_rows != nullptr) {
    for (PlanBlock& block : plan.blocks_) {
      for (const uint32_t b : block.buckets) {
        for (uint32_t r = bucket_rows->offsets[b];
             r < bucket_rows->offsets[b + 1]; ++r) {
          block.rows.push_back(&(*table_rows)[r]);
        }
      }
    }
  }
  // Request rows join the block of their first supported variable.
  for (const LinearConstraint& c : request_rows) {
    const auto it = std::find_if(c.coefs.begin(), c.coefs.end(),
                                 [](double v) { return v != 0.0; });
    if (it == c.coefs.end()) {
      plan.unsupported_rows_.push_back(&c);
      continue;
    }
    const size_t first = static_cast<size_t>(it - c.coefs.begin());
    const uint32_t root = uf.Find(local_of_var(c.vars[first]));
    if (block_of_root[root] == UINT32_MAX) continue;  // closed form exact
    plan.blocks_[block_of_root[root]].rows.push_back(&c);
  }
  for (PlanBlock& block : plan.blocks_) block.num_eq = StackRows(&block.rows);
  return plan;
}

void BlockPlan::ConsultCache(const SolverOptions& options) {
  SolutionCache* const cache = options.solution_cache;
  if (cache == nullptr || options.cache_mode == CacheMode::kOff) return;
  cache_enabled_ = true;
  std::vector<Hash128> request_sigs;
  std::vector<Hash128> sorted;
  for (PlanBlock& block : blocks_) {
    // The block's table rows lead its row list, bucket by bucket (they
    // are all equalities); the request rows follow.
    size_t num_table_rows = 0;
    if (bucket_rows_ != nullptr) {
      for (const uint32_t b : block.buckets) {
        num_table_rows +=
            bucket_rows_->offsets[b + 1] - bucket_rows_->offsets[b];
      }
    }
    request_sigs.clear();
    for (size_t j = num_table_rows; j < block.rows.size(); ++j) {
      request_sigs.push_back(
          constraints::ConstraintRowSignature(*block.rows[j]));
    }
    rows_hashed_ += request_sigs.size();

    Hasher128 vars;
    vars.Update(std::string_view("pme.vars.v1"));
    vars.Update(static_cast<uint64_t>(index_->num_variables()));
    vars.Update(static_cast<uint64_t>(index_->num_buckets()));
    vars.Update(static_cast<uint64_t>(block.buckets.size()));
    for (const uint32_t b : block.buckets) {
      const auto [first, last] = index_->BucketRange(b);
      vars.Update(b);
      vars.Update(static_cast<uint64_t>(last - first));
    }
    block.vars_hash = vars.Finish();

    // The table rows enter by their buckets' digests, in bucket order;
    // the request rows are sorted so the digest is independent of their
    // order, which the solution is too.
    Hasher128 rows;
    rows.Update(std::string_view("pme.rows.v2"));
    rows.Update(block.vars_hash);
    if (bucket_rows_ != nullptr) {
      rows.Update(static_cast<uint64_t>(block.buckets.size()));
      for (const uint32_t b : block.buckets) {
        rows.Update(bucket_rows_->digests[b]);
      }
    } else {
      rows.Update(uint64_t{0});
    }
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
    // The warm lookup and the insertion after the solve match rows by
    // signature: gather the table rows' and append the request rows'.
    block.row_sigs.reserve(block.rows.size());
    if (bucket_rows_ != nullptr) {
      for (const uint32_t b : block.buckets) {
        block.row_sigs.insert(
            block.row_sigs.end(),
            bucket_rows_->sigs.begin() + bucket_rows_->offsets[b],
            bucket_rows_->sigs.begin() + bucket_rows_->offsets[b + 1]);
      }
    }
    block.row_sigs.insert(block.row_sigs.end(), request_sigs.begin(),
                          request_sigs.end());
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
