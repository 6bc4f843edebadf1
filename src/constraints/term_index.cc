#include "constraints/term_index.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace pme::constraints {

TermIndex TermIndex::Build(const anonymize::BucketizedTable& table,
                           size_t threads) {
  TermIndex index;
  const size_t m = table.num_buckets();
  index.bucket_qi_.resize(m);
  index.bucket_sa_.resize(m);
  index.bucket_offsets_.assign(m + 1, 0);

  // Phase 1 (parallel): per-bucket distinct instance lists. Each bucket
  // writes only its own slots; bucket_offsets_[b + 1] temporarily holds
  // the bucket's term count.
  // The shard tasks below touch only std containers and never throw in
  // practice; the ParallelFor statuses exist for callers whose tasks can
  // fail (the decomposed solver) and are vacuous here.
  const size_t workers = ThreadPool::ResolveThreads(threads);
  (void)ThreadPool::ParallelFor(workers, m, [&](size_t b) {
    auto& qis = index.bucket_qi_[b];
    auto& sas = index.bucket_sa_[b];
    for (const auto& [q, cnt] : table.BucketQiCounts(b)) qis.push_back(q);
    for (const auto& [s, cnt] : table.BucketSaCounts(b)) sas.push_back(s);
    // std::map iteration is already sorted; keep the contract explicit.
    std::sort(qis.begin(), qis.end());
    std::sort(sas.begin(), sas.end());
    index.bucket_offsets_[b + 1] =
        static_cast<uint32_t>(qis.size() * sas.size());
  });

  // Phase 2 (serial): counts -> offsets by prefix sum.
  for (size_t b = 0; b < m; ++b) {
    index.bucket_offsets_[b + 1] += index.bucket_offsets_[b];
  }

  // Phase 3 (parallel): materialize terms into disjoint slices.
  index.terms_.resize(index.bucket_offsets_[m]);
  (void)ThreadPool::ParallelFor(workers, m, [&](size_t b) {
    size_t k = index.bucket_offsets_[b];
    for (uint32_t q : index.bucket_qi_[b]) {
      for (uint32_t s : index.bucket_sa_[b]) {
        index.terms_[k++] = Term{q, s, static_cast<uint32_t>(b)};
      }
    }
  });
  return index;
}

Result<uint32_t> TermIndex::VariableId(uint32_t q, uint32_t s,
                                       uint32_t b) const {
  if (b >= bucket_qi_.size()) {
    return Status::InvalidArgument("bucket index out of range");
  }
  const std::optional<uint32_t> var = FindVariable(q, s, b);
  if (var.has_value()) return *var;
  const auto& qis = bucket_qi_[b];
  return Status::NotFound(
      std::binary_search(qis.begin(), qis.end(), q)
          ? "P(q,s,b) is a Zero-invariant: s not in bucket"
          : "P(q,s,b) is a Zero-invariant: q not in bucket");
}

std::optional<uint32_t> TermIndex::FindVariable(uint32_t q, uint32_t s,
                                                uint32_t b) const {
  if (b >= bucket_qi_.size()) return std::nullopt;
  const auto& qis = bucket_qi_[b];
  const auto& sas = bucket_sa_[b];
  auto qit = std::lower_bound(qis.begin(), qis.end(), q);
  if (qit == qis.end() || *qit != q) return std::nullopt;
  auto sit = std::lower_bound(sas.begin(), sas.end(), s);
  if (sit == sas.end() || *sit != s) return std::nullopt;
  const size_t qi_rank = static_cast<size_t>(qit - qis.begin());
  const size_t sa_rank = static_cast<size_t>(sit - sas.begin());
  return bucket_offsets_[b] +
         static_cast<uint32_t>(qi_rank * sas.size() + sa_rank);
}

bool TermIndex::IsZeroInvariant(uint32_t q, uint32_t s, uint32_t b) const {
  return !VariableId(q, s, b).ok();
}

std::string TermIndex::TermName(
    uint32_t var, const anonymize::BucketizedTable& table) const {
  const Term& t = terms_[var];
  return "P(" + table.QiName(t.qi) + "," + table.SaName(t.sa) + ",b" +
         std::to_string(t.bucket + 1) + ")";
}

}  // namespace pme::constraints
