#include "constraints/term_index.h"

#include <algorithm>

namespace pme::constraints {

TermIndex TermIndex::Build(const anonymize::BucketizedTable& table) {
  TermIndex index;
  const size_t m = table.num_buckets();
  index.bucket_offsets_.reserve(m + 1);
  index.bucket_qi_.offsets.reserve(m + 1);
  index.bucket_sa_.offsets.reserve(m + 1);

  // Per-bucket distinct instance lists — the ids of the table's sorted
  // runs — with bucket offsets by prefix sum over the term counts.
  for (uint32_t b = 0; b < m; ++b) {
    const auto qi_runs = table.BucketQiCounts(b);
    const auto sa_runs = table.BucketSaCounts(b);
    for (const auto& [q, cnt] : qi_runs) index.bucket_qi_.items.push_back(q);
    for (const auto& [s, cnt] : sa_runs) index.bucket_sa_.items.push_back(s);
    index.bucket_qi_.EndList();
    index.bucket_sa_.EndList();
    index.bucket_offsets_.push_back(
        index.bucket_offsets_.back() +
        static_cast<uint32_t>(qi_runs.size() * sa_runs.size()));
  }

  // Materialize the terms, sized exactly up front.
  index.terms_.reserve(index.bucket_offsets_[m]);
  for (uint32_t b = 0; b < m; ++b) {
    for (uint32_t q : index.BucketQiList(b)) {
      for (uint32_t s : index.BucketSaList(b)) {
        index.terms_.push_back(Term{q, s, b});
      }
    }
  }
  return index;
}

Result<uint32_t> TermIndex::VariableId(uint32_t q, uint32_t s,
                                       uint32_t b) const {
  if (b >= num_buckets()) {
    return Status::InvalidArgument("bucket index out of range");
  }
  const std::optional<uint32_t> var = FindVariable(q, s, b);
  if (var.has_value()) return *var;
  const auto qis = BucketQiList(b);
  return Status::NotFound(
      std::binary_search(qis.begin(), qis.end(), q)
          ? "P(q,s,b) is a Zero-invariant: s not in bucket"
          : "P(q,s,b) is a Zero-invariant: q not in bucket");
}

std::optional<uint32_t> TermIndex::FindVariable(uint32_t q, uint32_t s,
                                                uint32_t b) const {
  if (b >= num_buckets()) return std::nullopt;
  const auto qis = BucketQiList(b);
  const auto sas = BucketSaList(b);
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
