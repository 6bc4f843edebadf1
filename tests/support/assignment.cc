#include "tests/support/assignment.h"

#include <algorithm>

namespace pme::constraints {

Assignment Assignment::FromRecords(const anonymize::BucketizedTable& table) {
  Assignment a;
  a.pairs_.resize(table.num_buckets());
  for (const auto& r : table.records()) {
    a.pairs_[r.bucket].emplace_back(r.qi, r.sa);
    ++a.num_records_;
  }
  return a;
}

Assignment Assignment::Random(const anonymize::BucketizedTable& table,
                              Prng& prng) {
  Assignment a;
  a.pairs_.resize(table.num_buckets());
  for (uint32_t b = 0; b < table.num_buckets(); ++b) {
    const auto qis = table.BucketQis(b);
    const auto published_sas = table.BucketSas(b);
    std::vector<uint32_t> sas(published_sas.begin(), published_sas.end());
    prng.Shuffle(sas);
    auto& pairs = a.pairs_[b];
    pairs.reserve(qis.size());
    for (size_t i = 0; i < qis.size(); ++i) {
      pairs.emplace_back(qis[i], sas[i]);
    }
    a.num_records_ += qis.size();
  }
  return a;
}

void Assignment::SwapSa(uint32_t b, size_t i, size_t j) {
  std::swap(pairs_[b][i].second, pairs_[b][j].second);
}

std::vector<double> Assignment::TermProbabilities(
    const TermIndex& index) const {
  std::vector<double> p(index.num_variables(), 0.0);
  const double n = static_cast<double>(num_records_);
  for (uint32_t b = 0; b < pairs_.size(); ++b) {
    for (const auto& [q, s] : pairs_[b]) {
      auto var = index.VariableId(q, s, b);
      // Every pair of a valid assignment must be a materialized term.
      if (var.ok()) p[var.value()] += 1.0 / n;
    }
  }
  return p;
}

}  // namespace pme::constraints
