#include "constraints/component_analysis.h"

#include <algorithm>
#include <utility>

namespace pme::constraints {

ComponentAnalysis ComponentAnalysis::Build(const TermIndex& index,
                                           const ConstraintSystem& system) {
  const size_t num_buckets = index.num_buckets();
  UnionFind uf(num_buckets);
  std::vector<bool> touched(num_buckets, false);  // by knowledge rows

  for (const auto& c : system.constraints()) {
    // Anything beyond the structural invariants (knowledge rows, but also
    // ad-hoc kOther rows) invalidates the closed form for its component.
    const bool is_knowledge = c.source != ConstraintSource::kQiInvariant &&
                              c.source != ConstraintSource::kSaInvariant;
    int64_t first_bucket = -1;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      const uint32_t b = index.TermOf(c.vars[i]).bucket;
      if (is_knowledge) touched[b] = true;
      if (first_bucket < 0) {
        first_bucket = b;
      } else {
        uf.Union(static_cast<uint32_t>(first_bucket), b);
      }
    }
  }

  ComponentAnalysis out;
  out.bucket_component_.assign(num_buckets, 0);
  // Components numbered by first appearance in bucket order: deterministic.
  std::vector<int64_t> root_to_id(num_buckets, -1);
  for (uint32_t b = 0; b < num_buckets; ++b) {
    const uint32_t root = uf.Find(b);
    if (root_to_id[root] < 0) {
      root_to_id[root] = static_cast<int64_t>(out.components_.size());
      out.components_.emplace_back();
    }
    const auto id = static_cast<uint32_t>(root_to_id[root]);
    out.bucket_component_[b] = id;
    Component& comp = out.components_[id];
    comp.buckets.push_back(b);
    const auto [first, last] = index.BucketRange(b);
    comp.num_variables += last - first;
    comp.coupled = comp.coupled || touched[b];
  }
  for (const Component& comp : out.components_) {
    if (comp.coupled) ++out.num_coupled_;
  }
  return out;
}

Hash128 ConstraintRowSignature(const LinearConstraint& constraint) {
  Hasher128 h;
  h.Update(std::string_view("pme.row.v1"));
  h.Update(static_cast<int>(constraint.rel));
  h.Update(constraint.rhs);
  // Rows that are already canonical — strictly ascending variables, no
  // zero coefficients, as every invariant row is — hash in place.
  const auto& vars = constraint.vars;
  const auto& coefs = constraint.coefs;
  bool canonical = true;
  for (size_t i = 0; i < vars.size() && canonical; ++i) {
    canonical = coefs[i] != 0.0 && (i == 0 || vars[i - 1] < vars[i]);
  }
  if (canonical) {
    h.Update(static_cast<uint64_t>(vars.size()));
    for (size_t i = 0; i < vars.size(); ++i) {
      h.Update(vars[i]);
      h.Update(coefs[i]);
    }
    return h.Finish();
  }
  // Canonical support: zero coefficients dropped, duplicates summed,
  // sorted by variable id — the row's content independent of the order
  // its terms were emitted in.
  std::vector<std::pair<uint32_t, double>> support;
  support.reserve(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    if (coefs[i] == 0.0) continue;
    support.emplace_back(vars[i], coefs[i]);
  }
  std::sort(support.begin(), support.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t w = 0;
  for (size_t i = 0; i < support.size(); ++i) {
    if (w > 0 && support[w - 1].first == support[i].first) {
      support[w - 1].second += support[i].second;
    } else {
      support[w++] = support[i];
    }
  }
  support.resize(w);

  h.Update(static_cast<uint64_t>(support.size()));
  for (const auto& [var, coef] : support) {
    h.Update(var);
    h.Update(coef);
  }
  return h.Finish();
}

}  // namespace pme::constraints
