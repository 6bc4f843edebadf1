#include "tests/support/component_analysis.h"

#include "common/union_find.h"

namespace pme::constraints {

ComponentAnalysis ComponentAnalysis::Build(
    const TermIndex& index, const std::vector<LinearConstraint>& rows) {
  const size_t num_buckets = index.num_buckets();
  UnionFind uf(num_buckets);
  std::vector<bool> touched(num_buckets, false);  // by knowledge rows

  for (const auto& c : rows) {
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

}  // namespace pme::constraints
