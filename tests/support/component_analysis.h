// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_COMPONENT_ANALYSIS_H_
#define PME_TESTS_SUPPORT_COMPONENT_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "constraints/system.h"
#include "constraints/term_index.h"

namespace pme::constraints {

/// Connected-component analysis of the bucket coupling graph.
///
/// Buckets are nodes; every constraint whose support spans multiple
/// buckets joins them into one component (union-find). Invariants
/// (Eqs. 4-5) touch exactly one bucket, so only background/individual
/// knowledge rows ever merge buckets — but the analysis unions over *all*
/// constraint support, so it stays correct if some future constraint
/// source couples buckets too.
///
/// This refines Definition 5.6: the paper splits buckets into relevant
/// vs irrelevant to the knowledge; here the relevant set decomposes
/// further into independent blocks. The full MaxEnt problem is
/// block-diagonal across components (disjoint variables, separable
/// entropy), so each coupled component can be solved as its own — much
/// smaller — dual problem, and knowledge-free components keep the
/// Theorem-5 closed form.
class ComponentAnalysis {
 public:
  struct Component {
    /// Buckets of this component, ascending.
    std::vector<uint32_t> buckets;
    /// Total materialized variables across those buckets.
    size_t num_variables = 0;
    /// True when some non-invariant constraint (background/individual
    /// knowledge, or an ad-hoc row) touches the component; false means
    /// the Theorem-5 closed form is exact here.
    bool coupled = false;
  };

  /// Builds the partition for `system` over `index`'s variable space.
  /// Components are numbered in order of their smallest bucket id, so
  /// the numbering is deterministic.
  static ComponentAnalysis Build(const TermIndex& index,
                                 const ConstraintSystem& system);

  const std::vector<Component>& components() const { return components_; }
  size_t num_components() const { return components_.size(); }

  /// Component id of a bucket.
  uint32_t ComponentOf(uint32_t bucket) const {
    return bucket_component_[bucket];
  }

  /// Number of components with the coupled flag set.
  size_t num_coupled() const { return num_coupled_; }

 private:
  std::vector<Component> components_;
  std::vector<uint32_t> bucket_component_;  // size num_buckets
  size_t num_coupled_ = 0;
};

}  // namespace pme::constraints

#endif  // PME_TESTS_SUPPORT_COMPONENT_ANALYSIS_H_
