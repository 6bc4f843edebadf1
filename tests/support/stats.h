// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_TESTS_SUPPORT_STATS_H_
#define PME_TESTS_SUPPORT_STATS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace pme::data {

/// Empirical distribution queries over a Dataset.
///
/// Provides the `P(Qv)`, `P(Qv, S)` and `P(S | Qv)` quantities of Section 4
/// of the paper, where `Qv` ranges over arbitrary subsets of the QI
/// attributes. Probabilities are sample frequencies, exactly as the paper
/// approximates population probabilities by the published-sample
/// distribution (Section 4.1).
class DatasetStats {
 public:
  /// `dataset` must outlive this object.
  explicit DatasetStats(const Dataset* dataset);

  /// Number of records N.
  size_t num_records() const { return dataset_->num_records(); }

  /// Count of records whose attributes `attrs` equal `codes` elementwise.
  size_t CountMatching(const std::vector<size_t>& attrs,
                       const std::vector<uint32_t>& codes) const;

  /// Count of records matching (`attrs` == `codes`) AND (`sa_attr` ==
  /// `sa_code`).
  size_t CountMatchingWithSa(const std::vector<size_t>& attrs,
                             const std::vector<uint32_t>& codes,
                             size_t sa_attr, uint32_t sa_code) const;

  /// Sample probability P(Qv = codes).
  double Probability(const std::vector<size_t>& attrs,
                     const std::vector<uint32_t>& codes) const;

  /// Sample joint probability P(Qv = codes, SA = sa_code).
  double JointProbability(const std::vector<size_t>& attrs,
                          const std::vector<uint32_t>& codes, size_t sa_attr,
                          uint32_t sa_code) const;

  /// Sample conditional P(SA = sa_code | Qv = codes). Errors when the
  /// conditioning event has zero support.
  Result<double> Conditional(const std::vector<size_t>& attrs,
                             const std::vector<uint32_t>& codes,
                             size_t sa_attr, uint32_t sa_code) const;

  /// Marginal distribution of a single attribute, as probabilities indexed
  /// by code.
  std::vector<double> Marginal(size_t attr) const;

  /// Full conditional distribution P(SA | Qv = codes) over all SA codes.
  /// Errors when the conditioning event has zero support.
  Result<std::vector<double>> ConditionalDistribution(
      const std::vector<size_t>& attrs, const std::vector<uint32_t>& codes,
      size_t sa_attr) const;

 private:
  const Dataset* dataset_;
};

}  // namespace pme::data

#endif  // PME_TESTS_SUPPORT_STATS_H_
