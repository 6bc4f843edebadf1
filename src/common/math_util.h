// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_MATH_UTIL_H_
#define PME_COMMON_MATH_UTIL_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace pme {

/// Numeric tolerances for comparing solver outputs.
struct Tolerance {
  /// Looser tolerance used when comparing two solver outputs to each other.
  static constexpr double kCrossSolver = 1e-5;
};

/// exp(x) clamped so the result is finite (no overflow to inf).
/// Exponents are clamped to [-708, 708]; exp(708) ~ 3e307.
double SafeExp(double x);

/// x * log(x) with the continuity convention 0*log(0) = 0.
/// Natural logarithm.
double XLogX(double x);

/// Shannon entropy (nats) of an unnormalized non-negative vector, computed
/// as -sum p_i ln p_i. Entries <= 0 contribute zero.
double Entropy(const std::vector<double>& p);

/// Kullback–Leibler divergence  sum_i p_i ln(p_i / q_i)  in nats.
/// Terms with p_i == 0 contribute zero. Terms with p_i > 0 and q_i <= 0
/// are smoothed: q_i is floored at `q_floor` (default 1e-12) so the
/// divergence stays finite, matching the paper's practical evaluation.
double KlDivergence(const std::vector<double>& p, const std::vector<double>& q,
                    double q_floor = 1e-12);

/// Span form of KlDivergence for callers iterating rows of a packed
/// matrix — identical arithmetic, no per-row copies.
double KlDivergence(const double* p, const double* q, size_t n,
                    double q_floor = 1e-12);

}  // namespace pme

#endif  // PME_COMMON_MATH_UTIL_H_
