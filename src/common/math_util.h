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

/// log(sum_i exp(x_i)) computed stably (max-shift).
/// Returns -inf for an empty input.
double LogSumExp(const std::vector<double>& x);

/// Infinity norm of a vector (0 for empty input).
double InfNorm(const std::vector<double>& v);

/// Euclidean norm of a vector.
double TwoNorm(const std::vector<double>& v);

/// Dot product; vectors must have equal length.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// y += alpha * x (axpy); vectors must have equal length.
void Axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

/// Normalizes a non-negative vector to sum to one in place.
/// Returns false (leaving v untouched) if the sum is not strictly positive.
bool NormalizeInPlace(std::vector<double>& v);

/// Binomial coefficient C(n, k) as double (exact for the small n used in
/// attribute-subset enumeration).
double BinomialCoefficient(int n, int k);

}  // namespace pme

#endif  // PME_COMMON_MATH_UTIL_H_
