// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_VEC_MATH_H_
#define PME_COMMON_VEC_MATH_H_

#include <cstddef>
#include <string>
#include <vector>

namespace pme::kernels {

/// Non-owning view of a mutable double buffer. The kernel layer works on
/// raw (pointer, size) pairs so the hot loops — CSR products, the fused
/// exp-sum of the dual evaluation, line-search probes — perform no
/// per-call bounds logic or container indirection.
struct Span {
  double* data = nullptr;
  size_t size = 0;

  Span() = default;
  Span(double* d, size_t n) : data(d), size(n) {}
  Span(std::vector<double>& v) : data(v.data()), size(v.size()) {}  // NOLINT

  double& operator[](size_t i) const { return data[i]; }
  double* begin() const { return data; }
  double* end() const { return data + size; }
};

/// Non-owning read-only view; implicitly constructible from Span and
/// std::vector so call sites stay terse.
struct ConstSpan {
  const double* data = nullptr;
  size_t size = 0;

  ConstSpan() = default;
  ConstSpan(const double* d, size_t n) : data(d), size(n) {}
  ConstSpan(const std::vector<double>& v)  // NOLINT
      : data(v.data()), size(v.size()) {}
  ConstSpan(Span s) : data(s.data), size(s.size) {}  // NOLINT

  double operator[](size_t i) const { return data[i]; }
  const double* begin() const { return data; }
  const double* end() const { return data + size; }
};

/// SIMD dispatch policy. `kAuto` selects the fastest table the CPU (and
/// OS, via XCR0) supports; the explicit tiers pin a table for A/B benching
/// and parity testing, falling back to the next-best supported table when
/// the pinned one cannot run here.
enum class SimdMode {
  kAuto = 0,    ///< fastest supported: AVX-512 > AVX2+FMA > scalar
  kOff = 1,     ///< portable scalar kernels only
  kAvx2 = 2,    ///< AVX2+FMA table (scalar when unsupported)
  kAvx512 = 3,  ///< AVX-512 table (AVX2 or scalar when unsupported)
};

/// Re-runs kernel dispatch under the given policy. Not thread-safe
/// against concurrent kernel calls: set the mode at startup (flag
/// parsing), before any solver runs.
void SetSimdMode(SimdMode mode);

/// The currently requested policy.
SimdMode GetSimdMode();

/// Parses a `--simd` flag value: off|avx2|avx512|auto (unknown values warn
/// and select kAuto).
SimdMode ParseSimdMode(const std::string& value);

/// Name of the instruction set behind the active dispatch table:
/// "avx512", "avx2+fma" or "scalar". This reflects what actually runs —
/// a pinned-but-unsupported mode reports the table it fell back to.
const char* SimdModeName();

/// True when a vectorized (non-scalar) dispatch table is active.
bool SimdActive();

/// True when this binary and CPU can run the AVX2+FMA kernels at all,
/// regardless of the current mode (used by parity tests to decide whether
/// the two paths genuinely differ).
bool Avx2Supported();

/// True when the CPU supports AVX-512F+DQ *and* the OS has enabled the
/// ZMM/opmask state (CPUID + XCR0 check — a hypervisor or kernel that
/// masks XSAVE state must not let us fault on the first vzmm load).
bool Avx512Supported();

// ---------------------------------------------------------------------------
// Kernels. All follow SafeExp clamping semantics where exponentials are
// involved: exponents are clamped to [-708, 708] so results stay finite
// and normal. Sizes are asserted, never checked at runtime in release.
// ---------------------------------------------------------------------------

/// y_i = exp(x_i - 1), the batched primal map p(λ) = exp(Aᵀλ − 1).
void ExpM1Shifted(ConstSpan x, Span y);

/// Fused exp + horizontal accumulate: x_i <- exp(x_i - 1) in place and
/// the sum Σ_i exp(x_i - 1) is returned. This is the dual objective's
/// single pass over the primal buffer.
double ExpM1SumInPlace(Span x);

/// Σ_i exp(x_i - shift) without storing the terms (LogSumExp's second
/// pass; `shift` is the max element).
double SumExpShifted(ConstSpan x, double shift);

/// y_i = ln(x_i), the batched natural log behind Entropy/KlDivergence and
/// the GIS multiplier update. IEEE special cases match libm: ln(0) = -inf,
/// ln(x<0) = NaN, ln(inf) = inf, NaN propagates; denormals are
/// renormalized, not flushed. In-place use (x.data == y.data) is allowed.
void Ln(ConstSpan x, Span y);

/// -Σ_i v_i ln v_i with the 0·ln 0 = 0 convention (entropy accumulation).
/// Entries <= 0 contribute zero via the same branch-free select the
/// vector path uses, so all tables agree to <= 1e-12 even on subnormals.
double NegXLogXSum(ConstSpan v);

/// Σ_i p_i ln(p_i / max(q_i, q_floor)) with p_i <= 0 contributing zero —
/// the fused KL pass of the per-q posterior evaluation.
double KlDivergence(ConstSpan p, ConstSpan q, double q_floor);

/// Dot product aᵀb.
double Dot(ConstSpan a, ConstSpan b);

/// y += alpha * x.
void Axpy(double alpha, ConstSpan x, Span y);

/// out_i = a_i + s * d_i — the line-search probe update λ + t·direction,
/// writing a separate trial buffer.
void ScaledAdd(ConstSpan a, double s, ConstSpan d, Span out);

/// v *= s.
void Scale(Span v, double s);

/// Euclidean norm.
double TwoNorm(ConstSpan v);

/// max_i |v_i| (0 for empty input).
double InfNorm(ConstSpan v);

/// max_i v_i (-inf for empty input).
double MaxVal(ConstSpan v);

}  // namespace pme::kernels

#endif  // PME_COMMON_VEC_MATH_H_
