// Vectorized kernel layer. Three dispatch tables — portable scalar,
// AVX2+FMA, and AVX-512F/DQ — are compiled into every binary; the fastest
// one the CPU *and* OS support is selected once at startup (overridable
// with `--simd=off|avx2|avx512` for A/B benching and parity testing).
//
// The vector exponential is a Cephes-style kernel: the exponent is split
// off as k = round(x·log2 e), the residual r = x − k·ln 2 (two-part ln 2
// for accuracy) is mapped through a (3,4)-degree Padé approximant in r²,
// and 2^k is reconstructed directly in the double's exponent field. Max
// observed error vs libm is ~2 ulp, far inside the 1e-12 relative bound
// the parity tests enforce. Inputs follow SafeExp clamping (±708), so
// every result is finite and normal.
//
// The vector logarithm is the matching Cephes ln kernel: frexp performed
// in the bit domain (mantissa forced into [0.5, 1), exponent extracted
// from the bias field), the √½ branch folded into a lane mask, and the
// reduced argument mapped through the degree-(5,5) rational minimax
// approximant with the two-part ln 2 recombination. Denormals are
// pre-scaled by 2^54 instead of flushed; 0 / negative / ±Inf / NaN lanes
// are blended to the IEEE results afterwards, so all three tables agree
// with libm on every special case.
//
// The AVX-512 table runs every loop 8-wide with masked loads/stores on
// the remainder, so no kernel has a scalar tail on that tier.

#include "common/vec_math.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "common/metrics.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PME_VEC_X86 1
#include <immintrin.h>
#endif

namespace pme::kernels {
namespace {

constexpr double kExpClamp = 708.0;

inline double ClampExpArg(double x) {
  if (x > kExpClamp) return kExpClamp;
  if (x < -kExpClamp) return -kExpClamp;
  return x;  // NaN falls through both comparisons, matching SafeExp
}

// ------------------------------------------------------------ scalar path

double ExpM1SumInPlaceScalar(double* x, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double v = std::exp(ClampExpArg(x[i] - 1.0));
    x[i] = v;
    sum += v;
  }
  return sum;
}

void LnScalar(const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] = std::log(x[i]);
}

double NegXLogXSumScalar(const double* v, size_t n) {
  // Branch-free select, mirroring the vector tables' lane mask: entries
  // <= 0 (and NaN) contribute exactly 0.0, so scalar/AVX parity holds at
  // <= 1e-12 even for subnormal inputs.
  double h = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    const double term = x > 0.0 ? x * std::log(x) : 0.0;
    h -= term;
  }
  return h;
}

double KlDivergenceScalar(const double* p, const double* q, size_t n,
                          double q_floor) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double qf = std::max(q[i], q_floor);
    const double term = p[i] > 0.0 ? p[i] * std::log(p[i] / qf) : 0.0;
    s += term;
  }
  return s;
}

double DotScalar(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void AxpyScalar(double alpha, const double* x, double* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaledAddScalar(const double* a, double s, const double* d, double* out,
                     size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] + s * d[i];
}

void ScaleScalar(double* v, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] *= s;
}

double SumSquaresScalar(const double* v, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += v[i] * v[i];
  return s;
}

double InfNormScalar(const double* v, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

// --------------------------------------------- Cephes ln coefficients
// Shared by the AVX2 and AVX-512 ln kernels. P is degree 5 (highest
// first); Q is monic degree 5 with the leading 1 implicit. The two-part
// ln 2 (0.693359375 − 2.1219e-4) recombines the exponent exactly.

constexpr double kLnP0 = 1.01875663804580931796e-4;
constexpr double kLnP1 = 4.97494994976747001425e-1;
constexpr double kLnP2 = 4.70579119878881725854e0;
constexpr double kLnP3 = 1.44989225341610930846e1;
constexpr double kLnP4 = 1.79368678507819816313e1;
constexpr double kLnP5 = 7.70838733755885391666e0;
constexpr double kLnQ0 = 1.12873587189167450590e1;
constexpr double kLnQ1 = 4.52279145837532221105e1;
constexpr double kLnQ2 = 8.29875266912776603211e1;
constexpr double kLnQ3 = 7.11544750618563894466e1;
constexpr double kLnQ4 = 2.31251620126765340583e1;
constexpr double kSqrtHalf = 0.70710678118654752440;
constexpr double kLn2Hi = 0.693359375;
constexpr double kLn2Lo = -2.121944400546905827679e-4;
constexpr double kMinNormal = 2.2250738585072014e-308;
constexpr double kTwoPow54 = 1.8014398509481984e16;

// -------------------------------------------------------- AVX2+FMA path

#if PME_VEC_X86
#define PME_TARGET_AVX2 __attribute__((target("avx2,fma")))

PME_TARGET_AVX2 inline double Hsum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

PME_TARGET_AVX2 inline double Hmax(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

PME_TARGET_AVX2 inline __m256d ClampExpArgPd(__m256d x) {
  // Constant-first operand order: MINPD/MAXPD return the *second* operand
  // when either is NaN, so a NaN input propagates like the scalar path.
  const __m256d hi = _mm256_set1_pd(kExpClamp);
  const __m256d lo = _mm256_set1_pd(-kExpClamp);
  return _mm256_max_pd(lo, _mm256_min_pd(hi, x));
}

/// exp of four clamped exponents.
PME_TARGET_AVX2 inline __m256d ExpPd(__m256d t) {
  const __m256d log2e = _mm256_set1_pd(1.44269504088896340736);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d p0 = _mm256_set1_pd(1.26177193074810590878e-4);
  const __m256d p1 = _mm256_set1_pd(3.02994407707441961300e-2);
  const __m256d p2 = _mm256_set1_pd(9.99999999999999999910e-1);
  const __m256d q0 = _mm256_set1_pd(3.00198505138664455042e-6);
  const __m256d q1 = _mm256_set1_pd(2.52448340349684104192e-3);
  const __m256d q2 = _mm256_set1_pd(2.27265548208155028766e-1);
  const __m256d q3 = _mm256_set1_pd(2.00000000000000000005e0);
  const __m256d one = _mm256_set1_pd(1.0);

  const __m256d k = _mm256_round_pd(
      _mm256_mul_pd(t, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(k, ln2_hi, t);
  r = _mm256_fnmadd_pd(k, ln2_lo, r);
  const __m256d r2 = _mm256_mul_pd(r, r);

  // exp(r) = 1 + 2 r P(r²) / (Q(r²) − r P(r²)).
  __m256d px = _mm256_fmadd_pd(p0, r2, p1);
  px = _mm256_fmadd_pd(px, r2, p2);
  px = _mm256_mul_pd(px, r);
  __m256d qx = _mm256_fmadd_pd(q0, r2, q1);
  qx = _mm256_fmadd_pd(qx, r2, q2);
  qx = _mm256_fmadd_pd(qx, r2, q3);
  const __m256d e = _mm256_add_pd(
      one, _mm256_div_pd(_mm256_add_pd(px, px), _mm256_sub_pd(qx, px)));

  // 2^k reconstructed in the exponent field. |k| <= 1022 after the ±708
  // clamp, so the biased exponent stays inside the normal range.
  const __m256i k64 = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(k));
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(k64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(e, _mm256_castsi256_pd(bits));
}

/// ln of four doubles, Cephes rational kernel + IEEE special cases.
PME_TARGET_AVX2 inline __m256d LnPd(__m256d x) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());

  // Denormals: pre-scale by 2^54 and debit the exponent, preserving full
  // relative accuracy instead of flushing to zero.
  const __m256d is_denorm = _mm256_and_pd(
      _mm256_cmp_pd(x, _mm256_set1_pd(kMinNormal), _CMP_LT_OQ),
      _mm256_cmp_pd(x, zero, _CMP_GT_OQ));
  const __m256d xs = _mm256_blendv_pd(
      x, _mm256_mul_pd(x, _mm256_set1_pd(kTwoPow54)), is_denorm);
  const __m256d e_debit =
      _mm256_blendv_pd(zero, _mm256_set1_pd(54.0), is_denorm);

  // frexp in the bit domain: e from the biased exponent field, mantissa
  // forced into [0.5, 1) by overwriting the exponent with 0x3fe.
  const __m256i bits = _mm256_castpd_si256(xs);
  const __m256i exp_raw = _mm256_and_si256(_mm256_srli_epi64(bits, 52),
                                           _mm256_set1_epi64x(0x7ff));
  // Small non-negative int64 -> double via the 2^52 magic-number trick
  // (no 64-bit cvt instruction below AVX-512DQ).
  const __m256i magic = _mm256_set1_epi64x(0x4330000000000000LL);
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(exp_raw, magic)),
      _mm256_castsi256_pd(magic));
  e = _mm256_sub_pd(e, _mm256_set1_pd(1022.0));
  e = _mm256_sub_pd(e, e_debit);

  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3fe0000000000000LL)));

  // √½ branch as a lane mask: m < √½ halves the exponent's step so the
  // reduced argument stays in (√½ − 1, √2 − 1].
  const __m256d lt = _mm256_cmp_pd(m, _mm256_set1_pd(kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_sub_pd(e, _mm256_and_pd(lt, one));
  m = _mm256_blendv_pd(_mm256_sub_pd(m, one),
                       _mm256_sub_pd(_mm256_add_pd(m, m), one), lt);

  const __m256d z = _mm256_mul_pd(m, m);
  __m256d px = _mm256_set1_pd(kLnP0);
  px = _mm256_fmadd_pd(px, m, _mm256_set1_pd(kLnP1));
  px = _mm256_fmadd_pd(px, m, _mm256_set1_pd(kLnP2));
  px = _mm256_fmadd_pd(px, m, _mm256_set1_pd(kLnP3));
  px = _mm256_fmadd_pd(px, m, _mm256_set1_pd(kLnP4));
  px = _mm256_fmadd_pd(px, m, _mm256_set1_pd(kLnP5));
  __m256d qx = _mm256_add_pd(m, _mm256_set1_pd(kLnQ0));
  qx = _mm256_fmadd_pd(qx, m, _mm256_set1_pd(kLnQ1));
  qx = _mm256_fmadd_pd(qx, m, _mm256_set1_pd(kLnQ2));
  qx = _mm256_fmadd_pd(qx, m, _mm256_set1_pd(kLnQ3));
  qx = _mm256_fmadd_pd(qx, m, _mm256_set1_pd(kLnQ4));

  __m256d y =
      _mm256_div_pd(_mm256_mul_pd(_mm256_mul_pd(m, z), px), qx);
  y = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Lo), y);
  y = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, y);
  __m256d r = _mm256_add_pd(m, y);
  r = _mm256_fmadd_pd(e, _mm256_set1_pd(kLn2Hi), r);

  // IEEE specials, blended in precedence order: ±0 -> −Inf, x<0 -> NaN,
  // +Inf -> +Inf, NaN passes through.
  r = _mm256_blendv_pd(r, _mm256_set1_pd(
                              -std::numeric_limits<double>::infinity()),
                       _mm256_cmp_pd(x, zero, _CMP_EQ_OQ));
  r = _mm256_blendv_pd(
      r, _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()),
      _mm256_cmp_pd(x, zero, _CMP_LT_OQ));
  r = _mm256_blendv_pd(r, inf, _mm256_cmp_pd(x, inf, _CMP_EQ_OQ));
  r = _mm256_blendv_pd(r, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
  return r;
}

PME_TARGET_AVX2 double ExpM1SumInPlaceAvx2(double* x, size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t =
        ClampExpArgPd(_mm256_sub_pd(_mm256_loadu_pd(x + i), one));
    const __m256d e = ExpPd(t);
    _mm256_storeu_pd(x + i, e);
    acc = _mm256_add_pd(acc, e);
  }
  double sum = Hsum(acc);
  for (; i < n; ++i) {
    const double v = std::exp(ClampExpArg(x[i] - 1.0));
    x[i] = v;
    sum += v;
  }
  return sum;
}

// Below this length the Cephes constant setup costs more than the 4-wide
// win, so the log-family AVX2 kernels hand short inputs (per-q posterior
// rows are num_sa ≈ 16 wide) straight to the scalar bodies. The AVX-512
// tier keeps its masked path: two iterations cover such rows outright.
constexpr size_t kAvx2LogKernelCutover = 32;

PME_TARGET_AVX2 void LnAvx2(const double* x, double* y, size_t n) {
  if (n < kAvx2LogKernelCutover) return LnScalar(x, y, n);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(y + i, LnPd(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) y[i] = std::log(x[i]);
}

PME_TARGET_AVX2 double NegXLogXSumAvx2(const double* v, size_t n) {
  if (n < kAvx2LogKernelCutover) return NegXLogXSumScalar(v, n);
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    // x·ln x with x <= 0 (and NaN) lanes masked to exactly 0, matching
    // the branch-free scalar select.
    const __m256d term = _mm256_and_pd(_mm256_mul_pd(x, LnPd(x)),
                                       _mm256_cmp_pd(x, zero, _CMP_GT_OQ));
    acc = _mm256_add_pd(acc, term);
  }
  double h = -Hsum(acc);
  for (; i < n; ++i) {
    const double x = v[i];
    const double term = x > 0.0 ? x * std::log(x) : 0.0;
    h -= term;
  }
  return h;
}

PME_TARGET_AVX2 double KlDivergenceAvx2(const double* p, const double* q,
                                        size_t n, double q_floor) {
  if (n < kAvx2LogKernelCutover) return KlDivergenceScalar(p, q, n, q_floor);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d floor_v = _mm256_set1_pd(q_floor);
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d pv = _mm256_loadu_pd(p + i);
    // max(floor, q): MAXPD returns the second operand on NaN, matching
    // std::max(q[i], q_floor)'s NaN-q passthrough.
    const __m256d qf = _mm256_max_pd(floor_v, _mm256_loadu_pd(q + i));
    const __m256d term =
        _mm256_and_pd(_mm256_mul_pd(pv, LnPd(_mm256_div_pd(pv, qf))),
                      _mm256_cmp_pd(pv, zero, _CMP_GT_OQ));
    acc = _mm256_add_pd(acc, term);
  }
  double s = Hsum(acc);
  for (; i < n; ++i) {
    const double qf = std::max(q[i], q_floor);
    const double term = p[i] > 0.0 ? p[i] * std::log(p[i] / qf) : 0.0;
    s += term;
  }
  return s;
}

PME_TARGET_AVX2 double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double sum = Hsum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

PME_TARGET_AVX2 void AxpyAvx2(double alpha, const double* x, double* y,
                              size_t n) {
  const __m256d a = _mm256_set1_pd(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(a, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

PME_TARGET_AVX2 void ScaledAddAvx2(const double* a, double s, const double* d,
                                   double* out, size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, _mm256_fmadd_pd(sv, _mm256_loadu_pd(d + i),
                                 _mm256_loadu_pd(a + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + s * d[i];
}

PME_TARGET_AVX2 void ScaleAvx2(double* v, double s, size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(sv, _mm256_loadu_pd(v + i)));
  }
  for (; i < n; ++i) v[i] *= s;
}

PME_TARGET_AVX2 double SumSquaresAvx2(const double* v, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    acc = _mm256_fmadd_pd(x, x, acc);
  }
  double sum = Hsum(acc);
  for (; i < n; ++i) sum += v[i] * v[i];
  return sum;
}

PME_TARGET_AVX2 double InfNormAvx2(const double* v, size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, _mm256_and_pd(abs_mask, _mm256_loadu_pd(v + i)));
  }
  double m = Hmax(acc);
  for (; i < n; ++i) m = std::max(m, std::fabs(v[i]));
  return m;
}

#undef PME_TARGET_AVX2

// ------------------------------------------------------- AVX-512F/DQ path
// Same algorithms widened to 8 lanes. Every remainder is handled with an
// opmask ((1 << rem) − 1) on the loads/stores and the accumulate, so no
// kernel on this tier falls back to a scalar loop — the masked iteration
// costs the same as a full one.

#define PME_TARGET_AVX512 __attribute__((target("avx512f,avx512dq")))

PME_TARGET_AVX512 inline __m512d ClampExpArgPd512(__m512d x) {
  // Constant-first operand order, as in the AVX2 table: MIN/MAXPD return
  // the second operand on NaN, so NaN inputs propagate.
  const __m512d hi = _mm512_set1_pd(kExpClamp);
  const __m512d lo = _mm512_set1_pd(-kExpClamp);
  return _mm512_max_pd(lo, _mm512_min_pd(hi, x));
}

/// exp of eight clamped exponents.
PME_TARGET_AVX512 inline __m512d ExpPd512(__m512d t) {
  const __m512d log2e = _mm512_set1_pd(1.44269504088896340736);
  const __m512d ln2_hi = _mm512_set1_pd(6.93145751953125e-1);
  const __m512d ln2_lo = _mm512_set1_pd(1.42860682030941723212e-6);
  const __m512d p0 = _mm512_set1_pd(1.26177193074810590878e-4);
  const __m512d p1 = _mm512_set1_pd(3.02994407707441961300e-2);
  const __m512d p2 = _mm512_set1_pd(9.99999999999999999910e-1);
  const __m512d q0 = _mm512_set1_pd(3.00198505138664455042e-6);
  const __m512d q1 = _mm512_set1_pd(2.52448340349684104192e-3);
  const __m512d q2 = _mm512_set1_pd(2.27265548208155028766e-1);
  const __m512d q3 = _mm512_set1_pd(2.00000000000000000005e0);
  const __m512d one = _mm512_set1_pd(1.0);

  const __m512d k = _mm512_roundscale_pd(
      _mm512_mul_pd(t, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(k, ln2_hi, t);
  r = _mm512_fnmadd_pd(k, ln2_lo, r);
  const __m512d r2 = _mm512_mul_pd(r, r);

  __m512d px = _mm512_fmadd_pd(p0, r2, p1);
  px = _mm512_fmadd_pd(px, r2, p2);
  px = _mm512_mul_pd(px, r);
  __m512d qx = _mm512_fmadd_pd(q0, r2, q1);
  qx = _mm512_fmadd_pd(qx, r2, q2);
  qx = _mm512_fmadd_pd(qx, r2, q3);
  const __m512d e = _mm512_add_pd(
      one, _mm512_div_pd(_mm512_add_pd(px, px), _mm512_sub_pd(qx, px)));

  // 2^k via the exponent field; AVX-512DQ has the direct 64-bit convert.
  const __m512i k64 = _mm512_cvtpd_epi64(k);
  const __m512i bits =
      _mm512_slli_epi64(_mm512_add_epi64(k64, _mm512_set1_epi64(1023)), 52);
  return _mm512_mul_pd(e, _mm512_castsi512_pd(bits));
}

/// ln of eight doubles; same Cephes kernel as LnPd with opmask blends.
PME_TARGET_AVX512 inline __m512d LnPd512(__m512d x) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d one = _mm512_set1_pd(1.0);
  const __m512d inf = _mm512_set1_pd(std::numeric_limits<double>::infinity());

  const __mmask8 is_denorm =
      _mm512_cmp_pd_mask(x, _mm512_set1_pd(kMinNormal), _CMP_LT_OQ) &
      _mm512_cmp_pd_mask(x, zero, _CMP_GT_OQ);
  const __m512d xs =
      _mm512_mask_mul_pd(x, is_denorm, x, _mm512_set1_pd(kTwoPow54));
  const __m512d e_debit =
      _mm512_mask_blend_pd(is_denorm, zero, _mm512_set1_pd(54.0));

  const __m512i bits = _mm512_castpd_si512(xs);
  const __m512i exp_raw = _mm512_and_epi64(_mm512_srli_epi64(bits, 52),
                                           _mm512_set1_epi64(0x7ff));
  __m512d e = _mm512_cvtepi64_pd(exp_raw);
  e = _mm512_sub_pd(e, _mm512_set1_pd(1022.0));
  e = _mm512_sub_pd(e, e_debit);

  __m512d m = _mm512_castsi512_pd(_mm512_or_epi64(
      _mm512_and_epi64(bits, _mm512_set1_epi64(0x000fffffffffffffLL)),
      _mm512_set1_epi64(0x3fe0000000000000LL)));

  const __mmask8 lt =
      _mm512_cmp_pd_mask(m, _mm512_set1_pd(kSqrtHalf), _CMP_LT_OQ);
  e = _mm512_mask_sub_pd(e, lt, e, one);
  m = _mm512_mask_blend_pd(lt, _mm512_sub_pd(m, one),
                           _mm512_sub_pd(_mm512_add_pd(m, m), one));

  const __m512d z = _mm512_mul_pd(m, m);
  __m512d px = _mm512_set1_pd(kLnP0);
  px = _mm512_fmadd_pd(px, m, _mm512_set1_pd(kLnP1));
  px = _mm512_fmadd_pd(px, m, _mm512_set1_pd(kLnP2));
  px = _mm512_fmadd_pd(px, m, _mm512_set1_pd(kLnP3));
  px = _mm512_fmadd_pd(px, m, _mm512_set1_pd(kLnP4));
  px = _mm512_fmadd_pd(px, m, _mm512_set1_pd(kLnP5));
  __m512d qx = _mm512_add_pd(m, _mm512_set1_pd(kLnQ0));
  qx = _mm512_fmadd_pd(qx, m, _mm512_set1_pd(kLnQ1));
  qx = _mm512_fmadd_pd(qx, m, _mm512_set1_pd(kLnQ2));
  qx = _mm512_fmadd_pd(qx, m, _mm512_set1_pd(kLnQ3));
  qx = _mm512_fmadd_pd(qx, m, _mm512_set1_pd(kLnQ4));

  __m512d y = _mm512_div_pd(_mm512_mul_pd(_mm512_mul_pd(m, z), px), qx);
  y = _mm512_fmadd_pd(e, _mm512_set1_pd(kLn2Lo), y);
  y = _mm512_fnmadd_pd(_mm512_set1_pd(0.5), z, y);
  __m512d r = _mm512_add_pd(m, y);
  r = _mm512_fmadd_pd(e, _mm512_set1_pd(kLn2Hi), r);

  r = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(x, zero, _CMP_EQ_OQ), r,
      _mm512_set1_pd(-std::numeric_limits<double>::infinity()));
  r = _mm512_mask_blend_pd(
      _mm512_cmp_pd_mask(x, zero, _CMP_LT_OQ), r,
      _mm512_set1_pd(std::numeric_limits<double>::quiet_NaN()));
  r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, inf, _CMP_EQ_OQ), r, inf);
  r = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q), r, x);
  return r;
}

PME_TARGET_AVX512 inline __mmask8 TailMask(size_t rem) {
  return static_cast<__mmask8>((1u << rem) - 1u);
}

PME_TARGET_AVX512 double ExpM1SumInPlaceAvx512(double* x, size_t n) {
  const __m512d one = _mm512_set1_pd(1.0);
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d t =
        ClampExpArgPd512(_mm512_sub_pd(_mm512_loadu_pd(x + i), one));
    const __m512d e = ExpPd512(t);
    _mm512_storeu_pd(x + i, e);
    acc = _mm512_add_pd(acc, e);
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d t = ClampExpArgPd512(
        _mm512_sub_pd(_mm512_maskz_loadu_pd(m, x + i), one));
    const __m512d e = ExpPd512(t);
    _mm512_mask_storeu_pd(x + i, m, e);
    acc = _mm512_mask_add_pd(acc, m, acc, e);
  }
  return _mm512_reduce_add_pd(acc);
}

PME_TARGET_AVX512 void LnAvx512(const double* x, double* y, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(y + i, LnPd512(_mm512_loadu_pd(x + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    // Dead lanes load as 0 and compute ln(0) = -inf; the masked store
    // discards them.
    _mm512_mask_storeu_pd(y + i, m, LnPd512(_mm512_maskz_loadu_pd(m, x + i)));
  }
}

PME_TARGET_AVX512 double NegXLogXSumAvx512(const double* v, size_t n) {
  const __m512d zero = _mm512_setzero_pd();
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(v + i);
    const __mmask8 pos = _mm512_cmp_pd_mask(x, zero, _CMP_GT_OQ);
    acc = _mm512_add_pd(acc, _mm512_maskz_mul_pd(pos, x, LnPd512(x)));
  }
  if (i < n) {
    // Dead lanes load as 0, fail the x > 0 test, and contribute exactly 0.
    const __m512d x = _mm512_maskz_loadu_pd(TailMask(n - i), v + i);
    const __mmask8 pos = _mm512_cmp_pd_mask(x, zero, _CMP_GT_OQ);
    acc = _mm512_add_pd(acc, _mm512_maskz_mul_pd(pos, x, LnPd512(x)));
  }
  return -_mm512_reduce_add_pd(acc);
}

PME_TARGET_AVX512 double KlDivergenceAvx512(const double* p, const double* q,
                                            size_t n, double q_floor) {
  const __m512d zero = _mm512_setzero_pd();
  const __m512d floor_v = _mm512_set1_pd(q_floor);
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d pv = _mm512_loadu_pd(p + i);
    const __m512d qf = _mm512_max_pd(floor_v, _mm512_loadu_pd(q + i));
    const __mmask8 pos = _mm512_cmp_pd_mask(pv, zero, _CMP_GT_OQ);
    acc = _mm512_add_pd(
        acc, _mm512_maskz_mul_pd(pos, pv, LnPd512(_mm512_div_pd(pv, qf))));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    const __m512d pv = _mm512_maskz_loadu_pd(m, p + i);
    const __m512d qf = _mm512_max_pd(floor_v, _mm512_maskz_loadu_pd(m, q + i));
    const __mmask8 pos = _mm512_cmp_pd_mask(pv, zero, _CMP_GT_OQ);
    acc = _mm512_add_pd(
        acc, _mm512_maskz_mul_pd(pos, pv, LnPd512(_mm512_div_pd(pv, qf))));
  }
  return _mm512_reduce_add_pd(acc);
}

PME_TARGET_AVX512 double DotAvx512(const double* a, const double* b,
                                   size_t n) {
  __m512d acc0 = _mm512_setzero_pd();
  __m512d acc1 = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    // maskz loads zero the dead lanes; 0·0 contributes nothing.
    acc0 = _mm512_fmadd_pd(_mm512_maskz_loadu_pd(m, a + i),
                           _mm512_maskz_loadu_pd(m, b + i), acc0);
  }
  return _mm512_reduce_add_pd(_mm512_add_pd(acc0, acc1));
}

PME_TARGET_AVX512 void AxpyAvx512(double alpha, const double* x, double* y,
                                  size_t n) {
  const __m512d a = _mm512_set1_pd(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(y + i, _mm512_fmadd_pd(a, _mm512_loadu_pd(x + i),
                                            _mm512_loadu_pd(y + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(
        y + i, m,
        _mm512_fmadd_pd(a, _mm512_maskz_loadu_pd(m, x + i),
                        _mm512_maskz_loadu_pd(m, y + i)));
  }
}

PME_TARGET_AVX512 void ScaledAddAvx512(const double* a, double s,
                                       const double* d, double* out,
                                       size_t n) {
  const __m512d sv = _mm512_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i, _mm512_fmadd_pd(sv, _mm512_loadu_pd(d + i),
                                              _mm512_loadu_pd(a + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(
        out + i, m,
        _mm512_fmadd_pd(sv, _mm512_maskz_loadu_pd(m, d + i),
                        _mm512_maskz_loadu_pd(m, a + i)));
  }
}

PME_TARGET_AVX512 void ScaleAvx512(double* v, double s, size_t n) {
  const __m512d sv = _mm512_set1_pd(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_mul_pd(sv, _mm512_loadu_pd(v + i)));
  }
  if (i < n) {
    const __mmask8 m = TailMask(n - i);
    _mm512_mask_storeu_pd(
        v + i, m, _mm512_mul_pd(sv, _mm512_maskz_loadu_pd(m, v + i)));
  }
}

PME_TARGET_AVX512 double SumSquaresAvx512(const double* v, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(v + i);
    acc = _mm512_fmadd_pd(x, x, acc);
  }
  if (i < n) {
    const __m512d x = _mm512_maskz_loadu_pd(TailMask(n - i), v + i);
    acc = _mm512_fmadd_pd(x, x, acc);
  }
  return _mm512_reduce_add_pd(acc);
}

PME_TARGET_AVX512 double InfNormAvx512(const double* v, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_max_pd(acc, _mm512_abs_pd(_mm512_loadu_pd(v + i)));
  }
  if (i < n) {
    // Dead lanes load as 0 — the identity for a |·| maximum.
    acc = _mm512_max_pd(
        acc, _mm512_abs_pd(_mm512_maskz_loadu_pd(TailMask(n - i), v + i)));
  }
  if (n == 0) return 0.0;
  return _mm512_reduce_max_pd(acc);
}

#undef PME_TARGET_AVX512
#endif  // PME_VEC_X86

// --------------------------------------------------------- dispatch table

struct KernelTable {
  double (*exp_m1_sum_inplace)(double*, size_t);
  void (*ln)(const double*, double*, size_t);
  double (*neg_xlogx_sum)(const double*, size_t);
  double (*kl_divergence)(const double*, const double*, size_t, double);
  double (*dot)(const double*, const double*, size_t);
  void (*axpy)(double, const double*, double*, size_t);
  void (*scaled_add)(const double*, double, const double*, double*, size_t);
  void (*scale)(double*, double, size_t);
  double (*sum_squares)(const double*, size_t);
  double (*inf_norm)(const double*, size_t);
  const char* isa;
};

constexpr KernelTable kScalarTable = {
    ExpM1SumInPlaceScalar, LnScalar,         NegXLogXSumScalar,
    KlDivergenceScalar,    DotScalar,        AxpyScalar,
    ScaledAddScalar,       ScaleScalar,      SumSquaresScalar,
    InfNormScalar,         "scalar"};

#if PME_VEC_X86
constexpr KernelTable kAvx2Table = {
    ExpM1SumInPlaceAvx2, LnAvx2,         NegXLogXSumAvx2,
    KlDivergenceAvx2,    DotAvx2,        AxpyAvx2,
    ScaledAddAvx2,       ScaleAvx2,      SumSquaresAvx2,
    InfNormAvx2,         "avx2+fma"};

constexpr KernelTable kAvx512Table = {
    ExpM1SumInPlaceAvx512, LnAvx512,         NegXLogXSumAvx512,
    KlDivergenceAvx512,    DotAvx512,        AxpyAvx512,
    ScaledAddAvx512,       ScaleAvx512,      SumSquaresAvx512,
    InfNormAvx512,         "avx512"};
#endif

SimdMode g_mode = SimdMode::kAuto;
const KernelTable* g_active = &kScalarTable;

bool CpuHasAvx2() {
#if PME_VEC_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

#if PME_VEC_X86
void Cpuid(unsigned leaf, unsigned subleaf, unsigned* eax, unsigned* ebx,
           unsigned* ecx, unsigned* edx) {
  __asm__ volatile("cpuid"
                   : "=a"(*eax), "=b"(*ebx), "=c"(*ecx), "=d"(*edx)
                   : "a"(leaf), "c"(subleaf));
}
#endif

bool CpuHasAvx512() {
#if PME_VEC_X86
  unsigned eax, ebx, ecx, edx;
  // CPUID.1:ECX — OSXSAVE (bit 27) gates XGETBV; AVX (bit 28) sanity.
  Cpuid(1, 0, &eax, &ebx, &ecx, &edx);
  if (!(ecx & (1u << 27)) || !(ecx & (1u << 28))) return false;
  // XCR0 must show the OS saving SSE|AVX|opmask|ZMM_Hi256|Hi16_ZMM state
  // (0xE6): a hypervisor that advertises AVX-512 in CPUID but does not
  // enable the ZMM state would fault on the first 512-bit load.
  unsigned xcr0_lo, xcr0_hi;
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"  // xgetbv
                   : "=a"(xcr0_lo), "=d"(xcr0_hi)
                   : "c"(0));
  if ((xcr0_lo & 0xE6u) != 0xE6u) return false;
  // CPUID.7.0:EBX — AVX512F (bit 16) + AVX512DQ (bit 17, for the 64-bit
  // integer converts in ExpPd512/LnPd512).
  Cpuid(7, 0, &eax, &ebx, &ecx, &edx);
  return (ebx & (1u << 16)) && (ebx & (1u << 17));
#else
  return false;
#endif
}

void ApplyDispatch() {
  const KernelTable* table = &kScalarTable;
#if PME_VEC_X86
  const bool avx2 = CpuHasAvx2();
  const bool avx512 = CpuHasAvx512();
  switch (g_mode) {
    case SimdMode::kOff:
      break;
    case SimdMode::kAvx2:
      if (avx2) table = &kAvx2Table;
      break;
    case SimdMode::kAvx512:
    case SimdMode::kAuto:
      // Best available at or below the requested tier.
      if (avx512) {
        table = &kAvx512Table;
      } else if (avx2) {
        table = &kAvx2Table;
      }
      break;
  }
#endif
  g_active = table;
  int64_t tier = 0;
#if PME_VEC_X86
  if (g_active == &kAvx512Table) {
    tier = 2;
  } else if (g_active == &kAvx2Table) {
    tier = 1;
  }
#endif
  // Registry::Global() is a leaked function-local static, so this is safe
  // even from the pre-main dispatch below.
  metrics::Registry::Global().GetGauge("vec_math.simd_tier").Set(tier);
}

/// Selects the dispatch table before main() runs; SetSimdMode re-selects.
struct DispatchInit {
  DispatchInit() { ApplyDispatch(); }
};
const DispatchInit g_dispatch_init;

}  // namespace

void SetSimdMode(SimdMode mode) {
  g_mode = mode;
  ApplyDispatch();
}

SimdMode GetSimdMode() { return g_mode; }

SimdMode ParseSimdMode(const std::string& value) {
  std::string lower(value.size(), '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    lower[i] = static_cast<char>(
        std::tolower(static_cast<unsigned char>(value[i])));
  }
  if (lower == "off" || lower == "scalar") return SimdMode::kOff;
  if (lower == "avx2") return SimdMode::kAvx2;
  if (lower == "avx512") return SimdMode::kAvx512;
  if (!lower.empty() && lower != "auto") {
    // The flag exists to pin a tier in A/B runs; a typo silently
    // measuring the wrong table would corrupt the comparison, so say
    // something.
    std::fprintf(stderr,
                 "warning: unknown --simd value '%s', using 'auto'\n",
                 value.c_str());
  }
  return SimdMode::kAuto;
}

const char* SimdModeName() { return g_active->isa; }

bool SimdActive() { return g_active != &kScalarTable; }

bool Avx2Supported() { return CpuHasAvx2(); }

bool Avx512Supported() { return CpuHasAvx512(); }

double ExpM1SumInPlace(Span x) {
  return g_active->exp_m1_sum_inplace(x.data, x.size);
}

void Ln(ConstSpan x, Span y) {
  assert(x.size == y.size);
  g_active->ln(x.data, y.data, x.size);
}

double NegXLogXSum(ConstSpan v) {
  return g_active->neg_xlogx_sum(v.data, v.size);
}

double KlDivergence(ConstSpan p, ConstSpan q, double q_floor) {
  assert(p.size == q.size);
  return g_active->kl_divergence(p.data, q.data, p.size, q_floor);
}

double Dot(ConstSpan a, ConstSpan b) {
  assert(a.size == b.size);
  return g_active->dot(a.data, b.data, a.size);
}

void Axpy(double alpha, ConstSpan x, Span y) {
  assert(x.size == y.size);
  g_active->axpy(alpha, x.data, y.data, x.size);
}

void ScaledAdd(ConstSpan a, double s, ConstSpan d, Span out) {
  assert(a.size == d.size && a.size == out.size);
  g_active->scaled_add(a.data, s, d.data, out.data, a.size);
}

void Scale(Span v, double s) { g_active->scale(v.data, s, v.size); }

double SumSquares(ConstSpan v) {
  return g_active->sum_squares(v.data, v.size);
}

double InfNorm(ConstSpan v) { return g_active->inf_norm(v.data, v.size); }

}  // namespace pme::kernels
