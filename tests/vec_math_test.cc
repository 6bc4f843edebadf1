// Property tests for the vectorized kernel layer: AVX2 and scalar paths
// must agree to <= 1e-12 relative error on randomized inputs including
// the ±708 clamp boundaries, and the math_util wrappers built on the
// kernels must handle the degenerate inputs (empty, zeros, denormals).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/math_util.h"
#include "common/prng.h"
#include "common/vec_math.h"

namespace pme {
namespace {

using kernels::ConstSpan;
using kernels::SimdMode;
using kernels::Span;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Restores the dispatch mode on scope exit so one test cannot leak a
/// forced-scalar mode into the rest of the suite.
class SimdModeRestorer {
 public:
  SimdModeRestorer() : saved_(kernels::GetSimdMode()) {}
  ~SimdModeRestorer() { kernels::SetSimdMode(saved_); }

 private:
  SimdMode saved_;
};

/// 1e5 random exponents spanning the interesting ranges: the bulk around
/// typical dual exponents, wide tails, exact and near clamp boundaries.
std::vector<double> RandomExponents(uint64_t seed) {
  Prng prng(seed);
  std::vector<double> xs;
  xs.reserve(100000 + 64);
  for (int i = 0; i < 40000; ++i) xs.push_back(prng.NextDouble(-40.0, 10.0));
  for (int i = 0; i < 30000; ++i) xs.push_back(prng.NextDouble(-760.0, 760.0));
  for (int i = 0; i < 30000; ++i) xs.push_back(prng.NextDouble(-1.0, 1.0));
  const double boundaries[] = {708.0,  -708.0, 707.9999999999, -707.9999999999,
                               708.01, -708.01, 750.0,  -750.0,
                               0.0,    1.0,     -1.0,   1e-300};
  for (double b : boundaries) {
    // The kernels see x - 1; place the boundary on the *clamped* value.
    xs.push_back(b + 1.0);
  }
  return xs;
}

double RelErr(double a, double b) {
  const double denom = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(a - b) / denom;
}

TEST(VecMathTest, DispatchModesAreSwitchable) {
  SimdModeRestorer restore;
  kernels::SetSimdMode(SimdMode::kOff);
  EXPECT_STREQ(kernels::SimdModeName(), "scalar");
  EXPECT_FALSE(kernels::SimdActive());
  kernels::SetSimdMode(SimdMode::kAuto);
  if (kernels::Avx512Supported()) {
    EXPECT_STREQ(kernels::SimdModeName(), "avx512");
    EXPECT_TRUE(kernels::SimdActive());
  } else if (kernels::Avx2Supported()) {
    EXPECT_STREQ(kernels::SimdModeName(), "avx2+fma");
    EXPECT_TRUE(kernels::SimdActive());
  } else {
    EXPECT_STREQ(kernels::SimdModeName(), "scalar");
  }
}

TEST(VecMathTest, ForcedModesFallBackGracefully) {
  // Forcing a tier the host lacks must degrade down the ladder, never
  // crash or dispatch an illegal instruction. On hosts that do have the
  // tier, the force is honored exactly.
  SimdModeRestorer restore;
  kernels::SetSimdMode(SimdMode::kAvx512);
  if (kernels::Avx512Supported()) {
    EXPECT_STREQ(kernels::SimdModeName(), "avx512");
  } else if (kernels::Avx2Supported()) {
    EXPECT_STREQ(kernels::SimdModeName(), "avx2+fma");
  } else {
    EXPECT_STREQ(kernels::SimdModeName(), "scalar");
  }
  kernels::SetSimdMode(SimdMode::kAvx2);
  if (kernels::Avx2Supported()) {
    EXPECT_STREQ(kernels::SimdModeName(), "avx2+fma");
  } else {
    EXPECT_STREQ(kernels::SimdModeName(), "scalar");
  }
  // Whatever mode is forced, the kernels must keep producing correct
  // results (fallback included).
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0};
  std::vector<double> y(x.size());
  kernels::Ln(ConstSpan(x), Span(y));
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(RelErr(y[i], std::log(x[i])), 1e-14) << i;
  }
}

TEST(VecMathTest, ExpKernelsMatchLibmWithin1e12) {
  // Every dispatch tier's in-place exp output vs a plain SafeExp
  // reference — this bounds each polynomial's error against libm directly.
  SimdModeRestorer restore;
  const std::vector<double> xs = RandomExponents(101);
  std::vector<double> reference(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) reference[i] = SafeExp(xs[i] - 1.0);

  for (SimdMode mode : {SimdMode::kOff, SimdMode::kAvx2, SimdMode::kAuto}) {
    kernels::SetSimdMode(mode);
    std::vector<double> y = xs;
    kernels::ExpM1SumInPlace(Span(y));
    double worst = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      worst = std::max(worst, RelErr(y[i], reference[i]));
    }
    EXPECT_LE(worst, 1e-12) << "mode=" << kernels::SimdModeName();
  }
}

TEST(VecMathTest, SimdAndScalarExpPathsAgreeWithin1e12) {
  SimdModeRestorer restore;
  const std::vector<double> xs = RandomExponents(202);
  std::vector<double> scalar = xs, simd = xs;
  kernels::SetSimdMode(SimdMode::kOff);
  kernels::ExpM1SumInPlace(Span(scalar));
  kernels::SetSimdMode(SimdMode::kAuto);
  kernels::ExpM1SumInPlace(Span(simd));
  double worst = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    worst = std::max(worst, RelErr(simd[i], scalar[i]));
  }
  EXPECT_LE(worst, 1e-12);
}

TEST(VecMathTest, FusedExpSumMatchesSeparatePasses) {
  SimdModeRestorer restore;
  // Bounded exponents so the sum itself stays well away from overflow.
  Prng prng(7);
  std::vector<double> xs(4099);
  for (auto& v : xs) v = prng.NextDouble(-30.0, 5.0);

  for (SimdMode mode : {SimdMode::kOff, SimdMode::kAuto}) {
    kernels::SetSimdMode(mode);
    std::vector<double> inplace = xs;
    const double sum = kernels::ExpM1SumInPlace(Span(inplace));
    double expected_sum = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      EXPECT_LE(RelErr(inplace[i], SafeExp(xs[i] - 1.0)), 1e-12)
          << "mode=" << kernels::SimdModeName();
      expected_sum += inplace[i];
    }
    EXPECT_LE(RelErr(sum, expected_sum), 1e-12)
        << "mode=" << kernels::SimdModeName();
  }
}

TEST(VecMathTest, BlasKernelsAgreeAcrossPaths) {
  SimdModeRestorer restore;
  Prng prng(23);
  // Sizes straddling every unroll boundary (0..9, 4k+tail, 8k+tail).
  for (size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 31, 100, 1037}) {
    std::vector<double> a(n), b(n);
    for (auto& v : a) v = prng.NextDouble(-10.0, 10.0);
    for (auto& v : b) v = prng.NextDouble(-10.0, 10.0);

    kernels::SetSimdMode(SimdMode::kOff);
    const double dot_s = kernels::Dot(a, b);
    const double sq_s = kernels::SumSquares(a);
    const double inf_s = kernels::InfNorm(a);
    std::vector<double> axpy_s = b;
    kernels::Axpy(0.37, a, axpy_s);
    std::vector<double> sadd_s(n);
    kernels::ScaledAdd(a, -1.7, b, sadd_s);
    std::vector<double> scale_s = a;
    kernels::Scale(scale_s, 3.25);

    kernels::SetSimdMode(SimdMode::kAuto);
    EXPECT_LE(RelErr(kernels::Dot(a, b), dot_s), 1e-12) << n;
    EXPECT_LE(RelErr(kernels::SumSquares(a), sq_s), 1e-12) << n;
    EXPECT_EQ(kernels::InfNorm(a), inf_s) << n;
    std::vector<double> axpy_v = b;
    kernels::Axpy(0.37, a, axpy_v);
    std::vector<double> sadd_v(n);
    kernels::ScaledAdd(a, -1.7, b, sadd_v);
    std::vector<double> scale_v = a;
    kernels::Scale(scale_v, 3.25);
    for (size_t i = 0; i < n; ++i) {
      // Elementwise FMA ops round once where scalar rounds twice; under
      // cancellation the relative gap grows, but stays far below 1e-12.
      EXPECT_LE(RelErr(axpy_v[i], axpy_s[i]), 1e-12) << n << ":" << i;
      EXPECT_LE(RelErr(sadd_v[i], sadd_s[i]), 1e-12) << n << ":" << i;
      EXPECT_EQ(scale_v[i], scale_s[i]) << n << ":" << i;
    }
  }
}

// ---------------------------------------------- ln / xlogx / KL kernels

/// All four dispatch requests; unsupported tiers fall back down the
/// ladder inside SetSimdMode, so each entry is always safe to force.
const SimdMode kAllModes[] = {SimdMode::kOff, SimdMode::kAvx2,
                              SimdMode::kAvx512, SimdMode::kAuto};

/// 1e5 positive inputs spanning the log-interesting ranges plus every
/// special the kernel blends explicitly: zero, subnormals, the smallest
/// normal, 1 +/- 1 ulp, the sqrt(1/2) mantissa split, and infinity.
std::vector<double> RandomLnInputs(uint64_t seed) {
  Prng prng(seed);
  std::vector<double> xs;
  xs.reserve(100000 + 32);
  for (int i = 0; i < 40000; ++i) {
    xs.push_back(std::exp(prng.NextDouble(-40.0, 10.0)));
  }
  for (int i = 0; i < 30000; ++i) {
    xs.push_back(std::exp(prng.NextDouble(-700.0, 700.0)));
  }
  for (int i = 0; i < 30000; ++i) xs.push_back(prng.NextDouble(0.0, 2.0));
  const double one_up = std::nextafter(1.0, 2.0);
  const double one_down = std::nextafter(1.0, 0.0);
  const double specials[] = {0.0,
                             5e-324,
                             1e-310,
                             2.2250738585072014e-308,  // smallest normal
                             std::nextafter(2.2250738585072014e-308, 0.0),
                             one_up,
                             one_down,
                             1.0,
                             0.70710678118654752440,  // sqrt(1/2) split
                             std::nextafter(0.70710678118654752440, 0.0),
                             std::nextafter(0.70710678118654752440, 1.0),
                             kInf,
                             1e308,
                             4.9406564584124654e-316};
  for (double s : specials) xs.push_back(s);
  return xs;
}

TEST(VecMathTest, LnMatchesLibmWithin1e12AllModes) {
  SimdModeRestorer restore;
  const std::vector<double> xs = RandomLnInputs(401);
  std::vector<double> reference(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) reference[i] = std::log(xs[i]);

  for (SimdMode mode : kAllModes) {
    kernels::SetSimdMode(mode);
    std::vector<double> y(xs.size());
    kernels::Ln(ConstSpan(xs), Span(y));
    double worst = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      if (!std::isfinite(reference[i])) {
        // 0 -> -inf and inf -> inf must match bit-for-bit in every mode.
        EXPECT_EQ(y[i], reference[i])
            << "x=" << xs[i] << " mode=" << kernels::SimdModeName();
        continue;
      }
      worst = std::max(worst, RelErr(y[i], reference[i]));
    }
    EXPECT_LE(worst, 1e-12) << "mode=" << kernels::SimdModeName();
  }
}

TEST(VecMathTest, LnSpecialValuesAllModes) {
  SimdModeRestorer restore;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (SimdMode mode : kAllModes) {
    kernels::SetSimdMode(mode);
    std::vector<double> x = {0.0, -1.0, kInf, nan, -kInf, 1.0, 5e-324};
    std::vector<double> y(x.size());
    kernels::Ln(ConstSpan(x), Span(y));
    EXPECT_EQ(y[0], -kInf) << kernels::SimdModeName();
    EXPECT_TRUE(std::isnan(y[1])) << kernels::SimdModeName();
    EXPECT_EQ(y[2], kInf) << kernels::SimdModeName();
    EXPECT_TRUE(std::isnan(y[3])) << kernels::SimdModeName();
    EXPECT_TRUE(std::isnan(y[4])) << kernels::SimdModeName();
    EXPECT_EQ(y[5], 0.0) << kernels::SimdModeName();
    EXPECT_LE(RelErr(y[6], std::log(5e-324)), 1e-12) << kernels::SimdModeName();
  }
}

TEST(VecMathTest, LnInPlaceAliasingIsAllowed) {
  SimdModeRestorer restore;
  Prng prng(47);
  for (SimdMode mode : kAllModes) {
    kernels::SetSimdMode(mode);
    std::vector<double> x(1037);
    for (auto& v : x) v = std::exp(prng.NextDouble(-20.0, 20.0));
    std::vector<double> separate(x.size());
    kernels::Ln(ConstSpan(x), Span(separate));
    std::vector<double> inplace = x;
    kernels::Ln(ConstSpan(inplace), Span(inplace));
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(inplace[i], separate[i]) << kernels::SimdModeName() << ":" << i;
    }
  }
}

TEST(VecMathTest, NegXLogXSumMatchesScalarWithin1e12) {
  SimdModeRestorer restore;
  Prng prng(53);
  std::vector<double> xs;
  xs.reserve(100000 + 8);
  for (int i = 0; i < 100000; ++i) xs.push_back(prng.NextDouble(0.0, 1.0));
  // Specials: exact zeros, denormals, one, values > 1 (negative terms).
  for (double s : {0.0, 5e-324, 1e-310, 1.0, std::nextafter(1.0, 0.0),
                   std::nextafter(1.0, 2.0), 1.5, -0.25}) {
    xs.push_back(s);
  }
  // Branch-free libm reference.
  double reference = 0.0;
  for (double x : xs) reference -= x > 0.0 ? x * std::log(x) : 0.0;

  for (SimdMode mode : kAllModes) {
    kernels::SetSimdMode(mode);
    EXPECT_LE(RelErr(kernels::NegXLogXSum(ConstSpan(xs)), reference), 1e-12)
        << "mode=" << kernels::SimdModeName();
  }
}

TEST(VecMathTest, KlDivergenceMatchesScalarWithin1e12) {
  SimdModeRestorer restore;
  Prng prng(59);
  const double q_floor = 1e-12;
  std::vector<double> p, q;
  for (int i = 0; i < 100000; ++i) {
    p.push_back(prng.NextDouble(0.0, 1.0));
    q.push_back(prng.NextDouble(0.0, 1.0));
  }
  // p == 0 terms contribute nothing; q below the floor is clamped.
  p.push_back(0.0);      q.push_back(0.5);
  p.push_back(0.25);     q.push_back(0.0);
  p.push_back(0.25);     q.push_back(5e-324);
  p.push_back(5e-324);   q.push_back(0.5);
  p.push_back(-0.1);     q.push_back(0.5);
  double reference = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    const double qf = std::max(q[i], q_floor);
    reference += p[i] > 0.0 ? p[i] * std::log(p[i] / qf) : 0.0;
  }

  for (SimdMode mode : kAllModes) {
    kernels::SetSimdMode(mode);
    EXPECT_LE(RelErr(kernels::KlDivergence(ConstSpan(p), ConstSpan(q),
                                           q_floor),
                     reference),
              1e-12)
        << "mode=" << kernels::SimdModeName();
  }
}

TEST(VecMathTest, MaskedTailSweepsAllResidues) {
  // Every n mod 8 residue (and the mod-4 residues inside them) exercises
  // the masked-tail path of the 8-wide tier and the scalar remainder of
  // the 4-wide tier; all modes must agree with the scalar table.
  SimdModeRestorer restore;
  Prng prng(61);
  for (size_t n = 0; n <= 24; ++n) {
    std::vector<double> x(n), p(n), q(n);
    for (auto& v : x) v = std::exp(prng.NextDouble(-10.0, 10.0));
    for (auto& v : p) v = prng.NextDouble(0.0, 1.0);
    for (auto& v : q) v = prng.NextDouble(0.0, 1.0);

    kernels::SetSimdMode(SimdMode::kOff);
    std::vector<double> ln_s(n);
    kernels::Ln(ConstSpan(x), Span(ln_s));
    const double nxlx_s = kernels::NegXLogXSum(ConstSpan(p));
    const double kl_s = kernels::KlDivergence(ConstSpan(p), ConstSpan(q),
                                              1e-12);

    for (SimdMode mode : {SimdMode::kAvx2, SimdMode::kAvx512,
                          SimdMode::kAuto}) {
      kernels::SetSimdMode(mode);
      std::vector<double> ln_v(n);
      kernels::Ln(ConstSpan(x), Span(ln_v));
      for (size_t i = 0; i < n; ++i) {
        EXPECT_LE(RelErr(ln_v[i], ln_s[i]), 1e-12)
            << kernels::SimdModeName() << " n=" << n << " i=" << i;
      }
      EXPECT_LE(RelErr(kernels::NegXLogXSum(ConstSpan(p)), nxlx_s), 1e-12)
          << kernels::SimdModeName() << " n=" << n;
      EXPECT_LE(RelErr(kernels::KlDivergence(ConstSpan(p), ConstSpan(q),
                                             1e-12),
                       kl_s),
                1e-12)
          << kernels::SimdModeName() << " n=" << n;
    }
  }
}

// ------------------------------------------------- math_util edge cases

TEST(VecMathTest, EntropyEdgeCases) {
  EXPECT_EQ(Entropy({}), 0.0);
  EXPECT_EQ(Entropy({0.0, 0.0}), 0.0);        // 0 ln 0 = 0
  EXPECT_EQ(Entropy({1.0}), 0.0);             // point mass
  EXPECT_NEAR(Entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  // Denormals: x ln x underflows smoothly to ~0, never NaN.
  const double denorm = 5e-324;
  const double h = Entropy({denorm, 1.0 - denorm});
  EXPECT_TRUE(std::isfinite(h));
  EXPECT_GE(h, 0.0);
  // Negative entries follow the <= 0 convention (contribute zero).
  EXPECT_EQ(Entropy({-0.5, 1.0}), 0.0);
}

}  // namespace
}  // namespace pme
