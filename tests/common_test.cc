// Tests for src/common: Status/Result, PRNG, math utilities, string
// utilities, the flag parser, and the thread pool.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/hash.h"
#include "common/id_set.h"
#include "common/math_util.h"
#include "common/prng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/team.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/vec_math.h"

namespace pme {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "ok");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "not_found");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInfeasible), "infeasible");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotConverged),
               "not_converged");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNumericalError),
               "numerical_error");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalve(int x, int* out) {
  PME_ASSIGN_OR_RETURN(*out, HalveEven(x));
  return Status::Ok();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseHalve(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalve(7, &out).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------ Prng

TEST(PrngTest, DeterministicForSameSeed) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(PrngTest, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(PrngTest, NextDoubleInUnitInterval) {
  Prng prng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = prng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(PrngTest, NextBoundedCoversRangeWithoutBias) {
  Prng prng(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[prng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(PrngTest, GaussianMomentsAreSane) {
  Prng prng(11);
  double sum = 0.0, sq = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    double g = prng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sq / kDraws, 1.0, 0.02);
}

TEST(PrngTest, CategoricalRespectsWeights) {
  Prng prng(13);
  std::vector<double> w = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[prng.NextCategorical(w)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[0] / double(kDraws), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / double(kDraws), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / double(kDraws), 0.6, 0.01);
}

TEST(PrngTest, ShufflePreservesMultiset) {
  Prng prng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  prng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ------------------------------------------------------------- MathUtil

TEST(MathUtilTest, SafeExpClampsExtremes) {
  EXPECT_TRUE(std::isfinite(SafeExp(1e6)));
  EXPECT_GT(SafeExp(1e6), 1e300);
  EXPECT_GE(SafeExp(-1e6), 0.0);
  EXPECT_NEAR(SafeExp(1.0), std::exp(1.0), 1e-12);
}

TEST(MathUtilTest, XLogXConvention) {
  EXPECT_EQ(XLogX(0.0), 0.0);
  EXPECT_EQ(XLogX(-1.0), 0.0);
  EXPECT_NEAR(XLogX(1.0), 0.0, 1e-15);
  EXPECT_NEAR(XLogX(0.5), 0.5 * std::log(0.5), 1e-15);
}

TEST(MathUtilTest, EntropyUniformIsLogN) {
  std::vector<double> p(8, 1.0 / 8);
  EXPECT_NEAR(Entropy(p), std::log(8.0), 1e-12);
}

TEST(MathUtilTest, EntropyOfPointMassIsZero) {
  EXPECT_NEAR(Entropy({1.0, 0.0, 0.0}), 0.0, 1e-15);
}

TEST(MathUtilTest, KlDivergenceProperties) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.9, 0.1};
  EXPECT_GT(KlDivergence(p, q), 0.0);
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-15);
  // Zero p-entries contribute nothing even against zero q.
  EXPECT_NEAR(KlDivergence({0.0, 1.0}, {0.0, 1.0}), 0.0, 1e-15);
  // Zero q against positive p is floored, not infinite.
  EXPECT_TRUE(std::isfinite(KlDivergence({1.0, 0.0}, {0.0, 1.0})));
}

TEST(MathUtilTest, LogSumExpStability) {
  EXPECT_NEAR(LogSumExp({1000.0, 1000.0}), 1000.0 + std::log(2.0), 1e-9);
  EXPECT_NEAR(LogSumExp({-1000.0, -1000.0}), -1000.0 + std::log(2.0), 1e-9);
  EXPECT_EQ(LogSumExp({}), -std::numeric_limits<double>::infinity());
}

TEST(MathUtilTest, VectorOps) {
  std::vector<double> a = {3.0, -4.0};
  EXPECT_NEAR(TwoNorm(a), 5.0, 1e-15);
  EXPECT_NEAR(InfNorm(a), 4.0, 1e-15);
  std::vector<double> b = {1.0, 2.0};
  EXPECT_NEAR(Dot(a, b), -5.0, 1e-15);
  Axpy(2.0, b, a);  // a = {5, 0}
  EXPECT_NEAR(a[0], 5.0, 1e-15);
  EXPECT_NEAR(a[1], 0.0, 1e-15);
}

TEST(MathUtilTest, NormalizeInPlace) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_TRUE(NormalizeInPlace(v));
  EXPECT_NEAR(v[0], 0.25, 1e-15);
  EXPECT_NEAR(v[1], 0.75, 1e-15);
  std::vector<double> zeros = {0.0, 0.0};
  EXPECT_FALSE(NormalizeInPlace(zeros));
}

TEST(MathUtilTest, BinomialCoefficient) {
  EXPECT_EQ(BinomialCoefficient(8, 0), 1.0);
  EXPECT_EQ(BinomialCoefficient(8, 8), 1.0);
  EXPECT_EQ(BinomialCoefficient(8, 3), 56.0);
  EXPECT_EQ(BinomialCoefficient(8, 9), 0.0);
  EXPECT_EQ(BinomialCoefficient(5, -1), 0.0);
}

// ----------------------------------------------------------- StringUtil

TEST(IdSetTest, MembersAscendAndRankIsThePosition) {
  // Ids across several 64-bit words, inserted out of order and twice.
  const std::vector<uint32_t> inserted = {200, 0, 63, 64, 5, 199, 63, 128, 5};
  IdSet set(201);
  for (uint32_t id : inserted) set.Insert(id);
  set.Seal();
  const std::set<uint32_t> expected(inserted.begin(), inserted.end());
  const std::vector<uint32_t> members = set.Members();
  EXPECT_EQ(members, std::vector<uint32_t>(expected.begin(), expected.end()));
  for (uint32_t id = 0; id <= 200; ++id) {
    EXPECT_EQ(set.Contains(id), expected.count(id) == 1) << id;
  }
  for (uint32_t k = 0; k < members.size(); ++k) {
    EXPECT_EQ(set.Rank(members[k]), k) << members[k];
  }
  EXPECT_TRUE(IdSet(0).Members().empty());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, ParseIntStrict) {
  long long v = 0;
  EXPECT_TRUE(ParseInt("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt(" -7 ", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(ParseInt("4x", &v));
  EXPECT_FALSE(ParseInt("", &v));
}

TEST(StringUtilTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(ParseDouble("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.1, 1.0 / 3.0, 123456.789, 1e-17, 0.0}) {
    double back = 0;
    ASSERT_TRUE(ParseDouble(FormatDouble(v), &back));
    EXPECT_EQ(back, v);
  }
}

// ---------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",   "--k=5",      "--name=fig5",
                        "--full", "positional", "--rate=0.5"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 0), 5);
  EXPECT_EQ(flags.GetString("name", ""), "fig5");
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.5);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsApply) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

// ------------------------------------------------------------------ Team

TEST(TeamTest, EveryForkRunsEachMemberOnce) {
  for (size_t size : {size_t{1}, size_t{2}, size_t{3}}) {
    Team team(size);
    EXPECT_EQ(team.size(), size);
    std::vector<std::atomic<int>> runs(size);
    for (auto& r : runs) r = 0;
    for (int fork = 0; fork < 2000; ++fork) {
      team.Run([&](size_t member) { runs[member].fetch_add(1); });
      // Now and then idle long enough for the helpers to fall asleep.
      if (fork % 500 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    for (size_t m = 0; m < size; ++m) EXPECT_EQ(runs[m].load(), 2000) << m;
  }
}

TEST(TeamTest, HelpersCarryTheBuildersTraceId) {
  trace::TraceIdScope scope(4242);
  Team team(3);
  std::vector<uint64_t> ids(3, 0);
  team.Run([&](size_t member) { ids[member] = trace::CurrentTraceId(); });
  EXPECT_EQ(ids, std::vector<uint64_t>(3, 4242));
}

// Chunked reductions have the same bits for any team size, and a vector
// of at most one chunk reduces exactly as the serial kernel does.
TEST(TeamTest, ReductionsHaveTheSameBitsForAnyTeamSize) {
  Prng prng(11);
  for (size_t n : {size_t{0}, size_t{1}, kTeamChunk - 1, kTeamChunk,
                   kTeamChunk + 1, 5 * kTeamChunk + 17}) {
    std::vector<double> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = prng.NextDouble(-1.0, 1.0) * std::exp(prng.NextDouble(-20, 20));
      b[i] = prng.NextDouble(-1.0, 1.0);
    }
    const auto reduce = [&](size_t size) {
      Team team(size);
      const auto sums = team.SumChunks<2>(n, [&](size_t lo, size_t hi) {
        const kernels::ConstSpan ac(a.data() + lo, hi - lo);
        const kernels::ConstSpan bc(b.data() + lo, hi - lo);
        return std::array<double, 2>{kernels::Dot(ac, bc),
                                     kernels::SumSquares(ac)};
      });
      const double max = team.Max(n, [&](size_t lo, size_t hi) {
        return kernels::InfNorm(kernels::ConstSpan(a.data() + lo, hi - lo));
      });
      return std::array<double, 3>{sums[0], sums[1], max};
    };
    const auto solo = reduce(1);
    for (size_t size : {size_t{2}, size_t{3}, size_t{4}}) {
      const auto team = reduce(size);
      for (size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(std::memcmp(&team[k], &solo[k], sizeof(double)), 0)
            << "n " << n << " size " << size << " reduction " << k;
      }
    }
    if (n <= kTeamChunk) {
      EXPECT_EQ(solo[0], kernels::Dot(a, b)) << n;
      EXPECT_EQ(solo[1], kernels::SumSquares(a)) << n;
      EXPECT_EQ(solo[2], kernels::InfNorm(a)) << n;
    }
  }
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunBatchRunsEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h = 0;
  EXPECT_TRUE(pool.RunBatch(hits.size(), [&hits](size_t i) {
                    hits[i].fetch_add(1);
                  }).ok());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RunBatchIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.RunBatch(1, [&count](size_t) { count.fetch_add(1); }).ok());
  EXPECT_EQ(count.load(), 1);
  EXPECT_TRUE(pool.RunBatch(2, [&count](size_t) { count.fetch_add(1); }).ok());
  EXPECT_EQ(count.load(), 3);
  EXPECT_TRUE(pool.RunBatch(0, [&count](size_t) { count.fetch_add(1); }).ok());
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1, 3, 8}) {
    const size_t n = 257;
    std::vector<int> hits(n, 0);
    ThreadPool::ParallelFor(threads, n, [&hits](size_t i) { hits[i]++; });
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSerialPathPreservesOrder) {
  std::vector<size_t> order;
  ThreadPool::ParallelFor(1, 5, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ResolveThreadsMapsZeroToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(5), 5u);
}

TEST(FlagsTest, NonNumericFallsBackToDefault) {
  const char* argv[] = {"prog", "--k=abc"};
  Flags flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 3), 3);
}

TEST(FlagsTest, UnknownNamesEveryFlagOutsideTheList) {
  const char* argv[] = {"prog", "--threds=4", "--data=x.csv",
                        "--knowlege=k.txt", "positional"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(flags.Unknown({"data", "threads", "knowledge"}),
            (std::vector<std::string>{"knowlege", "threds"}));
  EXPECT_TRUE(flags.Unknown({"data", "threds", "knowlege"}).empty());
  const Status status = flags.Check({"data", "knowledge"}, {"threads"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--knowlege"), std::string::npos)
      << status.message();
}

TEST(FlagsTest, CheckRefusesAMalformedInteger) {
  const char* argv[] = {"prog", "--threads=four", "--ell=5"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Check({"threads"}, {"ell"}).ok());
  const Status status = flags.Check({}, {"threads", "ell"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--threads"), std::string::npos)
      << status.message();
  // An integer flag that was not supplied is not malformed.
  EXPECT_TRUE(flags.Check({"threads"}, {"ell", "repeat"}).ok());
}

// ---------------------------------------------------------------- Hash128

// Golden digests. The solution cache persists nothing today, but its keys
// must stay stable across compilers, platforms and refactors — a silent
// change to the mixer would turn every warm cache cold (or worse, alias
// distinct components). If one of these fails, the hash changed: bump the
// domain tags ("pme.row.v1" etc.) rather than silently re-keying.
TEST(Hash128Test, GoldenEmpty) {
  Hasher128 h;
  EXPECT_EQ(h.Finish().ToHex(), "af2a59084670eb50f5abfd97d5672c76");
}

TEST(Hash128Test, GoldenWordSequence) {
  Hasher128 h;
  h.Update(uint64_t{1});
  h.Update(uint64_t{2});
  h.Update(uint64_t{3});
  EXPECT_EQ(h.Finish().ToHex(), "09889f405272defb2be801244d84834c");
}

TEST(Hash128Test, GoldenString) {
  Hasher128 h;
  h.Update(std::string_view("privacy-maxent"));
  EXPECT_EQ(h.Finish().ToHex(), "5c112397829cf42b84f0c39e2ea7d72a");
}

TEST(Hash128Test, GoldenDoubles) {
  Hasher128 h;
  h.Update(0.25);
  h.Update(-3.5);
  EXPECT_EQ(h.Finish().ToHex(), "6a04a80432c4ab7a68bfb7ffab20bdb9");
}

TEST(Hash128Test, NegativeZeroCanonicalized) {
  Hasher128 a, b;
  a.Update(-0.0);
  b.Update(0.0);
  EXPECT_EQ(a.Finish(), b.Finish());
}

TEST(Hash128Test, OrderAndBoundariesMatter) {
  Hasher128 ab_c, a_bc;
  ab_c.Update(std::string_view("ab"));
  ab_c.Update(std::string_view("c"));
  a_bc.Update(std::string_view("a"));
  a_bc.Update(std::string_view("bc"));
  // Length prefixing keeps concatenation ambiguity out of the digest.
  EXPECT_NE(ab_c.Finish(), a_bc.Finish());

  Hasher128 fwd, rev;
  fwd.Update(uint64_t{7});
  fwd.Update(uint64_t{9});
  rev.Update(uint64_t{9});
  rev.Update(uint64_t{7});
  EXPECT_NE(fwd.Finish(), rev.Finish());
}

TEST(Hash128Test, SingleBitSensitivity) {
  Hasher128 a, b;
  a.Update(uint64_t{0});
  b.Update(uint64_t{1});
  const Hash128 ha = a.Finish(), hb = b.Finish();
  EXPECT_NE(ha, hb);
  // Both words must react — the warm index keys on the full digest but
  // shards on hi and the std-hasher uses lo.
  EXPECT_NE(ha.hi, hb.hi);
  EXPECT_NE(ha.lo, hb.lo);
}

TEST(Hash128Test, ComparisonAndHexFormat) {
  const Hash128 small{1, 2};
  const Hash128 big{2, 1};
  EXPECT_TRUE(small < big);
  EXPECT_FALSE(big < small);
  EXPECT_EQ(small.ToHex().size(), 32u);
  EXPECT_EQ(Hash128{}.ToHex(), std::string(32, '0'));
}

}  // namespace
}  // namespace pme
