// Incremental re-analysis: the component solution cache (exact-hit reuse
// and warm-started re-solves), its LRU/budget mechanics, and the parity
// contract — a cached or warm-started analysis must return the same
// posterior as a cold solve, for every thread count.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/term_index.h"
#include "core/posterior.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/miner.h"
#include "maxent/block_plan.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"
#include "maxent/solver.h"
#include "test_util.h"
#include "tests/support/experiment.h"

namespace pme {
namespace {

using constraints::LinearConstraint;
using core::AnalysisOptions;
using core::AnalyzeWithRules;
using core::ExperimentPipeline;
using maxent::CachedComponentSolution;
using maxent::CacheMode;
using maxent::SolutionCache;

// ------------------------------------------------------ SolutionCache unit

CachedComponentSolution MakeSolution(size_t n, double fill) {
  CachedComponentSolution s;
  s.p.assign(n, fill);
  s.dual_value = fill;
  s.iterations = n;
  return s;
}

// Keys with hi ≡ 0 (mod 16) all land in shard 0, so one shard's LRU and
// budget can be exercised deterministically.
Hash128 Shard0Key(uint64_t id) { return Hash128{id * 16, id}; }

TEST(SolutionCacheTest, ExactRoundTrip) {
  SolutionCache cache;
  const Hash128 key{1, 2}, vars{3, 4};
  EXPECT_EQ(cache.FindExact(key), nullptr);
  cache.Insert(key, vars, MakeSolution(5, 0.5));
  auto hit = cache.FindExact(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->p.size(), 5u);
  EXPECT_DOUBLE_EQ(hit->p[0], 0.5);

  const auto stats = cache.Stats();
  EXPECT_EQ(stats.exact_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_doubles, 5u);
}

TEST(SolutionCacheTest, WarmLookupFindsLatestWithSameStructure) {
  SolutionCache cache;
  const Hash128 vars{9, 9};
  cache.Insert(Hash128{1, 1}, vars, MakeSolution(3, 0.1));
  cache.Insert(Hash128{2, 2}, vars, MakeSolution(3, 0.2));
  auto warm = cache.FindWarm(vars);
  ASSERT_NE(warm, nullptr);
  // The warm index points at the most recent insert for that structure.
  EXPECT_DOUBLE_EQ(warm->p[0], 0.2);
  EXPECT_EQ(cache.Stats().warm_hits, 1u);
  EXPECT_EQ(cache.FindWarm(Hash128{8, 8}), nullptr);
}

TEST(SolutionCacheTest, LruEvictionHonorsBudget) {
  // 100 doubles per shard: two 60-double entries cannot coexist.
  SolutionCache cache(16 * 100 * sizeof(double));
  cache.Insert(Shard0Key(1), Hash128{0, 101}, MakeSolution(60, 1.0));
  cache.Insert(Shard0Key(2), Hash128{0, 102}, MakeSolution(60, 2.0));
  EXPECT_EQ(cache.FindExact(Shard0Key(1)), nullptr);  // LRU, evicted
  EXPECT_NE(cache.FindExact(Shard0Key(2)), nullptr);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_LE(stats.resident_doubles, 100u);
}

TEST(SolutionCacheTest, ExactHitRefreshesLruPosition) {
  SolutionCache cache(16 * 100 * sizeof(double));
  cache.Insert(Shard0Key(1), Hash128{0, 101}, MakeSolution(40, 1.0));
  cache.Insert(Shard0Key(2), Hash128{0, 102}, MakeSolution(40, 2.0));
  // Touch entry 1 so entry 2 becomes least recently used...
  EXPECT_NE(cache.FindExact(Shard0Key(1)), nullptr);
  // ...then overflow the shard: entry 2 must go, entry 1 must stay.
  cache.Insert(Shard0Key(3), Hash128{0, 103}, MakeSolution(40, 3.0));
  EXPECT_NE(cache.FindExact(Shard0Key(1)), nullptr);
  EXPECT_EQ(cache.FindExact(Shard0Key(2)), nullptr);
  EXPECT_NE(cache.FindExact(Shard0Key(3)), nullptr);
}

TEST(SolutionCacheTest, WarmIndexDropsDanglingPointerAfterEviction) {
  SolutionCache cache(16 * 100 * sizeof(double));
  const Hash128 vars{0, 7};
  cache.Insert(Shard0Key(1), vars, MakeSolution(60, 1.0));
  cache.Insert(Shard0Key(2), Hash128{0, 8}, MakeSolution(60, 2.0));
  // Entry 1 was evicted; its warm pointer must resolve to null (and be
  // dropped) rather than to freed memory.
  EXPECT_EQ(cache.FindWarm(vars), nullptr);
  EXPECT_EQ(cache.Stats().warm_hits, 0u);
}

TEST(SolutionCacheTest, ReplacingAnEntryUpdatesResidency) {
  SolutionCache cache;
  const Hash128 key{5, 5}, vars{6, 6};
  cache.Insert(key, vars, MakeSolution(50, 1.0));
  cache.Insert(key, vars, MakeSolution(10, 2.0));
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_doubles, 10u);
  EXPECT_DOUBLE_EQ(cache.FindExact(key)->p[0], 2.0);
}

TEST(SolutionCacheTest, ClearDropsEntriesKeepsCensus) {
  SolutionCache cache;
  cache.Insert(Hash128{1, 1}, Hash128{2, 2}, MakeSolution(4, 1.0));
  EXPECT_NE(cache.FindExact(Hash128{1, 1}), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_EQ(cache.Stats().resident_doubles, 0u);
  EXPECT_EQ(cache.FindExact(Hash128{1, 1}), nullptr);
  EXPECT_EQ(cache.Stats().insertions, 1u);  // census survives Clear
}

TEST(SolutionCacheTest, DestroyedCachesReturnTheirResidentDoubles) {
  const metrics::Gauge& gauge =
      metrics::Registry::Global().GetGauge("cache.resident_doubles");
  const int64_t before = gauge.Value();
  for (uint64_t i = 0; i < 3; ++i) {
    SolutionCache cache;
    cache.Insert(Hash128{i, i}, Hash128{i, i + 1}, MakeSolution(100, 1.0));
    EXPECT_EQ(gauge.Value(), before + 100);
  }
  EXPECT_EQ(gauge.Value(), before);
}

// --------------------------------------------------- pipeline-level parity

core::PipelineOptions SmallPipeline() {
  core::PipelineOptions options;
  options.data.num_records = 600;
  options.data.seed = 424242;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  return options;
}

class IncrementalPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new ExperimentPipeline(
        core::BuildPipeline(SmallPipeline()).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static std::vector<knowledge::AssociationRule> Rules() {
    return knowledge::TopK(pipeline_->rules, 10, 10);
  }
  /// A smaller knowledge set for the thread-count parity sweep: three
  /// coupled components; the toggle below touches exactly one of them.
  static std::vector<knowledge::AssociationRule> ParityRules() {
    return knowledge::TopK(pipeline_->rules, 2, 2);
  }
  /// The single-statement edit: one rule's asserted conditional moves by
  /// a point. Same support, same component structure, different rows.
  static std::vector<knowledge::AssociationRule> Toggle(
      std::vector<knowledge::AssociationRule> rules) {
    rules[0].conditional = rules[0].conditional <= 0.5
                               ? rules[0].conditional + 0.01
                               : rules[0].conditional - 0.01;
    return rules;
  }
  static std::vector<knowledge::AssociationRule> ToggledRules() {
    return Toggle(Rules());
  }
  static AnalysisOptions CacheOptions(SolutionCache* cache, size_t threads) {
    AnalysisOptions options;
    options.solver_options.threads = threads;
    // The parity bound is on the *posterior conditionals*, which divide
    // the joint by P(q) and so amplify joint-space residuals by ~1/P(q).
    // The dual residual tolerance must sit well below the 1e-8 parity
    // bound for the amplified difference to stay under it, with an
    // iteration budget to get there.
    options.solver_options.tolerance = 1e-11;
    options.solver_options.max_iterations = 100000;
    options.solver_options.solution_cache = cache;
    options.solver_options.cache_mode = CacheMode::kWarm;
    return options;
  }
  static double MaxAbsDiff(const std::vector<double>& a,
                           const std::vector<double>& b) {
    EXPECT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      worst = std::max(worst, std::fabs(a[i] - b[i]));
    }
    return worst;
  }

  static ExperimentPipeline* pipeline_;
};

ExperimentPipeline* IncrementalPipelineTest::pipeline_ = nullptr;

TEST_F(IncrementalPipelineTest, ExactRerunSkipsEverySolve) {
  SolutionCache cache;
  const auto options = CacheOptions(&cache, 1);
  auto cold = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();
  auto rerun = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();

  ASSERT_GT(cold.decomposition.num_coupled_components, 0u);
  EXPECT_EQ(cold.solver.cache_exact_hits, 0u);
  EXPECT_EQ(cold.solver.cache_misses,
            cold.decomposition.num_coupled_components);
  // Every block answered from the cache: zero solver iterations, and the
  // posterior is bit-identical (scattered, not re-solved).
  EXPECT_EQ(rerun.solver.cache_exact_hits,
            cold.decomposition.num_coupled_components);
  EXPECT_EQ(rerun.solver.cache_misses, 0u);
  EXPECT_EQ(rerun.solver.iterations, 0u);
  EXPECT_EQ(MaxAbsDiff(maxent::MaterializeJoint(cold.solver),
                       maxent::MaterializeJoint(rerun.solver)),
            0.0);
  EXPECT_TRUE(rerun.solver.cache_enabled);
  for (const auto& outcome : rerun.solver.component_outcomes) {
    EXPECT_EQ(outcome.cache, maxent::CacheOutcome::kExactHit);
    EXPECT_EQ(outcome.iterations, 0u);
  }
}

TEST_F(IncrementalPipelineTest, WarmEqualsColdForEveryThreadCount) {
  // The parity contract: a warm-started re-solve of an edited knowledge
  // set returns the cold posterior to 1e-8, for serial and parallel block
  // scheduling alike.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SolutionCache cache;
    const auto options = CacheOptions(&cache, threads);
    // Populate the cache with the original knowledge...
    auto seeded =
        AnalyzeWithRules(*pipeline_, ParityRules(), options).ValueOrDie();
    // ...then re-analyze the edited set warm, and cold on a fresh cache.
    auto warm = AnalyzeWithRules(*pipeline_, Toggle(ParityRules()), options)
                    .ValueOrDie();
    SolutionCache fresh;
    auto cold = AnalyzeWithRules(*pipeline_, Toggle(ParityRules()),
                                 CacheOptions(&fresh, threads))
                    .ValueOrDie();

    EXPECT_GE(warm.solver.cache_exact_hits + warm.solver.cache_warm_hits, 1u)
        << "threads=" << threads;
    EXPECT_LE(MaxAbsDiff(maxent::MaterializeJoint(warm.solver),
                         maxent::MaterializeJoint(cold.solver)),
              1e-8)
        << "threads=" << threads;
    double worst_posterior = 0.0;
    for (uint32_t q = 0; q < warm.posterior.num_qi(); ++q) {
      for (uint32_t s = 0; s < warm.posterior.num_sa(); ++s) {
        worst_posterior = std::max(
            worst_posterior, std::fabs(warm.posterior.Conditional(q, s) -
                                       cold.posterior.Conditional(q, s)));
      }
    }
    EXPECT_LE(worst_posterior, 1e-8) << "threads=" << threads;
    // The warm start must not cost iterations: the edited component
    // restarts near its optimum, every untouched component exact-hits.
    EXPECT_LE(warm.solver.iterations, cold.solver.iterations)
        << "threads=" << threads;
    (void)seeded;
  }
}

TEST_F(IncrementalPipelineTest, KnowledgeToggleSequenceStaysConsistent) {
  // The interactive session the cache is for: toggle a statement off,
  // then back on, re-analyzing after each step against one persistent
  // cache. Every step must match its cold equivalent, and restoring the
  // original knowledge must be answered entirely from the cache.
  auto with_last_dropped = Rules();
  with_last_dropped.pop_back();

  SolutionCache cache;
  const auto options = CacheOptions(&cache, 1);
  auto first = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();
  auto dropped =
      AnalyzeWithRules(*pipeline_, with_last_dropped, options).ValueOrDie();
  auto restored = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();

  SolutionCache fresh;
  auto dropped_cold = AnalyzeWithRules(*pipeline_, with_last_dropped,
                                       CacheOptions(&fresh, 1))
                          .ValueOrDie();
  EXPECT_LE(MaxAbsDiff(maxent::MaterializeJoint(dropped.solver),
                       maxent::MaterializeJoint(dropped_cold.solver)),
            1e-8);
  // Toggling back restores the original component keys: all exact hits,
  // and the first round's posterior, exactly.
  EXPECT_EQ(restored.solver.cache_exact_hits,
            first.decomposition.num_coupled_components);
  EXPECT_EQ(restored.solver.iterations, 0u);
  EXPECT_EQ(MaxAbsDiff(maxent::MaterializeJoint(restored.solver),
                       maxent::MaterializeJoint(first.solver)),
            0.0);
}

TEST_F(IncrementalPipelineTest, CacheCensusIsDeterministicAcrossThreads) {
  // Lookups and insertions run serially in block-id order by design, so
  // the censuses of a cold run and a toggled re-run must be identical
  // whether blocks are solved on one thread or four.
  std::vector<std::vector<size_t>> censuses;
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    SolutionCache cache;
    const auto options = CacheOptions(&cache, threads);
    auto cold = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();
    auto warm =
        AnalyzeWithRules(*pipeline_, ToggledRules(), options).ValueOrDie();
    censuses.push_back({cold.solver.cache_exact_hits,
                        cold.solver.cache_warm_hits,
                        cold.solver.cache_misses, cold.solver.cache_entries,
                        warm.solver.cache_exact_hits,
                        warm.solver.cache_warm_hits,
                        warm.solver.cache_misses, warm.solver.cache_entries,
                        warm.solver.cache_evictions});
  }
  EXPECT_EQ(censuses[0], censuses[1]);
}

TEST_F(IncrementalPipelineTest, ExactModeNeverWarmStarts) {
  // ParityRules: three coupled components of which the toggle edits one,
  // so exact mode still answers the untouched two from the cache.
  SolutionCache cache;
  auto options = CacheOptions(&cache, 1);
  options.solver_options.cache_mode = CacheMode::kExact;
  auto cold =
      AnalyzeWithRules(*pipeline_, ParityRules(), options).ValueOrDie();
  auto toggled =
      AnalyzeWithRules(*pipeline_, Toggle(ParityRules()), options)
          .ValueOrDie();
  EXPECT_EQ(toggled.solver.cache_warm_hits, 0u);
  // The untouched components still exact-hit.
  EXPECT_GE(toggled.solver.cache_exact_hits, 1u);
  (void)cold;
}

TEST_F(IncrementalPipelineTest, OffModeTouchesNothing) {
  SolutionCache cache;
  auto options = CacheOptions(&cache, 1);
  options.solver_options.cache_mode = CacheMode::kOff;
  auto a = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();
  auto b = AnalyzeWithRules(*pipeline_, Rules(), options).ValueOrDie();
  EXPECT_FALSE(a.solver.cache_enabled);
  EXPECT_EQ(b.solver.cache_exact_hits, 0u);
  EXPECT_EQ(cache.Stats().insertions, 0u);
  EXPECT_GT(b.solver.iterations, 0u);  // really solved again
}

// -------------------------------------- equality and inequality rows

// On the Figure 1 table q4 lives in bucket 2 alone and q5 in bucket 3
// alone, so statements about q4 share one block and a statement about q5
// is a second block. Without a cap the answer puts P(s3 | q4) at 1/3
// (at 0.25 under P(s1 | q4) = 0.5), so the cap P(s3 | q4) <= 0.2 binds.
knowledge::ConditionalStatement CapS3GivenQ4() {
  return knowledge::AbstractConditional(testing::kQ4, {testing::kS3}, 0.2,
                                        knowledge::Relation::kLe);
}

TEST_F(IncrementalPipelineTest, ExactHitReportsTheSolveItReuses) {
  // A block whose only knowledge row is a <= row, answered from the
  // cache on the re-run, must report the solve it reuses: in its outcome
  // and the census.
  const auto table = testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(CapS3GivenQ4());
  SolutionCache cache;
  const auto options = CacheOptions(&cache, 1);
  const auto cold = core::Analyze(table, kb, options).ValueOrDie();
  const auto hit = core::Analyze(table, kb, options).ValueOrDie();

  ASSERT_EQ(cold.solver.component_outcomes.size(), 1u);
  ASSERT_EQ(hit.solver.component_outcomes.size(), 1u);
  EXPECT_EQ(hit.solver.cache_exact_hits, 1u);
  EXPECT_TRUE(cold.solver.converged);
  EXPECT_EQ(hit.solver.converged, cold.solver.converged);
  const maxent::ComponentOutcome& solved = cold.solver.component_outcomes[0];
  const maxent::ComponentOutcome& reused = hit.solver.component_outcomes[0];
  EXPECT_EQ(reused.cache, maxent::CacheOutcome::kExactHit);
  EXPECT_EQ(reused.degraded, solved.degraded);
  EXPECT_EQ(reused.max_violation, solved.max_violation);
  EXPECT_EQ(hit.solver.components_solved, cold.solver.components_solved);
  EXPECT_EQ(hit.solver.components_degraded, cold.solver.components_degraded);
  EXPECT_EQ(hit.solver.degraded, cold.solver.degraded);
}

TEST_F(IncrementalPipelineTest, WarmStartCarriesEqualityAndInequalityRows) {
  // One block holds an = and a binding <= knowledge row. Toggling the =
  // value re-solves it warm: every other row, the <= row included, takes
  // its cached multiplier by signature. The q5 block is untouched.
  const auto table = testing::MakeFigure1Table();
  const auto index = constraints::TermIndex::Build(table);
  const auto knowledge_with = [&](double s1_given_q4) {
    knowledge::KnowledgeBase kb;
    kb.Add(knowledge::AbstractConditional(testing::kQ4, {testing::kS1},
                                          s1_given_q4));
    kb.Add(CapS3GivenQ4());
    kb.Add(knowledge::AbstractConditional(testing::kQ5, {testing::kS5}, 0.5));
    return constraints::CompileKnowledge(kb, table, index)
        .ValueOrDie()
        .constraints;
  };
  const auto seeded_knowledge = knowledge_with(0.5);
  const auto toggled_knowledge = knowledge_with(0.51);

  SolutionCache cache;
  const maxent::SolverOptions options = CacheOptions(&cache, 1).solver_options;
  const auto seeded =
      testing::SolveTable(table, index, seeded_knowledge, options)
          .ValueOrDie();
  ASSERT_EQ(seeded.component_outcomes.size(), 2u);
  ASSERT_FALSE(seeded.degraded);
  ASSERT_TRUE(seeded.converged);

  // The warm start the toggled block is offered: the cached multipliers
  // row for row (same rows, same stacked order), the toggled row at 0.
  maxent::BlockPlan seeded_plan =
      maxent::BlockPlan::Build(table, index, {}, seeded_knowledge);
  seeded_plan.ConsultCache(options);
  maxent::BlockPlan toggled_plan =
      maxent::BlockPlan::Build(table, index, {}, toggled_knowledge);
  toggled_plan.ConsultCache(options);
  const maxent::PlanBlock& before = seeded_plan.blocks()[0];
  const maxent::PlanBlock& after = toggled_plan.blocks()[0];
  const maxent::MaxEntProblem before_problem =
      maxent::AssembleBlock(seeded_plan, before).ValueOrDie();
  const maxent::MaxEntProblem after_problem =
      maxent::AssembleBlock(toggled_plan, after).ValueOrDie();
  ASSERT_NE(before.cached, nullptr);
  ASSERT_EQ(after.rows.size(), before.rows.size());
  ASSERT_EQ(before.cached->lambda_full.size(), before_problem.a.rows());
  // The binding <= row is the block's last row; its multiplier is < 0.
  EXPECT_EQ(after.num_eq + 1, after.rows.size());
  EXPECT_LT(before.cached->lambda_full.back(), 0.0);
  std::vector<double> expected = before.cached->lambda_full;
  size_t toggled_rows = 0;
  for (size_t j = 0; j < after_problem.a.rows(); ++j) {
    if (after_problem.rhs[j] != before_problem.rhs[j]) {
      expected[j] = 0.0;
      ++toggled_rows;
    }
  }
  EXPECT_EQ(toggled_rows, 1u);
  EXPECT_EQ(after.warm_start, expected);

  const auto warm =
      testing::SolveTable(table, index, toggled_knowledge, options)
          .ValueOrDie();
  SolutionCache fresh;
  const auto cold =
      testing::SolveTable(table, index, toggled_knowledge,
                          CacheOptions(&fresh, 1).solver_options)
          .ValueOrDie();
  ASSERT_EQ(warm.component_outcomes.size(), 2u);
  EXPECT_EQ(warm.component_outcomes[0].cache,
            maxent::CacheOutcome::kWarmStart);
  EXPECT_EQ(warm.component_outcomes[1].cache,
            maxent::CacheOutcome::kExactHit);
  EXPECT_FALSE(warm.degraded);
  // Both meet the 1e-11 tolerance with the <= row binding, and land on
  // the same distribution and posterior.
  EXPECT_TRUE(warm.converged);
  EXPECT_TRUE(cold.converged);
  EXPECT_LE(MaxAbsDiff(warm.p, cold.p), 1e-8);
  const core::PosteriorTable warm_posterior =
      core::PosteriorTable::FromSolution(table, index, warm.p);
  const core::PosteriorTable cold_posterior =
      core::PosteriorTable::FromSolution(table, index, cold.p);
  for (uint32_t q = 0; q < warm_posterior.num_qi(); ++q) {
    for (uint32_t s = 0; s < warm_posterior.num_sa(); ++s) {
      EXPECT_NEAR(warm_posterior.Conditional(q, s),
                  cold_posterior.Conditional(q, s), 1e-8)
          << "q" << q + 1 << " s" << s + 1;
    }
  }
  EXPECT_LE(warm.iterations, cold.iterations);
}

// ------------------------------------------------ dual multiplier payload

TEST(DualLambdaTest, PopulatedForEqualityAndInequalityProblems) {
  // The cache's warm payload depends on every solve reporting its dual,
  // scattered back onto the original rows — ≤ rows' multipliers inside
  // their box, λ ≤ 0.
  const auto table = testing::MakeFigure1Table();
  const auto index = constraints::TermIndex::Build(table);
  std::vector<LinearConstraint> system =
      constraints::GenerateInvariants(table, index);
  const auto equality =
      maxent::BuildProblem(index.num_variables(), system).ValueOrDie();
  knowledge::KnowledgeBase kb;
  kb.Add(CapS3GivenQ4());
  const auto compiled =
      constraints::CompileKnowledge(kb, table, index).ValueOrDie();
  system.insert(system.end(), compiled.constraints.begin(),
                compiled.constraints.end());
  const auto inequality =
      maxent::BuildProblem(index.num_variables(), system).ValueOrDie();
  ASSERT_EQ(inequality.a.rows(), inequality.num_eq + 1);

  for (const auto* problem : {&equality, &inequality}) {
    auto result = maxent::Solve(*problem).ValueOrDie();
    const size_t label = problem->num_eq;
    EXPECT_TRUE(result.converged) << label;
    EXPECT_EQ(result.dual_lambda_full.size(), problem->a.rows()) << label;
    for (double v : result.dual_lambda_full) {
      EXPECT_TRUE(std::isfinite(v)) << label;
    }
    for (size_t j = problem->num_eq; j < problem->a.rows(); ++j) {
      EXPECT_LE(result.dual_lambda_full[j], 0.0) << "row " << j;
    }
  }
  // The cap binds: its multiplier is strictly inside the box.
  EXPECT_LT(maxent::Solve(inequality).ValueOrDie().dual_lambda_full.back(),
            0.0);
}

// ------------------------------------------------------ failpoint matrix

struct ScopedFailpoints {
  explicit ScopedFailpoints(std::string_view spec = "") {
    EXPECT_TRUE(failpoint::Configure(spec).ok()) << spec;
  }
  ~ScopedFailpoints() { failpoint::Reset(); }
};

// CI's failpoint matrix runs this suite under arbitrary injected faults
// (including cache_evict_race). Assertions are therefore limited to the
// never-crash contract: clean statuses and finite posteriors — a fault
// may legitimately degrade components and change the answer.
TEST(IncrementalRobustnessTest, CachedReanalysisSurvivesTheFailpointMatrix) {
  const char* env = std::getenv("PME_FAILPOINTS");
  ScopedFailpoints fp(env == nullptr ? "" : env);

  const auto table = testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(testing::kQ4, {testing::kS1}, 0.9));
  kb.Add(knowledge::AbstractConditional(testing::kQ5, {testing::kS5}, 0.8));

  SolutionCache cache(1 << 16);  // tiny budget: eviction paths run too
  core::AnalysisOptions options;
  options.solver_options.threads = 1;
  options.solver_options.deadline = Deadline::AfterSeconds(30.0);
  options.solver_options.solution_cache = &cache;
  options.solver_options.cache_mode = CacheMode::kWarm;

  for (int round = 0; round < 3; ++round) {
    auto analysis = core::Analyze(table, kb, options);
    if (!analysis.ok()) {
      EXPECT_FALSE(analysis.status().message().empty());
      continue;
    }
    for (double v : maxent::MaterializeJoint(analysis.value().solver)) {
      EXPECT_TRUE(std::isfinite(v)) << "round " << round;
    }
  }
  const auto stats = cache.Stats();
  EXPECT_GE(stats.insertions + stats.misses + stats.exact_hits, 1u);
}

TEST(IncrementalRobustnessTest, EvictRaceFailpointForcesFullEviction) {
  // With cache_evict_race firing on every insert, each insertion is
  // immediately flushed: re-runs never hit, yet stay correct and the
  // census stays coherent.
  ScopedFailpoints fp("cache_evict_race");

  const auto table = testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(testing::kQ4, {testing::kS1}, 0.9));

  SolutionCache cache;
  core::AnalysisOptions options;
  options.solver_options.threads = 1;
  options.solver_options.solution_cache = &cache;
  options.solver_options.cache_mode = CacheMode::kWarm;

  auto first = core::Analyze(table, kb, options).ValueOrDie();
  auto second = core::Analyze(table, kb, options).ValueOrDie();
  EXPECT_EQ(second.solver.cache_exact_hits, 0u);
  const auto stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.evictions, stats.insertions);
  // Both runs solved cold and deterministically: identical posteriors.
  const std::vector<double> first_p = maxent::MaterializeJoint(first.solver);
  const std::vector<double> second_p = maxent::MaterializeJoint(second.solver);
  ASSERT_EQ(first_p.size(), second_p.size());
  for (size_t i = 0; i < first_p.size(); ++i) {
    EXPECT_DOUBLE_EQ(first_p[i], second_p[i]);
  }
}

}  // namespace
}  // namespace pme
