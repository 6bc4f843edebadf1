// Tests for the fault-tolerant solve pipeline: the failpoint registry,
// deadlines and cancellation tokens, the acceptance test and the
// iterate-or-prior rule SolveDecomposed applies to a failed block,
// thread-pool exception containment, and the
// malformed-input corpus for the CSV and knowledge parsers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "constraints/system.h"
#include "constraints/term_index.h"
#include "core/privacy_maxent.h"
#include "data/csv.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/parser.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"
#include "maxent/solver.h"
#include "maxent/solvers_internal.h"
#include "tests/test_util.h"

#ifndef PME_TEST_CORPUS_DIR
#define PME_TEST_CORPUS_DIR "tests/corpus"
#endif

namespace pme {
namespace {

using anonymize::BucketizedTable;
using constraints::ConstraintSystem;
using constraints::TermIndex;
using pme::testing::kQ4;
using pme::testing::kQ5;
using pme::testing::kS1;
using pme::testing::kS5;

/// Deactivates every failpoint when a test exits, configured or not.
struct ScopedFailpoints {
  explicit ScopedFailpoints(std::string_view spec = "") {
    EXPECT_TRUE(failpoint::Configure(spec).ok()) << spec;
  }
  ~ScopedFailpoints() { failpoint::Reset(); }
};

ConstraintSystem InvariantSystem(const BucketizedTable& t,
                                 const TermIndex& index) {
  ConstraintSystem system(index.num_variables());
  system.AddAll(constraints::GenerateInvariants(t, index));
  return system;
}

void AddConditional(const BucketizedTable& t, const TermIndex& index,
                    ConstraintSystem* system, uint32_t q, uint32_t s,
                    double value,
                    knowledge::Relation rel = knowledge::Relation::kEq) {
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(q, {s}, value, rel));
  auto compiled = constraints::CompileKnowledge(kb, t, index).ValueOrDie();
  system->AddAll(std::move(compiled.constraints));
}

/// Figure 1 with two independent coupled components (bucket 1 via q4,
/// bucket 2 via q5) and bucket 0 on the closed form.
maxent::MaxEntProblem TwoComponentProblem(const BucketizedTable& t,
                                          const TermIndex& index,
                                          ConstraintSystem* system) {
  AddConditional(t, index, system, kQ4, kS1, 0.9);
  AddConditional(t, index, system, kQ5, kS5, 0.8);
  return maxent::BuildProblem(*system).ValueOrDie();
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string CorpusPath(const std::string& name) {
  return std::string(PME_TEST_CORPUS_DIR) + "/" + name;
}

// ------------------------------------------------------------ failpoints

TEST(FailpointTest, ExactTriggerFiresOnlyOnTheNthHit) {
  ScopedFailpoints fp("site@2");
  EXPECT_FALSE(failpoint::Hit("site"));
  EXPECT_TRUE(failpoint::Hit("site"));
  EXPECT_FALSE(failpoint::Hit("site"));
  EXPECT_EQ(failpoint::HitCount("site"), 3u);
  EXPECT_EQ(failpoint::HitCount("other"), 0u);
}

TEST(FailpointTest, AlwaysAndOnwardTriggers) {
  ScopedFailpoints fp("every,tail@2+");
  EXPECT_TRUE(failpoint::Hit("every"));
  EXPECT_TRUE(failpoint::Hit("every"));
  EXPECT_FALSE(failpoint::Hit("tail"));
  EXPECT_TRUE(failpoint::Hit("tail"));
  EXPECT_TRUE(failpoint::Hit("tail"));
}

TEST(FailpointTest, UnconfiguredSitesAreInert) {
  ScopedFailpoints fp("armed@1");
  EXPECT_FALSE(failpoint::Hit("somewhere_else"));
  EXPECT_TRUE(failpoint::Hit("armed"));
}

TEST(FailpointTest, MalformedSpecIsRejectedAndKeepsThePrevious) {
  ScopedFailpoints fp("keep@1");
  EXPECT_FALSE(failpoint::Configure("bad@x").ok());
  EXPECT_FALSE(failpoint::Configure("bad@0").ok());
  EXPECT_NE(failpoint::ActiveSpec().find("keep"), std::string::npos);
  EXPECT_TRUE(failpoint::Hit("keep"));
}

TEST(FailpointTest, ResetDeactivatesEverything) {
  ASSERT_TRUE(failpoint::Configure("x").ok());
  EXPECT_TRUE(failpoint::Hit("x"));
  failpoint::Reset();
  EXPECT_FALSE(failpoint::Hit("x"));
  EXPECT_TRUE(failpoint::ActiveSpec().empty());
}

// ------------------------------------------------- deadline + cancellation

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_TRUE(std::isinf(d.RemainingSeconds()));
}

TEST(DeadlineTest, ZeroOrNegativeBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterSeconds(0.0).Expired());
  EXPECT_TRUE(Deadline::AfterSeconds(-3.0).Expired());
  EXPECT_EQ(Deadline::AfterSeconds(0.0).RemainingSeconds(), 0.0);
}

TEST(DeadlineTest, EarlierPrefersTheFiniteAndSoonerDeadline) {
  const Deadline far = Deadline::AfterSeconds(1e6);
  const Deadline near = Deadline::AfterSeconds(0.0);
  EXPECT_TRUE(Deadline::Earlier(far, near).Expired());
  EXPECT_TRUE(Deadline::Earlier(near, far).Expired());
  EXPECT_FALSE(Deadline::Earlier(Deadline::Infinite(), far).is_infinite());
  EXPECT_TRUE(
      Deadline::Earlier(Deadline::Infinite(), Deadline::Infinite())
          .is_infinite());
}

TEST(DeadlineTest, SkipFailpointExpiresFiniteDeadlinesOnly) {
  ScopedFailpoints fp("deadline_skip");
  EXPECT_TRUE(Deadline::AfterSeconds(1e6).Expired());
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(CancellationTest, SourceCancelsEveryToken) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = source.token();
  EXPECT_FALSE(a.cancelled());
  source.Cancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
  EXPECT_FALSE(CancellationToken().cancelled());
}

TEST(CancellationTest, CheckInterruptReportsCancelBeforeDeadline) {
  CancellationSource source;
  source.Cancel();
  EXPECT_EQ(CheckInterrupt(Deadline::AfterSeconds(0.0), source.token()),
            StatusCode::kCancelled);
  EXPECT_EQ(CheckInterrupt(Deadline::AfterSeconds(0.0), CancellationToken()),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CheckInterrupt(Deadline::Infinite(), CancellationToken()),
            StatusCode::kOk);
}

// ----------------------------------------------- solver interrupt semantics

TEST(SolverInterruptTest, ExpiredDeadlineReturnsBestSoFarNotAnError) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  maxent::SolverOptions options;
  options.deadline = Deadline::AfterSeconds(0.0);
  auto result = maxent::Solve(problem, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().termination, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(result.value().converged);
  ASSERT_EQ(result.value().p.size(), problem.num_vars);
  for (double v : result.value().p) EXPECT_TRUE(std::isfinite(v));
}

TEST(SolverInterruptTest, CancelledTokenStopsEqualityAndInequalitySolves) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  const auto equality = maxent::BuildProblem(system).ValueOrDie();
  AddConditional(t, index, &system, kQ4, kS1, 0.3, knowledge::Relation::kLe);
  const auto inequality = maxent::BuildProblem(system).ValueOrDie();
  ASSERT_GT(inequality.a.rows(), inequality.num_eq);

  CancellationSource source;
  source.Cancel();
  maxent::SolverOptions options;
  options.cancel = source.token();
  for (const auto* problem : {&equality, &inequality}) {
    auto result = maxent::Solve(*problem, options);
    ASSERT_TRUE(result.ok()) << problem->num_eq;
    EXPECT_EQ(result.value().termination, StatusCode::kCancelled)
        << problem->num_eq;
  }
}

TEST(SolverInterruptTest, WarmStartResumesAtTheSolution) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  auto cold = maxent::Solve(problem).ValueOrDie();
  ASSERT_TRUE(cold.converged);
  ASSERT_FALSE(cold.dual_lambda_full.empty());

  maxent::SolverOptions options;
  options.warm_start = &cold.dual_lambda_full;
  auto warm = maxent::Solve(problem, options).ValueOrDie();
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LE(warm.iterations, cold.iterations);
}

// ----------------------------------------------------------- acceptance

TEST(AcceptabilityTest, NanGradientFailpointLeavesAFiniteUnacceptablePoint) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  // The poisoned line search accepts no step: the solve returns its
  // start point, the λ = 0 primal — finite, but no distribution.
  ScopedFailpoints fp("lbfgs_nan@1");
  auto result = maxent::Solve(problem);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().converged);
  EXPECT_FALSE(maxent::IsAcceptable(result.value()));
  for (double v : result.value().p) EXPECT_TRUE(std::isfinite(v));
}

TEST(AcceptabilityTest, CleanSolveIsAcceptableAndNotDegraded) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  auto result = maxent::Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(maxent::IsAcceptable(result.value()));
  EXPECT_FALSE(result.value().degraded);
}

/// Rows p0 + p1 = 1 and p0 + p1 + p2 = 0.5: no nonnegative p satisfies
/// both, and presolve cannot tell, so the minimizer runs and fails.
ConstraintSystem UnsatisfiableSystem() {
  ConstraintSystem system(3);
  constraints::LinearConstraint pair;
  pair.vars = {0, 1};
  pair.coefs = {1.0, 1.0};
  pair.rhs = 1.0;
  system.Add(pair);
  constraints::LinearConstraint all;
  all.vars = {0, 1, 2};
  all.coefs = {1.0, 1.0, 1.0};
  all.rhs = 0.5;
  system.Add(all);
  return system;
}

TEST(AcceptabilityTest, UnsatisfiableProblemEndsFiniteAndUnacceptable) {
  // With and without a ≤ row: a failed solve is an Ok result whose
  // finite iterate IsAcceptable rejects, never an error Status.
  ConstraintSystem system = UnsatisfiableSystem();
  const auto equality = maxent::BuildProblem(system).ValueOrDie();
  constraints::LinearConstraint le;
  le.vars = {0};
  le.coefs = {1.0};
  le.rel = knowledge::Relation::kLe;
  le.rhs = 0.4;
  system.Add(le);
  const auto inequality = maxent::BuildProblem(system).ValueOrDie();
  maxent::SolverOptions options;
  options.max_iterations = 2000;

  for (const auto* problem : {&equality, &inequality}) {
    auto result = maxent::Solve(*problem, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result.value().degraded);
    EXPECT_FALSE(maxent::IsAcceptable(result.value()));
    EXPECT_TRUE(std::isfinite(result.value().max_violation));
  }
}

// ------------------------------------------------------ decomposed solve

TEST(DecomposedRobustnessTest, FaultIsolationKeepsUntouchedComponentsExact) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  AddConditional(t, index, &system, kQ4, kS1, 0.9);
  AddConditional(t, index, &system, kQ5, kS5, 0.8);

  auto clean = maxent::SolveDecomposed(t, index, system).ValueOrDie();
  ASSERT_EQ(clean.components_solved, 2u);

  // Poison block 0 (bucket 1, q4) with a NaN gradient and spend block 1's
  // (bucket 2, q5) whole deadline budget before it starts. Serial solve
  // keeps the hit order — and therefore the targeting — deterministic.
  ScopedFailpoints fp("lbfgs_nan@1,block_deadline@2");
  maxent::SolverOptions options;
  options.threads = 1;
  auto faulted = maxent::SolveDecomposed(t, index, system, options);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  const auto& result = faulted.value();

  EXPECT_EQ(result.termination, StatusCode::kOk);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.components_solved, 0u);
  EXPECT_EQ(result.components_degraded, 2u);
  EXPECT_EQ(result.components_failed, 0u);
  ASSERT_EQ(result.component_outcomes.size(), 2u);

  // Block 0's poisoned solve left the λ = 0 primal (every cell e^-1),
  // which violates the block's rows more than the prior does: it kept
  // the closed-form prior, flagged. Block 1 never got to iterate: it
  // kept the prior too.
  EXPECT_TRUE(result.component_outcomes[0].degraded);
  EXPECT_TRUE(result.component_outcomes[0].used_prior);
  EXPECT_EQ(result.component_outcomes[0].status, StatusCode::kNotConverged);
  EXPECT_EQ(result.component_outcomes[0].iterations, 1u);
  EXPECT_TRUE(result.component_outcomes[1].used_prior);
  EXPECT_EQ(result.component_outcomes[1].status,
            StatusCode::kDeadlineExceeded);

  // The untouched closed-form bucket (bucket 0) is bit-identical to the
  // clean run, and both faulted buckets hold the closed form exactly.
  const std::vector<double> prior = maxent::ClosedFormNoKnowledge(t, index);
  const auto [b0_first, b0_last] = index.BucketRange(0);
  for (uint32_t v = b0_first; v < b0_last; ++v) {
    EXPECT_EQ(result.p[v], clean.p[v]) << "var " << v;
  }
  for (uint32_t v = index.BucketRange(1).first;
       v < index.BucketRange(2).second; ++v) {
    EXPECT_EQ(result.p[v], prior[v]) << "var " << v;
  }
  // The kept answers report their rows' violation: the prior's, which
  // ignores the knowledge rows.
  EXPECT_GT(result.component_outcomes[0].max_violation, 1e-3);
  EXPECT_EQ(result.max_violation,
            std::max(result.component_outcomes[0].max_violation,
                     result.component_outcomes[1].max_violation));
}

TEST(DecomposedRobustnessTest, ThrowingBlockTaskDegradesOnlyItsComponent) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  AddConditional(t, index, &system, kQ4, kS1, 0.9);
  AddConditional(t, index, &system, kQ5, kS5, 0.8);
  auto clean = maxent::SolveDecomposed(t, index, system).ValueOrDie();

  ScopedFailpoints fp("pool_task_throw@1");
  maxent::SolverOptions options;
  options.threads = 1;
  auto result = maxent::SolveDecomposed(t, index, system, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().termination, StatusCode::kOk);
  EXPECT_TRUE(result.value().degraded);
  EXPECT_EQ(result.value().components_failed, 1u);
  EXPECT_EQ(result.value().components_solved, 1u);
  ASSERT_EQ(result.value().component_outcomes.size(), 2u);
  EXPECT_TRUE(result.value().component_outcomes[0].used_prior);
  EXPECT_EQ(result.value().component_outcomes[0].status,
            StatusCode::kInternal);
  // The surviving block still matches the clean run.
  const auto [b2_first, b2_last] = index.BucketRange(2);
  for (uint32_t v = b2_first; v < b2_last; ++v) {
    EXPECT_NEAR(result.value().p[v], clean.p[v], 1e-6) << "var " << v;
  }
}

TEST(DecomposedRobustnessTest, CancelledRunReturnsPartialAnswerMarked) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  AddConditional(t, index, &system, kQ4, kS1, 0.9);

  CancellationSource source;
  source.Cancel();
  maxent::SolverOptions options;
  options.cancel = source.token();
  auto result = maxent::SolveDecomposed(t, index, system, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().termination, StatusCode::kCancelled);
  EXPECT_TRUE(result.value().degraded);
  for (double v : result.value().p) EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------- thread pool containment

TEST(ThreadPoolRobustnessTest, TaskExceptionSurfacesAsStatusFromRunBatch) {
  ThreadPool pool(2);
  std::vector<std::atomic<bool>> ran(8);
  for (auto& r : ran) r = false;
  const Status status = pool.RunBatch(ran.size(), [&](size_t i) {
    if (i == 1) throw std::runtime_error("task boom");
    ran[i] = true;
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("task boom"), std::string::npos);
  for (size_t i = 0; i < ran.size(); ++i) {
    EXPECT_EQ(ran[i].load(), i != 1) << "index " << i;
  }
  // The error belonged to that batch: the next one starts clean.
  std::atomic<int> count{0};
  EXPECT_TRUE(pool.RunBatch(3, [&](size_t) { ++count; }).ok());
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolRobustnessTest, ConcurrentBatchesReturnOnlyTheirOwnError) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    // Two requests share the pool; each throws from a different index
    // with its own message, and a third never throws.
    Status a, b, clean;
    auto batch = [&pool](const char* what, size_t throw_at, Status* out) {
      *out = pool.RunBatch(8, [what, throw_at](size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (i == throw_at) throw std::runtime_error(what);
      });
    };
    std::thread ta(batch, "batch a boom", size_t{2}, &a);
    std::thread tb(batch, "batch b boom", size_t{5}, &b);
    std::thread tc(batch, "never", size_t{8}, &clean);
    ta.join();
    tb.join();
    tc.join();
    ASSERT_FALSE(a.ok());
    ASSERT_FALSE(b.ok());
    EXPECT_NE(a.message().find("batch a boom"), std::string::npos);
    EXPECT_EQ(a.message().find("batch b boom"), std::string::npos);
    EXPECT_NE(b.message().find("batch b boom"), std::string::npos);
    EXPECT_EQ(b.message().find("batch a boom"), std::string::npos);
    EXPECT_TRUE(clean.ok()) << clean.ToString();
  }
}

TEST(ThreadPoolRobustnessTest, ParallelForAttemptsEveryIndexDespiteThrow) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    std::vector<std::atomic<bool>> ran(8);
    for (auto& r : ran) r = false;
    const Status status =
        ThreadPool::ParallelFor(threads, ran.size(), [&](size_t i) {
          if (i == 2) throw std::runtime_error("index boom");
          ran[i] = true;
        });
    EXPECT_FALSE(status.ok()) << threads;
    EXPECT_EQ(status.code(), StatusCode::kInternal) << threads;
    for (size_t i = 0; i < ran.size(); ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(ran[i].load()) << "threads " << threads << " index " << i;
    }
  }
}

// --------------------------------------------------- PR2 ride-along tests

TEST(StallGuardTest, PlateauExitsLongBeforeTheIterationBudget) {
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  // A zero tolerance is unreachable in floating point, so at the default
  // settings only the stall guard can stop these solves short of the
  // 20000-iteration budget.
  maxent::SolverOptions options;
  options.tolerance = 0.0;
  auto result = maxent::Solve(problem, options).ValueOrDie();
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.termination, StatusCode::kOk);
  EXPECT_GE(result.iterations, maxent::internal::kMaxStallIterations);
  EXPECT_LE(result.iterations, 1000u);
  EXPECT_TRUE(maxent::IsAcceptable(result)) << result.max_violation;
}

TEST(SolveCountersTest, ClosedFormStartsAndStallExitsAreCounted) {
  const metrics::Registry& registry = metrics::Registry::Global();
  auto t = pme::testing::MakeFigure1Table();
  auto index = TermIndex::Build(t);
  auto system = InvariantSystem(t, index);
  auto problem = TwoComponentProblem(t, index, &system);

  // Each block solved without a warm start starts at the closed form.
  uint64_t starts = registry.CounterValue("solve.closed_form_starts");
  uint64_t stalls = registry.CounterValue("solve.stall_exits");
  const auto decomposed =
      maxent::SolveDecomposed(t, index, system).ValueOrDie();
  ASSERT_EQ(decomposed.component_outcomes.size(), 2u);
  EXPECT_TRUE(decomposed.converged);
  EXPECT_EQ(registry.CounterValue("solve.closed_form_starts") - starts, 2u);
  EXPECT_EQ(registry.CounterValue("solve.stall_exits"), stalls);

  // A plain Solve starts at zero; an unreachable tolerance ends it by a
  // stall, counted once.
  starts = registry.CounterValue("solve.closed_form_starts");
  maxent::SolverOptions options;
  options.tolerance = 0.0;
  const auto stalled = maxent::Solve(problem, options).ValueOrDie();
  EXPECT_FALSE(stalled.converged);
  EXPECT_LT(stalled.iterations, options.max_iterations);
  EXPECT_EQ(registry.CounterValue("solve.stall_exits") - stalls, 1u);
  EXPECT_EQ(registry.CounterValue("solve.closed_form_starts"), starts);
}

TEST(StallDetectorTest, FiresOnARunOfStalledStepsOnly) {
  using maxent::internal::kMaxStallIterations;
  maxent::internal::StallDetector stall;
  // Progress above kStallFtol * (|D| + 1) never counts, however long.
  for (size_t i = 0; i < 2 * kMaxStallIterations; ++i) {
    EXPECT_FALSE(stall.Update(1.0, 1.0 - 1e-12));
  }
  // A run fires on its kMaxStallIterations-th stalled step.
  for (size_t i = 1; i < kMaxStallIterations; ++i) {
    EXPECT_FALSE(stall.Update(1.0, 1.0 - 1e-16)) << i;
  }
  EXPECT_TRUE(stall.Update(1.0, 1.0));
  // Real progress breaks a run; so does Reset.
  stall.Reset();
  for (size_t i = 1; i < kMaxStallIterations; ++i) {
    EXPECT_FALSE(stall.Update(-5.0, -5.0)) << i;
  }
  EXPECT_FALSE(stall.Update(-5.0, -6.0));
  for (size_t i = 1; i < kMaxStallIterations; ++i) {
    EXPECT_FALSE(stall.Update(-6.0, -6.0)) << i;
  }
  EXPECT_TRUE(stall.Update(-6.0, -6.0));
}

// --------------------------------------------------- malformed-input corpus

TEST(CsvCorpusTest, BadFieldCountReportsLineAndByteOffset) {
  data::CsvReadOptions options;
  options.sensitive_attributes = {"disease"};
  auto result = data::ReadCsv(CorpusPath("bad_field_count.csv"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("byte offset 39"),
            std::string::npos)
      << result.status().message();
}

TEST(CsvCorpusTest, EmptyFileIsACleanError) {
  data::CsvReadOptions options;
  options.sensitive_attributes = {"disease"};
  auto result = data::ReadCsv(CorpusPath("empty.csv"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(CsvCorpusTest, RaggedTailReportsTheOffendingLine) {
  data::CsvReadOptions options;
  options.sensitive_attributes = {"disease"};
  auto result = data::ReadCsv(CorpusPath("ragged_tail.csv"), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_NE(result.status().message().find("line 4"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("byte offset 68"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("expected 3 fields, got 5"),
            std::string::npos)
      << result.status().message();
}

TEST(KnowledgeCorpusTest, EveryMalformedFileFailsCleanlyWithALocation) {
  const char* files[] = {"bad_relation.bk", "prob_out_of_range.bk",
                         "trailing.bk", "unknown_head.bk",
                         "unterminated.bk"};
  for (const char* name : files) {
    knowledge::KnowledgeBase kb;
    knowledge::ParserContext context;
    const Status status =
        knowledge::ParseKnowledge(ReadFileOrDie(CorpusPath(name)), context,
                                  &kb);
    ASSERT_FALSE(status.ok()) << name;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(status.message().find("line "), std::string::npos)
        << name << ": " << status.message();
    EXPECT_NE(status.message().find("byte offset "), std::string::npos)
        << name << ": " << status.message();
  }
}

TEST(KnowledgeCorpusTest, OutOfRangeProbabilityPointsAtTheSecondLine) {
  knowledge::KnowledgeBase kb;
  knowledge::ParserContext context;
  const Status status = knowledge::ParseKnowledge(
      ReadFileOrDie(CorpusPath("prob_out_of_range.bk")), context, &kb);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("line 2 (byte offset 17)"),
            std::string::npos)
      << status.message();
}

// ------------------------------------------------------------- end to end

TEST(EndToEndRobustnessTest, AnalysisNeverCrashesUnderTheFailpointMatrix) {
  // CI runs this binary under a PME_FAILPOINTS matrix. Earlier tests have
  // already consumed the lazy env read, so re-arm the spec explicitly;
  // without the env variable this is a clean-run smoke test.
  const char* env = std::getenv("PME_FAILPOINTS");
  ScopedFailpoints fp(env == nullptr ? "" : env);

  auto t = pme::testing::MakeFigure1Table();
  knowledge::KnowledgeBase kb;
  kb.Add(knowledge::AbstractConditional(kQ4, {kS1}, 0.9));
  kb.Add(knowledge::AbstractConditional(kQ5, {kS5}, 0.8));
  core::AnalysisOptions options;
  options.solver_options.threads = 1;
  options.solver_options.deadline = Deadline::AfterSeconds(30.0);

  auto analysis = core::Analyze(t, kb, options);
  if (!analysis.ok()) {
    // A hard failure must still be a clean Status, never a crash.
    EXPECT_FALSE(analysis.status().message().empty());
    return;
  }
  const auto& posterior = analysis.value().posterior;
  for (uint32_t q = 0; q < posterior.num_qi(); ++q) {
    for (uint32_t s = 0; s < posterior.num_sa(); ++s) {
      EXPECT_TRUE(std::isfinite(posterior.Conditional(q, s)));
    }
  }
  for (double v : maxent::MaterializeJoint(analysis.value().solver)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

}  // namespace
}  // namespace pme
