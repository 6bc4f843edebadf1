// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Artifact/session split: the TableArtifact + AnalysisSession pair must
// be a drop-in replacement for the legacy one-shot core::Analyze — same
// posteriors to 1e-10 across every solver kind and thread count — while
// supporting what Analyze never could: one immutable artifact shared by
// many concurrent sessions with different knowledge bases, a shared
// solution cache, and a shared worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "constraints/bk_compiler.h"
#include "constraints/component_analysis.h"
#include "constraints/system.h"
#include "core/analysis_session.h"
#include "core/experiment.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "maxent/block_plan.h"
#include "maxent/decomposed.h"
#include "maxent/solution_cache.h"

namespace pme::core {
namespace {

PipelineOptions SmallPipeline() {
  PipelineOptions options;
  options.data.num_records = 400;
  options.data.seed = 20080612;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  return options;
}

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new ExperimentPipeline(
        BuildPipeline(SmallPipeline()).ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static knowledge::KnowledgeBase RuleKb(size_t positive, size_t negative) {
    knowledge::KnowledgeBase kb;
    kb.AddRules(knowledge::TopK(pipeline_->rules, positive, negative));
    return kb;
  }

  static std::shared_ptr<const TableArtifact> BuildArtifact() {
    return TableArtifact::BuildBorrowed(pipeline_->bucketization.table,
                                        &pipeline_->bucketization.qi_encoder)
        .ValueOrDie();
  }

  static double MaxPosteriorDiff(const PosteriorTable& a,
                                 const PosteriorTable& b) {
    EXPECT_EQ(a.num_qi(), b.num_qi());
    EXPECT_EQ(a.num_sa(), b.num_sa());
    double worst = 0.0;
    for (uint32_t q = 0; q < a.num_qi(); ++q) {
      for (uint32_t s = 0; s < a.num_sa(); ++s) {
        worst = std::max(worst,
                         std::fabs(a.Conditional(q, s) - b.Conditional(q, s)));
      }
    }
    return worst;
  }

  static ExperimentPipeline* pipeline_;
};

ExperimentPipeline* SessionTest::pipeline_ = nullptr;

// (a) Parity: artifact + session must reproduce the legacy Analyze
// posterior to 1e-10 for every solver kind and thread count.
TEST_F(SessionTest, MatchesLegacyAnalyzeAcrossSolversAndThreads) {
  const knowledge::KnowledgeBase kb = RuleKb(8, 8);
  const auto artifact = BuildArtifact();
  const maxent::SolverKind kinds[] = {
      maxent::SolverKind::kLbfgs,    maxent::SolverKind::kGis,
      maxent::SolverKind::kIis,      maxent::SolverKind::kSteepest,
      maxent::SolverKind::kNewton,   maxent::SolverKind::kProjected,
  };
  for (maxent::SolverKind kind : kinds) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string("solver=") + maxent::SolverKindToString(kind) +
                   " threads=" + std::to_string(threads));
      AnalysisOptions options;
      options.solver = kind;
      options.solver_options.threads = threads;
      // Keep the slow first-order kinds affordable: parity must hold at
      // whatever iterate the budget reaches, converged or not.
      options.solver_options.max_iterations = 300;

      const auto legacy =
          Analyze(pipeline_->bucketization.table, kb, options,
                  &pipeline_->bucketization.qi_encoder)
              .ValueOrDie();
      const AnalysisSession session(artifact, options);
      const auto via_session = session.Run(kb).ValueOrDie();

      EXPECT_LE(MaxPosteriorDiff(legacy.posterior, via_session.posterior),
                1e-10);
      EXPECT_NEAR(legacy.estimation_accuracy,
                  via_session.estimation_accuracy, 1e-10);
      EXPECT_EQ(legacy.num_background_constraints,
                via_session.num_background_constraints);
      EXPECT_EQ(legacy.decomposition.num_components,
                via_session.decomposition.num_components);
    }
  }
}

// The serving configuration — block tasks scheduled on a shared
// ThreadPool instead of a per-solve private pool — must change nothing
// about the result.
TEST_F(SessionTest, SharedPoolMatchesPrivatePool) {
  const knowledge::KnowledgeBase kb = RuleKb(12, 12);
  const auto artifact = BuildArtifact();

  AnalysisOptions options;
  options.solver_options.threads = 4;
  const auto reference =
      AnalysisSession(artifact, options).Run(kb).ValueOrDie();

  ThreadPool pool(4);
  AnalysisOptions pooled = options;
  pooled.solver_options.pool = &pool;
  const auto via_pool =
      AnalysisSession(artifact, pooled).Run(kb).ValueOrDie();

  EXPECT_LE(MaxPosteriorDiff(reference.posterior, via_pool.posterior), 1e-10);
  EXPECT_EQ(reference.solver.components_solved,
            via_pool.solver.components_solved);
  EXPECT_EQ(reference.solver.components_failed,
            via_pool.solver.components_failed);
}

// (b) Independence: sessions with different knowledge bases share one
// artifact, one solution cache, and one worker pool, run concurrently,
// and each must keep producing exactly its own single-threaded answer.
// Run under TSan, this is also the data-race check for the whole
// artifact-sharing design.
TEST_F(SessionTest, ConcurrentSessionsOnOneArtifactAreIndependent) {
  const auto artifact = BuildArtifact();
  const std::vector<knowledge::KnowledgeBase> kbs = {
      RuleKb(10, 0), RuleKb(0, 10), RuleKb(6, 6)};

  // Single-threaded references, one per knowledge base.
  std::vector<PosteriorTable> reference;
  for (const auto& kb : kbs) {
    reference.push_back(
        AnalysisSession(artifact).Run(kb).ValueOrDie().posterior);
  }

  ThreadPool pool(4);
  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.pool = &pool;
  options.solver_options.solution_cache = &cache;

  std::vector<AnalysisSession> sessions;
  sessions.reserve(kbs.size());
  for (size_t i = 0; i < kbs.size(); ++i) {
    sessions.emplace_back(artifact, options);
  }

  constexpr size_t kRoundsPerWorker = 3;
  std::vector<double> worst(kbs.size() * 2, 0.0);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kbs.size() * 2; ++w) {
    workers.emplace_back([&, w] {
      const size_t which = w % kbs.size();
      double local_worst = 0.0;
      for (size_t round = 0; round < kRoundsPerWorker; ++round) {
        const auto result = sessions[which].Run(kbs[which]);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        local_worst = std::max(
            local_worst,
            MaxPosteriorDiff(reference[which], result.value().posterior));
      }
      worst[w] = local_worst;
    });
  }
  for (auto& t : workers) t.join();
  for (size_t w = 0; w < worst.size(); ++w) {
    EXPECT_LE(worst[w], 1e-10) << "worker " << w;
  }
}

// (c) The content hash is a pure function of the published table: two
// builds of the same table give the same hash.
TEST_F(SessionTest, ContentHashByteStableAcrossBuilds) {
  const auto first = BuildArtifact();
  const auto second = BuildArtifact();
  EXPECT_EQ(first->content_hash(), second->content_hash());
  EXPECT_EQ(first->content_hash().ToHex(), second->content_hash().ToHex());
  // And the artifact itself is structurally identical.
  EXPECT_EQ(first->index().num_variables(), second->index().num_variables());
  EXPECT_EQ(first->invariants().size(), second->invariants().size());
}

// Distinct invariant options are distinct table-side systems, so the
// namespaces (and thus cache keys) must differ.
TEST_F(SessionTest, ContentHashCoversInvariantOptions) {
  TableArtifactOptions flipped;
  flipped.invariant_options.drop_redundant_row =
      !TableArtifactOptions{}.invariant_options.drop_redundant_row;
  const auto a = BuildArtifact();
  const auto b = TableArtifact::BuildBorrowed(
                     pipeline_->bucketization.table,
                     &pipeline_->bucketization.qi_encoder, flipped)
                     .ValueOrDie();
  EXPECT_NE(a->content_hash(), b->content_hash());
}

// The reference the block plan must reproduce: ComponentAnalysis::Build
// over the whole concatenated system, every row routed to the block of
// its first supported variable (in matrix-form order: equality rows,
// then inequality rows), and each block's variable and row digests
// computed straight from that routing.
struct ReferenceBlock {
  std::vector<uint32_t> buckets;
  size_t num_variables = 0;
  std::vector<const constraints::LinearConstraint*> eq_rows;
  std::vector<const constraints::LinearConstraint*> ineq_rows;
  Hash128 vars_hash;
  Hash128 rows_hash;
};

std::vector<ReferenceBlock> ReferencePlan(
    const constraints::TermIndex& index,
    const constraints::ConstraintSystem& system,
    const constraints::ComponentAnalysis& analysis) {
  std::vector<int64_t> block_of(analysis.num_components(), -1);
  std::vector<ReferenceBlock> blocks;
  for (size_t k = 0; k < analysis.num_components(); ++k) {
    const auto& comp = analysis.components()[k];
    if (!comp.coupled) continue;
    block_of[k] = static_cast<int64_t>(blocks.size());
    ReferenceBlock block;
    block.buckets = comp.buckets;
    block.num_variables = comp.num_variables;
    Hasher128 h;
    h.Update(std::string_view("pme.vars.v1"));
    h.Update(static_cast<uint64_t>(index.num_variables()));
    h.Update(static_cast<uint64_t>(index.num_buckets()));
    h.Update(static_cast<uint64_t>(comp.buckets.size()));
    for (uint32_t b : comp.buckets) {
      const auto [first, last] = index.BucketRange(b);
      h.Update(b);
      h.Update(static_cast<uint64_t>(last - first));
    }
    block.vars_hash = h.Finish();
    blocks.push_back(std::move(block));
  }
  std::vector<std::vector<Hash128>> sigs(blocks.size());
  for (const auto& c : system.constraints()) {
    int64_t block = -1;
    for (size_t i = 0; i < c.vars.size(); ++i) {
      if (c.coefs[i] == 0.0) continue;
      block = block_of[analysis.ComponentOf(index.TermOf(c.vars[i]).bucket)];
      break;
    }
    if (block < 0) continue;
    ReferenceBlock& ref = blocks[static_cast<size_t>(block)];
    (c.rel == knowledge::Relation::kEq ? ref.eq_rows : ref.ineq_rows)
        .push_back(&c);
    sigs[static_cast<size_t>(block)].push_back(
        constraints::ConstraintRowSignature(c));
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    std::sort(sigs[i].begin(), sigs[i].end());
    Hasher128 h;
    h.Update(std::string_view("pme.rows.v1"));
    h.Update(blocks[i].vars_hash);
    h.Update(static_cast<uint64_t>(sigs[i].size()));
    for (const Hash128& sig : sigs[i]) h.Update(sig);
    blocks[i].rows_hash = h.Finish();
  }
  return blocks;
}

void ExpectSameRows(
    const std::vector<const constraints::LinearConstraint*>& plan,
    const std::vector<const constraints::LinearConstraint*>& reference) {
  ASSERT_EQ(plan.size(), reference.size());
  for (size_t r = 0; r < plan.size(); ++r) {
    EXPECT_EQ(plan[r]->label, reference[r]->label) << "row " << r;
    EXPECT_EQ(constraints::ConstraintRowSignature(*plan[r]),
              constraints::ConstraintRowSignature(*reference[r]))
        << "row " << r;
  }
}

// The block plan — union-find over the knowledge rows' buckets alone,
// invariant rows pulled from the artifact's bucket index — must match the
// whole-system partition and routing: same blocks in the same order,
// same coupled buckets, same per-block rows in the same order, same cache
// digests, same census. Random knowledge, with some statements turned
// into inequalities so both row kinds route.
TEST_F(SessionTest, BlockPlanMatchesWholeSystemPartition) {
  const auto artifact = BuildArtifact();
  const constraints::TermIndex& index = artifact->index();
  std::mt19937 rng(20260801);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<knowledge::AssociationRule> rules = pipeline_->rules;
    std::shuffle(rules.begin(), rules.end(), rng);
    rules.resize(std::min<size_t>(rules.size(), 1 + rng() % 30));
    knowledge::KnowledgeBase drawn;
    drawn.AddRules(rules);
    knowledge::KnowledgeBase kb;
    for (auto stmt : drawn.conditionals()) {
      const uint32_t pick = rng() % 4;
      if (pick == 1) stmt.rel = knowledge::Relation::kLe;
      if (pick == 2) stmt.rel = knowledge::Relation::kGe;
      kb.Add(std::move(stmt));
    }
    const auto compiled =
        constraints::CompileKnowledge(kb, artifact->table(), index,
                                      artifact->qi_encoder())
            .ValueOrDie();

    maxent::BlockPlan plan = maxent::BlockPlan::Build(
        index, &artifact->invariants(), &artifact->invariant_rows_by_bucket(),
        compiled.constraints, /*monolithic_fraction=*/2.0);
    maxent::SolutionCache cache;
    maxent::SolverOptions options;
    options.solution_cache = &cache;
    plan.ConsultCache(options);

    constraints::ConstraintSystem full(index.num_variables());
    full.AddAll(artifact->invariants());
    full.AddAll(compiled.constraints);
    const auto analysis = constraints::ComponentAnalysis::Build(index, full);
    const std::vector<ReferenceBlock> reference =
        ReferencePlan(index, full, analysis);

    EXPECT_EQ(plan.num_components(), analysis.num_components());
    ASSERT_EQ(plan.blocks().size(), reference.size());
    ASSERT_EQ(plan.blocks().size(), analysis.num_coupled());
    for (size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("block " + std::to_string(i));
      const maxent::PlanBlock& block = plan.blocks()[i];
      EXPECT_EQ(block.buckets, reference[i].buckets);
      EXPECT_EQ(block.cols.size(), reference[i].num_variables);
      ExpectSameRows(block.eq_rows, reference[i].eq_rows);
      ExpectSameRows(block.ineq_rows, reference[i].ineq_rows);
      EXPECT_EQ(block.vars_hash, reference[i].vars_hash);
      EXPECT_EQ(block.rows_hash, reference[i].rows_hash);
    }
    EXPECT_EQ(plan.cache_misses(), reference.size());

    const maxent::DecompositionStats census =
        maxent::AnalyzeDecomposition(plan);
    size_t relevant_buckets = 0;
    size_t relevant_variables = 0;
    for (const auto& comp : analysis.components()) {
      if (!comp.coupled) continue;
      relevant_buckets += comp.buckets.size();
      relevant_variables += comp.num_variables;
    }
    EXPECT_EQ(census.num_components, analysis.num_components());
    EXPECT_EQ(census.num_coupled_components, analysis.num_coupled());
    EXPECT_EQ(census.relevant_buckets, relevant_buckets);
    EXPECT_EQ(census.relevant_variables, relevant_variables);
    EXPECT_EQ(census.irrelevant_buckets,
              index.num_buckets() - relevant_buckets);
  }
}

// The legacy wrapper and a session must agree on an empty knowledge base
// too (the pure Theorem-5 closed-form path).
TEST_F(SessionTest, KnowledgeFreeRunMatchesLegacy) {
  const knowledge::KnowledgeBase empty;
  const auto artifact = BuildArtifact();
  const auto legacy = Analyze(pipeline_->bucketization.table, empty, {},
                              &pipeline_->bucketization.qi_encoder)
                          .ValueOrDie();
  const auto via_session =
      AnalysisSession(artifact).Run(empty).ValueOrDie();
  EXPECT_LE(MaxPosteriorDiff(legacy.posterior, via_session.posterior), 1e-10);
  EXPECT_EQ(via_session.decomposition.num_coupled_components, 0u);
}

// The session's overlay evaluation — the artifact's prior posterior with
// only the knowledge-touched q rows recomputed, their per-q metric slices
// folded in — must reproduce a from-scratch rebuild of posterior,
// accuracy, and metrics off the same (materialized) joint exactly (the
// touched rows replay the identical arithmetic; untouched rows are
// untouched by construction).
TEST_F(SessionTest, IncrementalEvaluationMatchesFullRebuild) {
  const knowledge::KnowledgeBase kb = RuleKb(10, 6);
  const auto artifact = BuildArtifact();
  const auto analysis = AnalysisSession(artifact).Run(kb).ValueOrDie();
  const std::vector<double> joint = maxent::MaterializeJoint(analysis.solver);

  const PosteriorTable full =
      PosteriorTable::FromSolution(artifact->table(), artifact->index(), joint);
  ASSERT_EQ(full.num_qi(), analysis.posterior.num_qi());
  ASSERT_EQ(full.num_sa(), analysis.posterior.num_sa());
  for (uint32_t q = 0; q < full.num_qi(); ++q) {
    EXPECT_EQ(full.ProbQ(q), analysis.posterior.ProbQ(q)) << "q " << q;
    for (uint32_t s = 0; s < full.num_sa(); ++s) {
      EXPECT_EQ(full.Conditional(q, s), analysis.posterior.Conditional(q, s))
          << "q " << q << " s " << s;
    }
  }
  EXPECT_EQ(EstimationAccuracy(artifact->ground_truth(), full),
            analysis.estimation_accuracy);
  const PrivacyMetrics metrics = ComputePrivacyMetrics(full);
  EXPECT_EQ(metrics.max_disclosure, analysis.metrics.max_disclosure);
  EXPECT_EQ(metrics.expected_best_guess, analysis.metrics.expected_best_guess);
  EXPECT_EQ(metrics.min_effective_candidates,
            analysis.metrics.min_effective_candidates);
  // The incremental entropy shortcut must stay within rounding noise of
  // the full -Σ p ln p pass.
  EXPECT_NEAR(analysis.solver.entropy, Entropy(joint), 1e-9);
}

// The overlay contract: a decomposed run carries no full joint and no
// dense posterior — only its coupled blocks' slices and the posterior
// rows of their buckets' QI instances, over the artifact's prior.
TEST_F(SessionTest, DecomposedRunHoldsOnlyTouchedRowsAndBlockSlices) {
  const knowledge::KnowledgeBase kb = RuleKb(4, 4);
  const auto artifact = BuildArtifact();
  const auto analysis = AnalysisSession(artifact).Run(kb).ValueOrDie();
  ASSERT_FALSE(analysis.solver.used_monolithic_fallback);
  ASSERT_GT(analysis.decomposition.num_coupled_components, 0u);

  const maxent::SolverResult& solver = analysis.solver;
  EXPECT_TRUE(solver.p.empty());
  EXPECT_EQ(solver.prior.get(), &artifact->closed_form_prior());
  ASSERT_EQ(solver.blocks.size(),
            analysis.decomposition.num_coupled_components);
  std::vector<uint32_t> touched;
  size_t slice_variables = 0;
  for (const auto& slice : solver.blocks) {
    ASSERT_EQ(slice.cols.size(), slice.p.size());
    slice_variables += slice.cols.size();
    for (const uint32_t var : slice.cols) {
      touched.push_back(artifact->index().TermOf(var).qi);
    }
  }
  EXPECT_EQ(slice_variables, analysis.decomposition.relevant_variables);
  EXPECT_LT(slice_variables, artifact->index().num_variables());

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  EXPECT_EQ(analysis.posterior.overridden_rows(), touched);
  EXPECT_LT(touched.size(), analysis.posterior.num_qi());
  EXPECT_EQ(maxent::MaterializeJoint(solver).size(),
            artifact->index().num_variables());
}

}  // namespace
}  // namespace pme::core
