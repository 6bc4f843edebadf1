// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Artifact/session split: the TableArtifact + AnalysisSession pair must
// be a drop-in replacement for the legacy one-shot core::Analyze — same
// posteriors to 1e-10 across every thread count — while
// supporting what Analyze never could: one immutable artifact shared by
// many concurrent sessions with different knowledge bases, a shared
// solution cache, and a shared worker pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/math_util.h"
#include "common/metrics.h"
#include "common/team.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "constraints/bk_compiler.h"
#include "constraints/invariants.h"
#include "core/analysis_session.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "knowledge/parser.h"
#include "maxent/block_plan.h"
#include "maxent/closed_form.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"
#include "maxent/solution_cache.h"
#include "tests/support/component_analysis.h"
#include "tests/support/experiment.h"

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

  // The top rules, enough of them that one coupled block holds more than
  // kDominantBlockFraction of the table's variables.
  static knowledge::KnowledgeBase DominantKb(const TableArtifact& artifact) {
    const constraints::TermIndex& index = artifact.index();
    for (size_t k = 4; k <= pipeline_->rules.size(); k *= 2) {
      knowledge::KnowledgeBase kb = RuleKb(k, k);
      const auto compiled =
          constraints::CompileKnowledge(kb, artifact.table(), index,
                                        artifact.qi_encoder())
              .ValueOrDie();
      const maxent::BlockPlan plan = maxent::BlockPlan::Build(
          artifact.table(), index, artifact.options().invariant_options,
          compiled.constraints);
      for (const maxent::PlanBlock& block : plan.blocks()) {
        if (static_cast<double>(block.cols.size()) >
            maxent::kDominantBlockFraction *
                static_cast<double>(index.num_variables())) {
          return kb;
        }
      }
    }
    ADD_FAILURE() << "no rule prefix couples a dominant block";
    return {};
  }

  static void ExpectSamePosterior(const PosteriorTable& a,
                                  const PosteriorTable& b) {
    ASSERT_EQ(a.num_qi(), b.num_qi());
    ASSERT_EQ(a.num_sa(), b.num_sa());
    for (uint32_t q = 0; q < a.num_qi(); ++q) {
      for (uint32_t s = 0; s < a.num_sa(); ++s) {
        EXPECT_EQ(a.Conditional(q, s), b.Conditional(q, s))
            << "q " << q << " s " << s;
      }
    }
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
// posterior to 1e-10 for every thread count.
TEST_F(SessionTest, MatchesLegacyAnalyzeAcrossThreads) {
  const knowledge::KnowledgeBase kb = RuleKb(8, 8);
  const auto artifact = BuildArtifact();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AnalysisOptions options;
    options.solver_options.threads = threads;
    // Parity must hold at whatever iterate the budget reaches, converged
    // or not.
    options.solver_options.max_iterations = 300;

    const auto legacy = Analyze(pipeline_->bucketization.table, kb, options,
                                &pipeline_->bucketization.qi_encoder)
                            .ValueOrDie();
    const AnalysisSession session(artifact, options);
    const auto via_session = session.Run(kb).ValueOrDie();

    EXPECT_LE(MaxPosteriorDiff(legacy.posterior, via_session.posterior),
              1e-10);
    EXPECT_NEAR(legacy.estimation_accuracy, via_session.estimation_accuracy,
                1e-10);
    EXPECT_EQ(legacy.num_background_constraints,
              via_session.num_background_constraints);
    EXPECT_EQ(legacy.decomposition.num_components,
              via_session.decomposition.num_components);
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
  EXPECT_EQ(constraints::GenerateInvariants(
                first->table(), first->index(),
                first->options().invariant_options)
                .size(),
            constraints::GenerateInvariants(
                second->table(), second->index(),
                second->options().invariant_options)
                .size());
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

// Set-up is traced: one artifact build records each stage's span once,
// on the building thread, inside its artifact_build span.
TEST_F(SessionTest, ArtifactBuildTracesEachStageOnceInsideIt) {
  const uint64_t trace_id = trace::NewTraceId();
  trace::RequestCapture capture(trace_id);
  std::shared_ptr<const TableArtifact> artifact;
  {
    trace::TraceIdScope scope(trace_id);
    artifact = BuildArtifact();
  }
  const std::vector<trace::TraceEvent> events = capture.TakeEvents();
  const auto named = [&](const char* name) {
    std::vector<const trace::TraceEvent*> out;
    for (const trace::TraceEvent& e : events) {
      if (std::strcmp(e.name, name) == 0) out.push_back(&e);
    }
    return out;
  };
  const auto builds = named("artifact_build");
  ASSERT_EQ(builds.size(), 1u);
  const trace::TraceEvent& build = *builds[0];

  const double num_vars =
      static_cast<double>(artifact->index().num_variables());
  const struct {
    const char* name;
    const char* arg;
    double value;
  } stages[] = {
      {"term_index", "variables", num_vars},
      {"closed_form", "variables", num_vars},
      {"prior_posterior", "qi_values",
       static_cast<double>(artifact->table().num_qi_values())},
  };
  for (const auto& stage : stages) {
    SCOPED_TRACE(stage.name);
    const auto spans = named(stage.name);
    ASSERT_EQ(spans.size(), 1u);
    const trace::TraceEvent& e = *spans[0];
    EXPECT_EQ(e.tid, build.tid);
    EXPECT_GE(e.start_ns, build.start_ns);
    EXPECT_LE(e.start_ns + e.dur_ns, build.start_ns + build.dur_ns);
    ASSERT_NE(e.arg_names[0], nullptr);
    EXPECT_STREQ(e.arg_names[0], stage.arg);
    EXPECT_EQ(e.arg_values[0], stage.value);
  }
}

// The reference the block plan must reproduce: ComponentAnalysis::Build
// over the whole concatenated system, every row routed to the block of
// its first supported variable (in the stacked layout: a pass over the
// equality rows, then one over the others), and each block's variable
// and row digests computed straight from that routing: the buckets enter
// by their counts, the knowledge rows by their sorted signatures.
struct ReferenceBlock {
  std::vector<uint32_t> buckets;
  size_t num_variables = 0;
  size_t num_table_rows = 0;
  std::vector<const constraints::LinearConstraint*> rows;
  size_t num_eq = 0;
  Hash128 vars_hash;
  Hash128 rows_hash;
};

std::vector<ReferenceBlock> ReferencePlan(
    const anonymize::BucketizedTable& table,
    const constraints::TermIndex& index,
    const std::vector<constraints::LinearConstraint>& system,
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
    h.Update(std::string_view("pme.vars.v2"));
    h.Update(static_cast<uint64_t>(index.num_variables()));
    h.Update(static_cast<uint64_t>(index.num_buckets()));
    h.Update(static_cast<uint64_t>(table.num_records()));
    h.Update(uint64_t{0});  // every invariant row kept
    h.Update(static_cast<uint64_t>(comp.buckets.size()));
    for (uint32_t b : comp.buckets) {
      h.Update(b);
      h.Update(static_cast<uint64_t>(table.BucketQiCounts(b).size()));
      h.Update(static_cast<uint64_t>(table.BucketSaCounts(b).size()));
      for (const auto& run : table.BucketQiCounts(b)) h.Update(run.count);
      for (const auto& run : table.BucketSaCounts(b)) h.Update(run.count);
    }
    block.vars_hash = h.Finish();
    blocks.push_back(std::move(block));
  }
  std::vector<std::vector<Hash128>> knowledge_sigs(blocks.size());
  for (const bool equalities : {true, false}) {
    for (const auto& c : system) {
      if ((c.rel == knowledge::Relation::kEq) != equalities) continue;
      int64_t block = -1;
      for (size_t i = 0; i < c.vars.size(); ++i) {
        if (c.coefs[i] == 0.0) continue;
        block = block_of[analysis.ComponentOf(index.TermOf(c.vars[i]).bucket)];
        break;
      }
      if (block < 0) continue;
      ReferenceBlock& ref = blocks[static_cast<size_t>(block)];
      if (c.source == constraints::ConstraintSource::kQiInvariant ||
          c.source == constraints::ConstraintSource::kSaInvariant) {
        ++ref.num_table_rows;
        continue;
      }
      ref.rows.push_back(&c);
      if (equalities) ++ref.num_eq;
      knowledge_sigs[static_cast<size_t>(block)].push_back(
          constraints::ConstraintRowSignature(c));
    }
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    Hasher128 h;
    h.Update(std::string_view("pme.rows.v3"));
    h.Update(blocks[i].vars_hash);
    std::sort(knowledge_sigs[i].begin(), knowledge_sigs[i].end());
    h.Update(static_cast<uint64_t>(knowledge_sigs[i].size()));
    for (const Hash128& sig : knowledge_sigs[i]) h.Update(sig);
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
// invariant rows implied by the buckets — must match the whole-system
// partition and routing: same blocks in the same order, same coupled
// buckets, same invariant-row count, same per-block knowledge rows in the
// same order, same cache digests, same census. Random knowledge, with
// some statements turned into inequalities so both row kinds route.
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
        artifact->table(), index, artifact->options().invariant_options,
        compiled.constraints);
    maxent::SolutionCache cache;
    maxent::SolverOptions options;
    options.solution_cache = &cache;
    plan.ConsultCache(options);

    std::vector<constraints::LinearConstraint> full =
        constraints::GenerateInvariants(artifact->table(), artifact->index(),
                                        artifact->options().invariant_options);
    full.insert(full.end(), compiled.constraints.begin(),
                compiled.constraints.end());
    const auto analysis = constraints::ComponentAnalysis::Build(index, full);
    const std::vector<ReferenceBlock> reference =
        ReferencePlan(artifact->table(), index, full, analysis);

    EXPECT_EQ(plan.num_components(), analysis.num_components());
    ASSERT_EQ(plan.blocks().size(), reference.size());
    ASSERT_EQ(plan.blocks().size(), analysis.num_coupled());
    for (size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("block " + std::to_string(i));
      const maxent::PlanBlock& block = plan.blocks()[i];
      EXPECT_EQ(block.buckets, reference[i].buckets);
      EXPECT_EQ(block.cols.size(), reference[i].num_variables);
      EXPECT_EQ(block.num_table_rows, reference[i].num_table_rows);
      ExpectSameRows(block.rows, reference[i].rows);
      EXPECT_EQ(block.num_eq, reference[i].num_eq);
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

// A knowledge base that couples most of the table goes through the same
// plan as any other: a re-run answers its dominant block from the cache,
// with no iterations and the very same posterior.
TEST_F(SessionTest, DominantBlockReRunIsAllExactHits) {
  const auto artifact = BuildArtifact();
  const knowledge::KnowledgeBase kb = DominantKb(*artifact);
  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.solution_cache = &cache;
  const AnalysisSession session(artifact, options);

  const auto cold = session.Run(kb).ValueOrDie();
  ASSERT_GT(cold.solver.iterations, 0u);
  const auto again = session.Run(kb).ValueOrDie();
  EXPECT_EQ(again.solver.cache_exact_hits, again.solver.blocks.size());
  EXPECT_EQ(again.solver.cache_misses, 0u);
  EXPECT_EQ(again.solver.iterations, 0u);
  ExpectSamePosterior(cold.posterior, again.posterior);
  EXPECT_EQ(cold.estimation_accuracy, again.estimation_accuracy);
  EXPECT_EQ(cold.metrics.max_disclosure, again.metrics.max_disclosure);
}

// An edit of one statement keeps the dominant block's variables, so its
// cached dual would be a warm start; the plan withholds it, and the
// toggle is solved exactly as on a fresh cache.
TEST_F(SessionTest, DominantBlockToggleIsNotWarmStarted) {
  const auto artifact = BuildArtifact();
  const knowledge::KnowledgeBase kb = DominantKb(*artifact);
  // Nudge the first statement that is not near certainty.
  knowledge::KnowledgeBase edited;
  bool nudged = false;
  for (auto stmt : kb.conditionals()) {
    if (!nudged && stmt.probability > 0.1 && stmt.probability < 0.9) {
      stmt.probability *= 0.99;
      nudged = true;
    }
    edited.Add(std::move(stmt));
  }
  ASSERT_TRUE(nudged);

  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.solution_cache = &cache;
  const AnalysisSession session(artifact, options);
  ASSERT_TRUE(session.Run(kb).ok());

  const auto compiled =
      constraints::CompileKnowledge(edited, artifact->table(),
                                    artifact->index(), artifact->qi_encoder())
          .ValueOrDie();
  maxent::BlockPlan plan = maxent::BlockPlan::Build(
      artifact->table(), artifact->index(),
      artifact->options().invariant_options, compiled.constraints);
  maxent::SolverOptions lookup = options.solver_options;
  lookup.cache_namespace = artifact->content_hash();
  plan.ConsultCache(lookup);
  EXPECT_EQ(plan.warm_withheld(), 1u);

  const auto warm = session.Run(edited).ValueOrDie();
  maxent::SolutionCache fresh_cache;
  AnalysisOptions fresh_options;
  fresh_options.solver_options.solution_cache = &fresh_cache;
  const auto fresh =
      AnalysisSession(artifact, fresh_options).Run(edited).ValueOrDie();
  EXPECT_EQ(warm.solver.cache_warm_hits, 0u);
  ASSERT_EQ(warm.solver.component_outcomes.size(),
            fresh.solver.component_outcomes.size());
  for (size_t i = 0; i < warm.solver.component_outcomes.size(); ++i) {
    const auto& outcome = warm.solver.component_outcomes[i];
    EXPECT_NE(outcome.cache, maxent::CacheOutcome::kWarmStart) << i;
    if (outcome.cache == maxent::CacheOutcome::kNone) {
      EXPECT_EQ(outcome.iterations,
                fresh.solver.component_outcomes[i].iterations)
          << i;
    }
  }
  ExpectSamePosterior(warm.posterior, fresh.posterior);
}

// An artifact built without Theorem 3's redundant rows plans blocks
// without them, and its session lands on the MaxEnt solution of the
// whole concise system.
TEST_F(SessionTest, ConciseArtifactSessionMatchesItsWholeSystemSolve) {
  TableArtifactOptions concise;
  concise.invariant_options.drop_redundant_row = true;
  const auto artifact =
      TableArtifact::BuildBorrowed(pipeline_->bucketization.table,
                                   &pipeline_->bucketization.qi_encoder,
                                   concise)
          .ValueOrDie();
  const knowledge::KnowledgeBase kb = RuleKb(6, 6);
  // The tolerance bounds each row's violation in mass and a posterior
  // divides by P(q): both solves run tight, so their answers agree to
  // 1e-8 in posterior units too.
  AnalysisOptions options;
  options.solver_options.tolerance = 1e-12;
  const auto analysis =
      AnalysisSession(artifact, options).Run(kb).ValueOrDie();
  ASSERT_TRUE(analysis.solver.converged);
  ASSERT_FALSE(analysis.solver.degraded);

  const auto invariants = constraints::GenerateInvariants(
      artifact->table(), artifact->index(), concise.invariant_options);
  EXPECT_EQ(analysis.num_invariant_constraints, invariants.size());
  std::vector<constraints::LinearConstraint> system = invariants;
  const auto compiled =
      constraints::CompileKnowledge(kb, artifact->table(), artifact->index(),
                                    artifact->qi_encoder())
          .ValueOrDie();
  system.insert(system.end(), compiled.constraints.begin(),
                compiled.constraints.end());
  const auto whole =
      maxent::Solve(
          maxent::BuildProblem(artifact->index().num_variables(), system)
              .ValueOrDie(),
          options.solver_options)
          .ValueOrDie();
  ASSERT_TRUE(whole.converged);
  const std::vector<double> joint = maxent::MaterializeJoint(analysis.solver);
  ASSERT_EQ(joint.size(), whole.p.size());
  double worst = 0.0;
  for (size_t i = 0; i < joint.size(); ++i) {
    worst = std::max(worst, std::fabs(joint[i] - whole.p[i]));
  }
  EXPECT_LE(worst, 1e-8);
  EXPECT_LE(MaxPosteriorDiff(analysis.posterior,
                             PosteriorTable::FromSolution(
                                 artifact->table(), artifact->index(),
                                 whole.p)),
            1e-8);
}

// Without the decomposition a request is one block over every bucket:
// identity columns and BuildProblem's rows in BuildProblem's order, so
// its joint, posterior and metrics are those of Solve on the whole
// system, bit for bit.
TEST_F(SessionTest, WholeTablePlanIsTheWholeSystemProblem) {
  const auto artifact = BuildArtifact();
  const constraints::TermIndex& index = artifact->index();
  const knowledge::KnowledgeBase rules = RuleKb(6, 6);
  knowledge::KnowledgeBase kb;
  for (auto stmt : rules.conditionals()) {
    if (kb.size() == 1) stmt.rel = knowledge::Relation::kLe;
    if (kb.size() == 2) stmt.rel = knowledge::Relation::kGe;
    kb.Add(std::move(stmt));
  }
  const auto compiled =
      constraints::CompileKnowledge(kb, artifact->table(), index,
                                    artifact->qi_encoder())
          .ValueOrDie();
  std::vector<constraints::LinearConstraint> system =
      constraints::GenerateInvariants(artifact->table(), artifact->index(),
                                      artifact->options().invariant_options);
  system.insert(system.end(), compiled.constraints.begin(),
                compiled.constraints.end());

  const maxent::BlockPlan plan = maxent::BlockPlan::Build(
      artifact->table(), index, artifact->options().invariant_options,
      compiled.constraints, /*one_block=*/true);
  ASSERT_EQ(plan.blocks().size(), 1u);
  EXPECT_EQ(plan.num_components(), 1u);
  const maxent::PlanBlock& block = plan.blocks()[0];
  std::vector<uint32_t> all_buckets(index.num_buckets());
  std::iota(all_buckets.begin(), all_buckets.end(), 0u);
  std::vector<uint32_t> all_vars(index.num_variables());
  std::iota(all_vars.begin(), all_vars.end(), 0u);
  EXPECT_EQ(block.buckets, all_buckets);
  EXPECT_EQ(block.cols, all_vars);
  const auto problem =
      maxent::BuildProblem(index.num_variables(), system).ValueOrDie();
  const auto block_problem =
      maxent::AssembleBlock(plan, block).ValueOrDie();
  EXPECT_EQ(block_problem.num_eq, problem.num_eq);
  EXPECT_EQ(block_problem.rhs, problem.rhs);
  EXPECT_EQ(block_problem.a.row_offsets(), problem.a.row_offsets());
  EXPECT_EQ(block_problem.a.col_indices(), problem.a.col_indices());
  EXPECT_EQ(block_problem.a.values(), problem.a.values());

  // Bit-exact at whatever iterate a short budget reaches, as for a plain
  // Solve.
  AnalysisOptions options;
  options.use_decomposition = false;
  options.solver_options.max_iterations = 300;
  const auto analysis = AnalysisSession(artifact, options).Run(kb).ValueOrDie();
  // The one block starts at the closed form's dual; so does the whole
  // system, through the same function.
  const std::vector<double> start =
      maxent::ClosedFormDual(plan, block, artifact->closed_form_prior());
  maxent::SolverOptions whole_options = options.solver_options;
  whole_options.warm_start = &start;
  const auto whole = maxent::Solve(problem, whole_options).ValueOrDie();
  EXPECT_EQ(analysis.solver.iterations, whole.iterations);
  const std::vector<double> joint = maxent::MaterializeJoint(analysis.solver);
  ASSERT_EQ(joint.size(), whole.p.size());
  for (size_t i = 0; i < joint.size(); ++i) {
    EXPECT_EQ(joint[i], whole.p[i]) << "var " << i;
  }
  const PosteriorTable rebuilt =
      PosteriorTable::FromSolution(artifact->table(), index, whole.p);
  ExpectSamePosterior(analysis.posterior, rebuilt);
  EXPECT_EQ(analysis.estimation_accuracy,
            EstimationAccuracy(artifact->ground_truth(), rebuilt));
  const PrivacyMetrics metrics = ComputePrivacyMetrics(rebuilt);
  EXPECT_EQ(analysis.metrics.max_disclosure, metrics.max_disclosure);
  EXPECT_EQ(analysis.metrics.expected_best_guess,
            metrics.expected_best_guess);
  EXPECT_EQ(analysis.metrics.min_effective_candidates,
            metrics.min_effective_candidates);
}


// ---------------------------------------------------- statement-term memo

// Random statements over the fixture's table: dataset-mode Qv of 0–3 QI
// attributes (a code one past the dictionary is absent from the table),
// abstract-mode QI instances, S-sets with repeated codes, probability 0
// now and then, and all three relations. A statement whose terms are
// all structurally zero is made a <= row, so the knowledge base
// compiles; the infeasible case has its own test.
knowledge::KnowledgeBase RandomKb(const TableArtifact& artifact,
                                  const data::Schema& schema,
                                  std::mt19937& rng, size_t n) {
  const data::TupleEncoder& encoder = *artifact.qi_encoder();
  const uint32_t num_sa = artifact.table().num_sa_values();
  constexpr knowledge::Relation kRelations[] = {
      knowledge::Relation::kEq, knowledge::Relation::kLe,
      knowledge::Relation::kGe};
  knowledge::KnowledgeBase kb;
  while (kb.size() < n) {
    knowledge::ConditionalStatement stmt;
    if (rng() % 4 == 0) {
      stmt.abstract_qi =
          static_cast<uint32_t>(rng() % artifact.table().num_qi_values());
    } else {
      std::vector<size_t> attrs = encoder.attrs();
      std::shuffle(attrs.begin(), attrs.end(), rng);
      attrs.resize(std::min<size_t>(attrs.size(), rng() % 4));
      for (const size_t attr : attrs) {
        stmt.attrs.push_back(attr);
        stmt.values.push_back(static_cast<uint32_t>(
            rng() % (schema.attribute(attr).dictionary.size() + 1)));
      }
    }
    for (size_t j = 0, m = 1 + rng() % 3; j < m; ++j) {
      stmt.sa_codes.push_back(static_cast<uint32_t>(rng() % num_sa));
    }
    if (rng() % 3 == 0) stmt.sa_codes.push_back(stmt.sa_codes.front());
    stmt.rel = kRelations[rng() % 3];
    stmt.probability = rng() % 5 == 0 ? 0.0 : (1 + rng() % 999) / 1000.0;
    knowledge::KnowledgeBase one;
    one.Add(stmt);
    const auto alone = constraints::CompileKnowledge(
        one, artifact.table(), artifact.index(), artifact.qi_encoder());
    if (alone.status().code() == StatusCode::kInfeasible) {
      stmt.rel = knowledge::Relation::kLe;
    }
    kb.Add(std::move(stmt));
  }
  return kb;
}

// Same rows, same order, same bits.
void ExpectIdenticalRows(const constraints::CompiledKnowledge& a,
                         const constraints::CompiledKnowledge& b) {
  EXPECT_EQ(a.num_vacuous, b.num_vacuous);
  ASSERT_EQ(a.constraints.size(), b.constraints.size());
  for (size_t r = 0; r < a.constraints.size(); ++r) {
    const constraints::LinearConstraint& x = a.constraints[r];
    const constraints::LinearConstraint& y = b.constraints[r];
    EXPECT_EQ(x.vars, y.vars) << "row " << r;
    EXPECT_EQ(x.coefs, y.coefs) << "row " << r;
    uint64_t x_bits = 0, y_bits = 0;
    std::memcpy(&x_bits, &x.rhs, sizeof(x_bits));
    std::memcpy(&y_bits, &y.rhs, sizeof(y_bits));
    EXPECT_EQ(x_bits, y_bits) << "row " << r;
    EXPECT_EQ(x.rel, y.rel) << "row " << r;
    EXPECT_EQ(x.source, y.source) << "row " << r;
    EXPECT_EQ(x.label, y.label) << "row " << r;
  }
}

// Compiling through a memo — cold, then again with every statement a
// hit — gives the rows compiling without one gives, for random knowledge.
TEST_F(SessionTest, MemoCompiledRowsEqualMemoLessRows) {
  const auto artifact = BuildArtifact();
  const TableArtifact& a = *artifact;
  std::mt19937 rng(20261018);
  constraints::StatementTermMemo memo;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const knowledge::KnowledgeBase kb =
        RandomKb(a, pipeline_->dataset.schema(), rng, 1 + rng() % 12);
    const auto plain =
        constraints::CompileKnowledge(kb, a.table(), a.index(),
                                      a.qi_encoder(), &a.qi_postings())
            .ValueOrDie();
    const auto first =
        constraints::CompileKnowledge(kb, a.table(), a.index(),
                                      a.qi_encoder(), &a.qi_postings(), &memo)
            .ValueOrDie();
    ExpectIdenticalRows(plain, first);
    const auto second =
        constraints::CompileKnowledge(kb, a.table(), a.index(),
                                      a.qi_encoder(), &a.qi_postings(), &memo)
            .ValueOrDie();
    EXPECT_EQ(second.memo_hits, kb.conditionals().size());
    ExpectIdenticalRows(plain, second);
  }
}

// The memo key leaves out probability and relation: a toggled statement
// hits and gets its own rhs. A statement over terms that never co-occur
// is infeasible as an equality whether its terms come from the memo or
// not, and feasible as a <= row; a statement that cannot be resolved is
// not memoized.
TEST_F(SessionTest, ToggledStatementsHitTheMemo) {
  const auto artifact = BuildArtifact();
  const TableArtifact& a = *artifact;
  const auto compile = [&](const knowledge::KnowledgeBase& kb,
                           constraints::StatementTermMemo* memo) {
    return constraints::CompileKnowledge(kb, a.table(), a.index(),
                                         a.qi_encoder(), &a.qi_postings(),
                                         memo);
  };
  constraints::StatementTermMemo memo;
  const knowledge::KnowledgeBase kb = RuleKb(6, 6);
  ASSERT_TRUE(compile(kb, &memo).ok());
  knowledge::KnowledgeBase toggled;
  for (auto stmt : kb.conditionals()) {
    stmt.probability *= 0.5;
    stmt.rel = toggled.size() % 2 == 0 ? knowledge::Relation::kLe
                                       : knowledge::Relation::kGe;
    toggled.Add(std::move(stmt));
  }
  const auto hit = compile(toggled, &memo).ValueOrDie();
  EXPECT_EQ(hit.memo_hits, toggled.conditionals().size());
  ExpectIdenticalRows(compile(toggled, nullptr).ValueOrDie(), hit);

  // An abstract statement about an SA value no bucket of q holds.
  const uint32_t q = 0;
  uint32_t absent = 0;
  while (absent < a.table().num_sa_values()) {
    bool held = false;
    for (const uint32_t b : a.table().BucketsWithQi(q)) {
      held = held || a.index().FindVariable(q, absent, b).has_value();
    }
    if (!held) break;
    ++absent;
  }
  ASSERT_LT(absent, a.table().num_sa_values());
  knowledge::KnowledgeBase zero_support;
  zero_support.Add(knowledge::AbstractConditional(q, {absent}, 0.4));
  for (int round = 0; round < 2; ++round) {
    const auto result = compile(zero_support, &memo);
    EXPECT_EQ(result.status().code(), StatusCode::kInfeasible) << round;
    EXPECT_EQ(result.status().message(),
              compile(zero_support, nullptr).status().message());
  }
  knowledge::KnowledgeBase capped;
  capped.Add(knowledge::AbstractConditional(q, {absent}, 0.4,
                                            knowledge::Relation::kLe));
  const auto trivially = compile(capped, &memo).ValueOrDie();
  EXPECT_EQ(trivially.memo_hits, 1u);
  EXPECT_TRUE(trivially.constraints.empty());

  const size_t entries = memo.size();
  knowledge::ConditionalStatement not_qi;
  not_qi.attrs = {pipeline_->bucketization.sa_attr};
  not_qi.values = {0};
  not_qi.sa_codes = {0};
  not_qi.probability = 0.5;
  knowledge::KnowledgeBase bad;
  bad.Add(not_qi);
  EXPECT_EQ(compile(bad, &memo).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(memo.size(), entries);
}

// Four threads compiling through one artifact's memo at once get the
// rows a memo-less compile gives, every time.
TEST_F(SessionTest, FourThreadsCompileIdenticalRowsThroughOneMemo) {
  const auto artifact = BuildArtifact();
  const TableArtifact& a = *artifact;
  std::mt19937 rng(4);
  const knowledge::KnowledgeBase kb =
      RandomKb(a, pipeline_->dataset.schema(), rng, 40);
  const auto reference =
      constraints::CompileKnowledge(kb, a.table(), a.index(), a.qi_encoder())
          .ValueOrDie();
  constexpr size_t kThreads = 4, kRounds = 3;
  std::vector<Result<constraints::CompiledKnowledge>> results(
      kThreads * kRounds, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        results[t * kRounds + round] = constraints::CompileKnowledge(
            kb, a.table(), a.index(), a.qi_encoder(), &a.qi_postings(),
            &a.term_memo());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectIdenticalRows(reference, result.value());
  }
}

// An exact re-run takes every statement's terms from the artifact's memo
// (no memo miss), hashes only its knowledge rows — the table rows'
// signatures came with the artifact — and answers bit-identically.
TEST_F(SessionTest, ExactReRunHitsTheMemoAndHashesNoTableRow) {
  const auto artifact = BuildArtifact();
  const knowledge::KnowledgeBase kb = RuleKb(6, 6);
  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.solution_cache = &cache;
  const AnalysisSession session(artifact, options);
  const auto cold = session.Run(kb).ValueOrDie();

  const auto& registry = metrics::Registry::Global();
  const uint64_t misses = registry.CounterValue("compile.memo_misses");
  const uint64_t trace_id = trace::NewTraceId();
  trace::RequestCapture capture(trace_id);
  Result<Analysis> again = Status::Internal("not run");
  {
    trace::TraceIdScope scope(trace_id);
    again = session.Run(kb);
  }
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(registry.CounterValue("compile.memo_misses"), misses);

  const auto arg = [](const trace::TraceEvent& e, const char* name) {
    for (int i = 0; i < 2; ++i) {
      if (e.arg_names[i] != nullptr && std::strcmp(e.arg_names[i], name) == 0) {
        return e.arg_values[i];
      }
    }
    return -1.0;
  };
  double memo_hits = -1.0, rows_hashed = -1.0;
  for (const trace::TraceEvent& e : capture.TakeEvents()) {
    if (std::strcmp(e.name, "compile") == 0) memo_hits = arg(e, "memo_hits");
    if (std::strcmp(e.name, "plan") == 0) rows_hashed = arg(e, "rows_hashed");
  }
  EXPECT_EQ(memo_hits, static_cast<double>(kb.conditionals().size()));
  EXPECT_EQ(rows_hashed,
            static_cast<double>(again.value().num_background_constraints));
  EXPECT_LT(rows_hashed,
            static_cast<double>(constraints::GenerateInvariants(
                                    artifact->table(), artifact->index(),
                                    artifact->options().invariant_options)
                                    .size()));

  EXPECT_EQ(again.value().solver.cache_misses, 0u);
  EXPECT_EQ(again.value().solver.iterations, 0u);
  ExpectSamePosterior(cold.posterior, again.value().posterior);
  EXPECT_EQ(cold.estimation_accuracy, again.value().estimation_accuracy);
  EXPECT_EQ(cold.metrics.max_disclosure, again.value().metrics.max_disclosure);
}

// The paper-size table (14,210 records), built once for the multi-chunk
// tests below.
const ExperimentPipeline& PaperPipeline() {
  static const ExperimentPipeline* const pipeline = [] {
    PipelineOptions options = SmallPipeline();
    options.data.num_records = 14210;
    return new ExperimentPipeline(BuildPipeline(options).ValueOrDie());
  }();
  return *pipeline;
}

// The value of `e`'s arg `name`, NaN when it has none.
double SpanArg(const trace::TraceEvent& e, const char* name) {
  for (size_t a = 0; a < trace::TraceEvent::kMaxArgs; ++a) {
    if (e.arg_names[a] != nullptr && std::strcmp(e.arg_names[a], name) == 0) {
      return e.arg_values[a];
    }
  }
  return std::nan("");
}

// One traced session over `kb` at `threads` threads on a fresh solution
// cache.
struct TracedRun {
  Analysis analysis;
  // Every block's cached solution, in plan order: the multipliers, joint
  // and iteration count its solve produced.
  std::vector<std::shared_ptr<const maxent::CachedComponentSolution>> blocks;
  // The block with the most variables, its plan entry and its
  // solve_block span.
  size_t largest = 0;
  maxent::PlanBlock largest_block;
  trace::TraceEvent largest_span;
};

TracedRun RunTraced(const std::shared_ptr<const TableArtifact>& artifact,
                    const knowledge::KnowledgeBase& kb, size_t threads) {
  maxent::SolutionCache cache;
  AnalysisOptions options;
  options.solver_options.threads = threads;
  options.solver_options.solution_cache = &cache;
  const uint64_t trace_id = trace::NewTraceId();
  trace::RequestCapture capture(trace_id);
  Result<Analysis> analysis = Status::Internal("not run");
  {
    trace::TraceIdScope scope(trace_id);
    analysis = AnalysisSession(artifact, options).Run(kb);
  }
  TracedRun out{std::move(analysis).value(), {}, 0, {}, {}};
  // Every solved block is in the cache now: its exact hit carries the
  // multipliers and the joint the solve produced.
  const auto compiled =
      constraints::CompileKnowledge(kb, artifact->table(), artifact->index(),
                                    artifact->qi_encoder())
          .ValueOrDie();
  maxent::BlockPlan plan = maxent::BlockPlan::Build(
      artifact->table(), artifact->index(),
      artifact->options().invariant_options, compiled.constraints);
  maxent::SolverOptions lookup = options.solver_options;
  lookup.cache_namespace = artifact->content_hash();
  plan.ConsultCache(lookup);
  for (size_t i = 0; i < plan.blocks().size(); ++i) {
    out.blocks.push_back(plan.blocks()[i].cached);
    if (plan.blocks()[i].cols.size() >
        plan.blocks()[out.largest].cols.size()) {
      out.largest = i;
    }
  }
  out.largest_block = plan.blocks()[out.largest];
  EXPECT_GT(out.largest_block.cols.size(), 2 * kTeamChunk);
  EXPECT_GT(
      maxent::AssembleBlock(plan, out.largest_block).ValueOrDie().a.rows(),
      2 * kTeamChunk);
  for (const trace::TraceEvent& e : capture.TakeEvents()) {
    if (std::strcmp(e.name, "solve_block") == 0 &&
        SpanArg(e, "block") == static_cast<double>(out.largest)) {
      out.largest_span = e;
    }
  }
  EXPECT_NE(out.largest_span.name, nullptr);
  return out;
}

// Same bits in every block's multipliers, joint, iteration count and dual
// value, and in the metrics (the fixture's ExpectSamePosterior compares
// the posteriors).
void ExpectSameRun(const TracedRun& a, const TracedRun& b) {
  EXPECT_EQ(a.analysis.solver.iterations, b.analysis.solver.iterations);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    ASSERT_NE(a.blocks[i], nullptr) << i;
    ASSERT_NE(b.blocks[i], nullptr) << i;
    EXPECT_EQ(a.blocks[i]->lambda_full, b.blocks[i]->lambda_full) << i;
    EXPECT_EQ(a.blocks[i]->p, b.blocks[i]->p) << i;
    EXPECT_EQ(a.blocks[i]->iterations, b.blocks[i]->iterations) << i;
    EXPECT_EQ(a.blocks[i]->dual_value, b.blocks[i]->dual_value) << i;
  }
  EXPECT_EQ(a.analysis.estimation_accuracy, b.analysis.estimation_accuracy);
  EXPECT_EQ(a.analysis.metrics.max_disclosure,
            b.analysis.metrics.max_disclosure);
}

// A block spanning many chunks — the paper-size table under 64 mined
// two-attribute rules — solves on a team of the spare threads, and its
// multipliers, joint, iteration count and posterior are the same bits at
// 1, 2 and 3 threads.
TEST_F(SessionTest, MultiChunkBlockIsBitIdenticalAcrossThreadCounts) {
  knowledge::KnowledgeBase kb;
  kb.AddRules(knowledge::TopK(PaperPipeline().rules, 64, 0));
  ASSERT_EQ(kb.size(), 64u);
  const auto artifact =
      TableArtifact::BuildBorrowed(PaperPipeline().bucketization.table,
                                   &PaperPipeline().bucketization.qi_encoder)
          .ValueOrDie();

  const TracedRun solo = RunTraced(artifact, kb, 1);
  EXPECT_EQ(SpanArg(solo.largest_span, "team"), 1.0);
  for (size_t threads : {size_t{2}, size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TracedRun team = RunTraced(artifact, kb, threads);
    EXPECT_GT(SpanArg(team.largest_span, "team"), 1.0);
    ExpectSameRun(team, solo);
    ExpectSamePosterior(team.analysis.posterior, solo.analysis.posterior);
  }
}

// The same table under the top 64 rules asserted as >= bounds at 1.4×
// their confidence, as CI's inequality twin gate writes them: the bounds
// bind, so the minimizer's curvature-scaled steps run together with the
// coordinates Box freezes. The dominant block solves on teams of 1 to 4
// members with the same bits, and its solve_block span reports the
// solve's iterations, dual evaluations and convergence.
TEST_F(SessionTest, BoundRowsBlockIsBitIdenticalAcrossTeamSizes) {
  knowledge::KnowledgeBase mined;
  mined.AddRules(knowledge::TopK(PaperPipeline().rules, 64, 0));
  knowledge::KnowledgeBase kb;
  for (knowledge::ConditionalStatement statement : mined.conditionals()) {
    statement.rel = knowledge::Relation::kGe;
    statement.probability *= 1.4;
    ASSERT_LE(statement.probability, 1.0);
    kb.Add(std::move(statement));
  }
  const auto artifact =
      TableArtifact::BuildBorrowed(PaperPipeline().bucketization.table,
                                   &PaperPipeline().bucketization.qi_encoder)
          .ValueOrDie();

  const TracedRun solo = RunTraced(artifact, kb, 1);
  ASSERT_TRUE(solo.analysis.solver.converged);
  const maxent::CachedComponentSolution& dominant =
      *solo.blocks[solo.largest];
  // The request rows are all >= rows, stacked after the block's table
  // rows; a bound binds where its multiplier left 0.
  const maxent::PlanBlock& block = solo.largest_block;
  ASSERT_EQ(block.num_eq, 0u);
  ASSERT_EQ(dominant.lambda_full.size(), block.num_rows());
  size_t binding = 0;
  for (size_t j = block.num_table_rows; j < block.num_rows(); ++j) {
    EXPECT_LE(dominant.lambda_full[j], 0.0) << j;
    if (dominant.lambda_full[j] < 0.0) ++binding;
  }
  EXPECT_GT(binding, 0u);
  EXPECT_EQ(SpanArg(solo.largest_span, "iterations"),
            static_cast<double>(dominant.iterations));
  EXPECT_GT(SpanArg(solo.largest_span, "evaluations"),
            static_cast<double>(dominant.iterations));
  EXPECT_EQ(SpanArg(solo.largest_span, "converged"), 1.0);

  // A session on t threads gives its dominant block the threads the
  // other solves leave: members − 1 more than it solves blocks.
  const size_t solved = solo.analysis.solver.cache_misses;
  for (size_t members = 1; members <= 4; ++members) {
    SCOPED_TRACE("members=" + std::to_string(members));
    const TracedRun team = RunTraced(artifact, kb, members + solved - 1);
    EXPECT_EQ(SpanArg(team.largest_span, "team"),
              static_cast<double>(members));
    ExpectSameRun(team, solo);
    ExpectSamePosterior(team.analysis.posterior, solo.analysis.posterior);
  }
}

// Presolve is a traced solver decision. On CI's 3,000-record smoke table
// the statement P(9th | occupation=tech-support, sex=female) = 0 fixes
// cells of its block, and the block's presolve span and the
// solve.presolve_reductions counter say so; the smoke's statements
// without a zero leave every block as it is.
TEST(PresolveTraceTest, OnlyAZeroStatementChangesItsBlock) {
  PipelineOptions options;
  options.data.num_records = 3000;
  options.anatomy.ell = 5;
  options.mine_rules = false;
  const ExperimentPipeline pipeline = BuildPipeline(options).ValueOrDie();
  const auto artifact =
      TableArtifact::BuildBorrowed(pipeline.bucketization.table,
                                   &pipeline.bucketization.qi_encoder)
          .ValueOrDie();
  const metrics::Counter& reductions =
      metrics::Registry::Global().GetCounter("solve.presolve_reductions");
  struct Run {
    std::vector<trace::TraceEvent> presolve_spans;
    uint64_t reductions = 0;
  };
  const auto run = [&](std::string_view text) {
    knowledge::KnowledgeBase kb;
    knowledge::ParserContext context;
    context.dataset = &pipeline.dataset;
    EXPECT_TRUE(knowledge::ParseKnowledge(text, context, &kb).ok());
    const uint64_t before = reductions.Value();
    const uint64_t trace_id = trace::NewTraceId();
    trace::RequestCapture capture(trace_id);
    {
      trace::TraceIdScope scope(trace_id);
      EXPECT_TRUE(AnalysisSession(artifact, {}).Run(kb).ok());
    }
    Run out;
    out.reductions = reductions.Value() - before;
    for (const trace::TraceEvent& e : capture.TakeEvents()) {
      if (std::strcmp(e.name, "presolve") == 0) {
        out.presolve_spans.push_back(e);
      }
    }
    return out;
  };

  const Run zero = run("P(9th | occupation=tech-support, sex=female) = 0\n");
  ASSERT_EQ(zero.presolve_spans.size(), 1u);
  EXPECT_GT(SpanArg(zero.presolve_spans[0], "fixed"), 0.0);
  EXPECT_GT(SpanArg(zero.presolve_spans[0], "rows_dropped"), 0.0);
  EXPECT_EQ(zero.reductions, 1u);

  const Run none = run(
      "P(assoc-acdm | workclass=federal-gov, marital_status=separated, "
      "native_region=south-america) = 1.0\n"
      "P(masters | age=36-40, occupation=tech-support, race=amer-indian) "
      "= 1.0\n"
      "P(some-college | hours=41-50, native_region=oceania) <= 0.05\n");
  ASSERT_FALSE(none.presolve_spans.empty());
  for (const trace::TraceEvent& e : none.presolve_spans) {
    EXPECT_EQ(SpanArg(e, "fixed"), 0.0);
    EXPECT_EQ(SpanArg(e, "rows_dropped"), 0.0);
  }
  EXPECT_EQ(none.reductions, 0u);
}

}  // namespace
}  // namespace pme::core
