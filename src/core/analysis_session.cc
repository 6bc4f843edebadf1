#include "core/analysis_session.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "constraints/bk_compiler.h"
#include "constraints/system.h"
#include "maxent/block_plan.h"
#include "maxent/decomposed.h"
#include "maxent/problem.h"

namespace pme::core {

AnalysisSession::AnalysisSession(
    std::shared_ptr<const TableArtifact> artifact, AnalysisOptions options)
    : artifact_(std::move(artifact)), options_(std::move(options)) {}

Result<Analysis> AnalysisSession::Run(const knowledge::KnowledgeBase& kb) const {
  return Run(kb, options_);
}

Result<Analysis> AnalysisSession::Run(const knowledge::KnowledgeBase& kb,
                                      const AnalysisOptions& options) const {
  if (artifact_ == nullptr) {
    return Status::InvalidArgument("AnalysisSession: null artifact");
  }
  if (!kb.individuals().empty()) {
    return Status::InvalidArgument(
        "knowledge about individuals requires the pseudonym-expanded "
        "IndividualModel (core/individual_model.h)");
  }
  const TableArtifact& artifact = *artifact_;
  const constraints::TermIndex& index = artifact.index();

  trace::TraceSpan session_span("session_run", "session");

  constraints::CompiledKnowledge compiled;
  {
    trace::TraceSpan compile_span("compile", "session");
    PME_ASSIGN_OR_RETURN(
        compiled, constraints::CompileKnowledge(kb, artifact.table(), index,
                                                artifact.qi_encoder(),
                                                &artifact.qi_postings()));
    compile_span.AddArg("constraints",
                        static_cast<double>(compiled.constraints.size()));
  }

  AnalysisOptions run_options = options;
  // Per-artifact cache namespace, unless the caller already chose one.
  if (run_options.solver_options.cache_namespace == Hash128{}) {
    run_options.solver_options.cache_namespace = artifact.content_hash();
  }

  // The plan couples only the buckets the knowledge rows touch and pulls
  // just their invariant rows from the artifact; every other bucket
  // stays at the Theorem-5 closed form.
  maxent::BlockPlan plan;
  bool decomposed = false;
  {
    trace::TraceSpan plan_span("plan", "session");
    plan = maxent::BlockPlan::Build(
        index, &artifact.invariants(), &artifact.invariant_rows_by_bucket(),
        compiled.constraints,
        run_options.solver_options.monolithic_fallback_fraction);
    decomposed = run_options.use_decomposition && !plan.monolithic();
    if (decomposed) plan.ConsultCache(run_options.solver_options);
    plan_span.AddArg("blocks", static_cast<double>(plan.blocks().size()));
  }

  Analysis analysis;
  analysis.num_invariant_constraints = artifact.invariants().size();
  analysis.num_background_constraints = compiled.constraints.size();
  analysis.num_vacuous_statements = compiled.num_vacuous;
  analysis.decomposition = maxent::AnalyzeDecomposition(plan);

  {
    trace::TraceSpan solve_span("solve", "session");
    if (decomposed) {
      PME_ASSIGN_OR_RETURN(
          analysis.solver,
          maxent::SolveDecomposed(
              plan,
              std::shared_ptr<const std::vector<double>>(
                  artifact_, &artifact.closed_form_prior()),
              artifact.closed_form_prior_entropy(), run_options.solver,
              run_options.solver_options));
      // Per-block solve effort, aligned with the decomposition census's
      // block numbering (component_outcomes are emitted in block-id order).
      for (const auto& outcome : analysis.solver.component_outcomes) {
        analysis.decomposition.coupled_component_iterations.push_back(
            outcome.iterations);
        analysis.decomposition.coupled_component_seconds.push_back(
            outcome.seconds);
      }
    } else {
      // The monolithic paths solve one problem over the whole system, in
      // Analyze's historical row order: invariant rows, then knowledge.
      constraints::ConstraintSystem system(index.num_variables());
      system.AddAll(artifact.invariants());
      system.AddAll(std::move(compiled.constraints));
      if (run_options.use_decomposition) {
        PME_ASSIGN_OR_RETURN(
            analysis.solver,
            maxent::SolveMonolithic(system, run_options.solver,
                                    run_options.solver_options));
      } else {
        PME_ASSIGN_OR_RETURN(auto problem, maxent::BuildProblem(system));
        PME_ASSIGN_OR_RETURN(
            analysis.solver,
            maxent::Solve(problem, run_options.solver,
                          run_options.solver_options));
      }
    }
    solve_span.AddArg("iterations",
                      static_cast<double>(analysis.solver.iterations));
    solve_span.AddArg(
        "components",
        static_cast<double>(analysis.decomposition.num_components));
  }

  // Evaluation. A decomposed solve moves only the coupled buckets off the
  // prior, so only the posterior rows of their QI instances can differ
  // from the artifact's prior posterior: the posterior is an overlay of
  // exactly those rows, and the evaluation re-derives just their slices
  // before one fold over q. RecomputeRow and the fold replay the full
  // rebuild's arithmetic, so both paths agree bit for bit. The
  // monolithic paths may move any coordinate and evaluate from scratch.
  trace::TraceSpan evaluate_span("evaluate", "session");
  if (decomposed) {
    std::vector<uint32_t> touched;
    for (const maxent::PlanBlock& block : plan.blocks()) {
      for (const uint32_t b : block.buckets) {
        const auto& qs = index.BucketQiList(b);
        touched.insert(touched.end(), qs.begin(), qs.end());
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    evaluate_span.AddArg("touched_rows", static_cast<double>(touched.size()));
    analysis.posterior = PosteriorTable::Overlay(
        std::shared_ptr<const PosteriorTable>(artifact_,
                                              &artifact.prior_posterior()),
        std::move(touched));
    const auto& q_offsets = artifact.q_var_offsets();
    const auto& q_vars = artifact.q_vars();
    const maxent::JointView joint(plan, analysis.solver);
    for (const uint32_t q : analysis.posterior.overridden_rows()) {
      analysis.posterior.RecomputeRow(q, q_vars.data() + q_offsets[q],
                                      q_offsets[q + 1] - q_offsets[q], index,
                                      joint);
    }
    EvaluateOverlay(artifact.ground_truth(), analysis.posterior,
                    artifact.prior_evaluation(),
                    &analysis.estimation_accuracy, &analysis.metrics);
  } else {
    analysis.posterior = PosteriorTable::FromSolution(artifact.table(), index,
                                                      analysis.solver.p);
    analysis.estimation_accuracy =
        EstimationAccuracy(artifact.ground_truth(), analysis.posterior);
    analysis.metrics = ComputePrivacyMetrics(analysis.posterior);
  }
  return analysis;
}

}  // namespace pme::core
