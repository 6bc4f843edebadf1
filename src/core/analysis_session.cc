#include "core/analysis_session.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/id_set.h"
#include "common/trace.h"
#include "constraints/bk_compiler.h"
#include "maxent/block_plan.h"
#include "maxent/decomposed.h"

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
        compiled, constraints::CompileKnowledge(
                      kb, artifact.table(), index, artifact.qi_encoder(),
                      &artifact.qi_postings(), &artifact.term_memo()));
    compile_span.AddArg("constraints",
                        static_cast<double>(compiled.constraints.size()));
    compile_span.AddArg("memo_hits", static_cast<double>(compiled.memo_hits));
  }

  AnalysisOptions run_options = options;
  // Per-artifact cache namespace, unless the caller already chose one.
  if (run_options.solver_options.cache_namespace == Hash128{}) {
    run_options.solver_options.cache_namespace = artifact.content_hash();
  }

  // The plan couples only the buckets the knowledge rows touch; their
  // invariant rows follow from their counts, and every other bucket
  // stays at the Theorem-5 closed form. Without the decomposition, every
  // bucket joins one block: the whole table as one problem.
  maxent::BlockPlan plan;
  {
    trace::TraceSpan plan_span("plan", "session");
    plan = maxent::BlockPlan::Build(
        artifact.table(), index, artifact.options().invariant_options,
        compiled.constraints, !run_options.use_decomposition);
    plan.ConsultCache(run_options.solver_options);
    plan_span.AddArg("rows_hashed", static_cast<double>(plan.rows_hashed()));
    plan_span.AddArg("warm_withheld",
                     static_cast<double>(plan.warm_withheld()));
  }

  Analysis analysis;
  analysis.num_invariant_constraints = artifact.num_invariant_rows();
  analysis.num_background_constraints = compiled.constraints.size();
  analysis.num_vacuous_statements = compiled.num_vacuous;
  analysis.decomposition = maxent::AnalyzeDecomposition(plan);

  {
    trace::TraceSpan solve_span("solve", "session");
    PME_ASSIGN_OR_RETURN(
        analysis.solver,
        maxent::SolveDecomposed(
            plan,
            std::shared_ptr<const std::vector<double>>(
                artifact_, &artifact.closed_form_prior()),
            artifact.closed_form_prior_entropy(),
            run_options.solver_options));
    // Per-block solve effort, aligned with the decomposition census's
    // block numbering (component_outcomes are emitted in block-id order).
    for (const auto& outcome : analysis.solver.component_outcomes) {
      analysis.decomposition.coupled_component_iterations.push_back(
          outcome.iterations);
      analysis.decomposition.coupled_component_seconds.push_back(
          outcome.seconds);
    }
    solve_span.AddArg("iterations",
                      static_cast<double>(analysis.solver.iterations));
    solve_span.AddArg(
        "components",
        static_cast<double>(analysis.decomposition.num_components));
  }

  // Evaluation. The solve moves only the blocks' buckets off the prior,
  // so only the posterior rows of their QI instances can differ from the
  // artifact's prior posterior: the posterior is an overlay of exactly
  // those rows, and the evaluation re-derives just their slices within
  // one fold over q. RecomputeRows and the fold replay the full
  // rebuild's arithmetic, so the overlay equals a rebuild bit for bit.
  trace::TraceSpan evaluate_span("evaluate", "session");
  // The QI instances of the blocks' buckets, ascending.
  IdSet touched_set(artifact.table().num_qi_values());
  for (const maxent::PlanBlock& block : plan.blocks()) {
    for (const uint32_t b : block.buckets) {
      for (const uint32_t q : index.BucketQiList(b)) touched_set.Insert(q);
    }
  }
  std::vector<uint32_t> touched = touched_set.Members();
  evaluate_span.AddArg("touched_rows", static_cast<double>(touched.size()));
  analysis.posterior = PosteriorTable::Overlay(
      std::shared_ptr<const PosteriorTable>(artifact_,
                                            &artifact.prior_posterior()),
      std::move(touched));
  analysis.posterior.RecomputeRows(artifact.q_var_offsets(),
                                   artifact.q_vars(), index,
                                   maxent::JointView(plan, analysis.solver));
  EvaluateOverlay(artifact.ground_truth(), analysis.posterior,
                  artifact.prior_evaluation(), &analysis.estimation_accuracy,
                  &analysis.metrics);
  return analysis;
}

}  // namespace pme::core
