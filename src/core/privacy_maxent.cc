#include "core/privacy_maxent.h"

#include "core/analysis_session.h"
#include "core/table_artifact.h"

namespace pme::core {

Result<Analysis> Analyze(const anonymize::BucketizedTable& table,
                         const knowledge::KnowledgeBase& kb,
                         const AnalysisOptions& options,
                         const data::TupleEncoder* qi_encoder) {
  // Thin wrapper over the artifact/session split: build a throwaway
  // borrowed artifact (table-side precompilation) and run one session
  // against it. Long-lived callers — pme serve, pme analyze --repeat —
  // hold the artifact and skip this per-call rebuild.
  PME_ASSIGN_OR_RETURN(auto artifact,
                       TableArtifact::BuildBorrowed(table, qi_encoder));
  return AnalysisSession(std::move(artifact), options).Run(kb);
}

}  // namespace pme::core
