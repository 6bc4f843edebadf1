#include "tests/support/experiment.h"

namespace pme::core {

Result<ExperimentPipeline> BuildPipeline(const PipelineOptions& options) {
  PME_ASSIGN_OR_RETURN(data::Dataset dataset,
                       data::GenerateAdultLike(options.data));
  PME_ASSIGN_OR_RETURN(auto partition,
                       anonymize::AnatomyPartition(dataset, options.anatomy));
  PME_ASSIGN_OR_RETURN(auto bucketization,
                       anonymize::BucketizeDataset(dataset, partition));
  std::vector<knowledge::AssociationRule> rules;
  if (options.mine_rules) {
    PME_ASSIGN_OR_RETURN(
        rules, knowledge::MineAssociationRules(dataset, options.miner));
  }
  return ExperimentPipeline{std::move(dataset), std::move(bucketization),
                            std::move(rules)};
}

Result<Analysis> AnalyzeWithRules(
    const ExperimentPipeline& pipeline,
    const std::vector<knowledge::AssociationRule>& rules,
    const AnalysisOptions& options) {
  knowledge::KnowledgeBase kb;
  kb.AddRules(rules);
  return Analyze(pipeline.bucketization.table, kb, options,
                 &pipeline.bucketization.qi_encoder);
}

}  // namespace pme::core
