// Bound explorer: "what should I assume the adversary knows?"
//
// Section 4.3 of the paper argues the outcome of privacy quantification
// should be a *tuple* (assumed knowledge bound, privacy score), letting
// the data owner pick the assumption they believe. This tool sweeps the
// Top-(K+, K-) bound on the Adult-like benchmark dataset and prints the
// whole frontier, including the T-restricted variants of Figure 6.
//
// Run:  ./build/examples/bound_explorer [--records=N] [--maxattrs=M]
//                                       [--kmax=K] [--t=T]
// Any other flag, or a value that is not an integer, exits with status 2.

#include <cstdio>
#include <vector>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/flags.h"
#include "core/privacy_maxent.h"
#include "data/adult_synth.h"
#include "knowledge/knowledge_base.h"
#include "knowledge/miner.h"

namespace {

int Fail(const char* stage, const pme::Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", stage, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  if (const pme::Status s =
          flags.Check({}, {"records", "maxattrs", "kmax", "t"});
      !s.ok()) {
    std::fprintf(stderr, "bound_explorer: %s\n", s.ToString().c_str());
    return 2;
  }
  pme::data::AdultSynthOptions data_options;
  data_options.num_records =
      static_cast<size_t>(flags.GetInt("records", 1500));
  pme::anonymize::AnatomyOptions anatomy_options;
  anatomy_options.ell = 5;
  pme::knowledge::MinerOptions miner_options;
  miner_options.min_support_records = 3;
  miner_options.max_attrs = static_cast<size_t>(flags.GetInt("maxattrs", 3));
  const size_t kmax = static_cast<size_t>(flags.GetInt("kmax", 600));

  std::printf("building pipeline (%zu records, mining up to %zu-attribute "
              "rules)...\n",
              data_options.num_records, miner_options.max_attrs);
  // The public pipeline: synthesize, bucketize with Anatomy, mine the
  // adversary's candidate knowledge.
  auto dataset = pme::data::GenerateAdultLike(data_options);
  if (!dataset.ok()) return Fail("synthesis", dataset.status());
  auto partition =
      pme::anonymize::AnatomyPartition(dataset.value(), anatomy_options);
  if (!partition.ok()) return Fail("anatomy", partition.status());
  auto bucketization =
      pme::anonymize::BucketizeDataset(dataset.value(), partition.value());
  if (!bucketization.ok()) return Fail("bucketize", bucketization.status());
  auto mined =
      pme::knowledge::MineAssociationRules(dataset.value(), miner_options);
  if (!mined.ok()) return Fail("mining", mined.status());
  const pme::anonymize::BucketizedTable& table = bucketization.value().table;

  auto rules = mined.value();
  if (flags.Has("t")) {
    const size_t t = static_cast<size_t>(flags.GetInt("t", 1));
    rules = pme::knowledge::FilterByNumAttributes(rules, t);
    std::printf("restricted to rules with exactly %zu QI attributes: %zu "
                "remain\n",
                t, rules.size());
  }

  std::printf("\nknowledge-bound frontier (privacy at each assumption):\n");
  std::printf("%10s %12s %14s %14s %16s\n", "bound K", "est.accuracy",
              "max.disclosure", "entropy", "relevant.buckets");
  std::vector<size_t> ks = {0, 1, 2, 4, 8};
  for (size_t k = 16; k <= kmax; k *= 2) ks.push_back(k);
  for (size_t k : ks) {
    pme::knowledge::KnowledgeBase kb;
    kb.AddRules(pme::knowledge::TopK(rules, k / 2, k - k / 2));
    auto analysis = pme::core::Analyze(table, kb, {},
                                       &bucketization.value().qi_encoder);
    if (!analysis.ok()) {
      std::fprintf(stderr, "K=%zu failed: %s\n", k,
                   analysis.status().ToString().c_str());
      return 1;
    }
    std::printf("%10zu %12.4f %14.4f %14.2f %11zu/%zu\n", k,
                analysis.value().estimation_accuracy,
                analysis.value().metrics.max_disclosure,
                analysis.value().solver.entropy,
                analysis.value().decomposition.relevant_buckets,
                table.num_buckets());
  }
  std::printf(
      "\nEach row is one (bound, privacy score) tuple. Publish only if the\n"
      "score at the bound you believe realistic is still acceptable.\n");
  return 0;
}
