// Medical data publishing: the full PPDP workflow the paper's
// introduction motivates.
//
// A hospital wants to publish patient microdata (demographics + diagnosis).
// The pipeline: (1) generate the cohort, (2) bucketize to ℓ-diversity with
// Anatomy, (3) mine the strongest associations an adversary could know,
// (4) quantify privacy under increasing knowledge bounds, producing the
// (bound, privacy score) tuples the paper argues data owners should see
// before releasing anything.
//
// Run:  ./build/examples/medical_publishing [--records=N] [--ell=L]
// Any other flag, or a value that is not an integer, exits with status 2.

#include <cstdio>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "anonymize/diversity.h"
#include "common/flags.h"
#include "common/prng.h"
#include "core/privacy_maxent.h"
#include "data/dataset.h"
#include "knowledge/miner.h"

namespace {

/// A synthetic patient cohort: age group, sex, smoker status and an
/// occupation class as quasi-identifiers; diagnosis as the sensitive
/// attribute. Diagnoses correlate with the QI attributes (smokers get
/// lung disease more often, males never get breast cancer, ...) so the
/// mined knowledge is medically plausible.
pme::data::Dataset GenerateCohort(size_t n, uint64_t seed) {
  pme::data::Schema schema;
  schema.AddAttribute("age", pme::data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("sex", pme::data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("smoker", pme::data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("job", pme::data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("diagnosis", pme::data::AttributeRole::kSensitive);
  pme::data::Dataset d(std::move(schema));

  const char* ages[] = {"18-35", "36-55", "56-75"};
  const char* sexes[] = {"male", "female"};
  const char* smoker[] = {"yes", "no"};
  const char* jobs[] = {"office", "manual", "healthcare", "retired"};
  const char* dx[] = {"flu",           "hypertension", "lung-cancer",
                      "breast-cancer", "diabetes",     "asthma"};

  pme::Prng prng(seed);
  for (size_t i = 0; i < n; ++i) {
    const int age = static_cast<int>(prng.NextBounded(3));
    const int sex = static_cast<int>(prng.NextBounded(2));
    const int smk = static_cast<int>(prng.NextBounded(2));
    const int job = age == 2 && prng.NextDouble() < 0.5
                        ? 3
                        : static_cast<int>(prng.NextBounded(3));
    // Diagnosis weights shaped by the demographics.
    std::vector<double> w = {1.0, 0.4, 0.1, 0.1, 0.4, 0.5};
    if (smk == 0) w[2] += 1.6;                 // smokers: lung cancer
    if (sex == 1) w[3] += 0.9; else w[3] = 0;  // breast cancer: females only
    if (age == 2) { w[1] += 1.2; w[4] += 0.8; }  // older: chronic illness
    if (age == 0) { w[0] += 1.0; w[5] += 0.6; }  // younger: flu/asthma
    const int diag = static_cast<int>(prng.NextCategorical(w));
    (void)d.AppendRecordValues(
        {ages[age], sexes[sex], smoker[smk], jobs[job], dx[diag]});
  }
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  if (const pme::Status s = flags.Check({}, {"records", "ell"}); !s.ok()) {
    std::fprintf(stderr, "medical_publishing: %s\n", s.ToString().c_str());
    return 2;
  }
  const size_t records = static_cast<size_t>(flags.GetInt("records", 2000));
  const size_t ell = static_cast<size_t>(flags.GetInt("ell", 4));

  std::printf("== Hospital publishing workflow (Privacy-MaxEnt) ==\n");
  auto cohort = GenerateCohort(records, 7);
  std::printf("cohort: %zu patients, 4 QI attributes, 6 diagnoses\n",
              cohort.num_records());

  // Bucketize to ℓ-diversity with the Anatomy partitioner.
  pme::anonymize::AnatomyOptions anatomy;
  anatomy.ell = ell;
  auto partition = pme::anonymize::AnatomyPartition(cohort, anatomy);
  if (!partition.ok()) {
    std::fprintf(stderr, "bucketization failed: %s\n",
                 partition.status().ToString().c_str());
    return 1;
  }
  auto bz = pme::anonymize::BucketizeDataset(cohort, partition.value())
                .ValueOrDie();
  const auto exempt = pme::anonymize::MostFrequentSa(bz.table);
  auto diversity = pme::anonymize::MeasureDiversity(bz.table, exempt, ell);
  std::printf("published: %zu buckets of %zu; min distinct diversity %zu\n",
              bz.table.num_buckets(), ell, diversity.min_distinct);

  // Mine the associations an adversary could plausibly know.
  pme::knowledge::MinerOptions miner;
  miner.min_support_records = 3;
  miner.max_attrs = 3;
  auto rules =
      pme::knowledge::MineAssociationRules(cohort, miner).ValueOrDie();
  std::printf("mined %zu candidate association rules; strongest five:\n",
              rules.size());
  for (size_t i = 0; i < rules.size() && i < 5; ++i) {
    std::printf("  %s\n", rules[i].ToString(cohort).c_str());
  }

  // Quantify privacy under increasing Top-(K+, K-) bounds: the outcome
  // the paper recommends — a (bound, privacy score) table.
  std::printf("\n%8s %8s %12s %14s %12s\n", "K+", "K-", "est.accuracy",
              "max.disclosure", "best.guess");
  for (size_t k : {0, 5, 20, 80, 320}) {
    auto top = pme::knowledge::TopK(rules, k, k);
    pme::knowledge::KnowledgeBase kb;
    kb.AddRules(top);
    auto analysis =
        pme::core::Analyze(bz.table, kb, {}, &bz.qi_encoder).ValueOrDie();
    std::printf("%8zu %8zu %12.4f %14.4f %12.4f\n", k, k,
                analysis.estimation_accuracy,
                analysis.metrics.max_disclosure,
                analysis.metrics.expected_best_guess);
  }
  std::printf(
      "\nReading: estimation accuracy is the weighted KL distance between\n"
      "the adversary's MaxEnt posterior and the original data — smaller\n"
      "means less privacy. The data owner picks the bound they consider\n"
      "realistic and judges the residual risk at that row.\n");
  return 0;
}
