// Tests for src/anonymize: the bucketized table (Figure 1(c)), the
// Anatomy ℓ-diversity bucketizer, diversity checkers, and the pseudonym
// expansion (Figure 4).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "anonymize/diversity.h"
#include "anonymize/pseudonym.h"
#include "common/trace.h"
#include "data/adult_synth.h"
#include "tests/test_util.h"

namespace pme::anonymize {
namespace {

using testing::kQ1;
using testing::kQ2;
using testing::kQ3;
using testing::kQ4;
using testing::kQ5;
using testing::kQ6;
using testing::kS1;
using testing::kS2;
using testing::kS3;
using testing::kS4;
using testing::kS5;

// ----------------------------------------------------- BucketizedTable

TEST(BucketizedTableTest, Figure1Shape) {
  auto t = testing::MakeFigure1Table();
  EXPECT_EQ(t.num_records(), 10u);
  EXPECT_EQ(t.num_buckets(), 3u);
  EXPECT_EQ(t.num_qi_values(), 6u);
  EXPECT_EQ(t.num_sa_values(), 5u);
  EXPECT_EQ(t.BucketQis(0).size(), 4u);
  EXPECT_EQ(t.BucketQis(1).size(), 3u);
  EXPECT_EQ(t.BucketQis(2).size(), 3u);
}

TEST(BucketizedTableTest, PaperProbabilities) {
  auto t = testing::MakeFigure1Table();
  // Paper: P(q1, 1) = 2/10.
  EXPECT_DOUBLE_EQ(t.ProbQB(kQ1, 0), 0.2);
  // Paper: P(s4, 2) = 1/10 (bucket index 1 here).
  EXPECT_DOUBLE_EQ(t.ProbSB(kS4, 1), 0.1);
  // P(q1) = 3/10 (twice in bucket 1, once in bucket 2).
  EXPECT_DOUBLE_EQ(t.ProbQ(kQ1), 0.3);
  // P(male) analog: q3 occurs in buckets 1 and 2.
  EXPECT_DOUBLE_EQ(t.ProbQ(kQ3), 0.2);
  EXPECT_DOUBLE_EQ(t.ProbB(0), 0.4);
  EXPECT_DOUBLE_EQ(t.ProbB(1), 0.3);
}

TEST(BucketizedTableTest, MembershipAndZeroInvariantFacts) {
  auto t = testing::MakeFigure1Table();
  // Paper: q1 does not appear in the 3rd bucket; s1 does not either.
  EXPECT_FALSE(t.QiInBucket(kQ1, 2));
  EXPECT_FALSE(t.SaInBucket(kS1, 2));
  EXPECT_TRUE(t.QiInBucket(kQ1, 0));
  EXPECT_TRUE(t.SaInBucket(kS4, 1));
  EXPECT_EQ(testing::ToVector(t.BucketsWithQi(kQ1)),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(testing::ToVector(t.BucketsWithSa(kS2)),
            (std::vector<uint32_t>{0, 2}));
}

TEST(BucketizedTableTest, SaMultisetIsSortedAndCounted) {
  auto t = testing::MakeFigure1Table();
  EXPECT_EQ(testing::ToVector(t.BucketSas(0)),
            (std::vector<uint32_t>{kS1, kS2, kS2, kS3}));
  const auto counts = t.BucketSaCounts(0);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].id, kS1);
  EXPECT_EQ(counts[0].count, 1u);
  EXPECT_EQ(counts[1].id, kS2);
  EXPECT_EQ(counts[1].count, 2u);
}

TEST(BucketizedTableTest, TrueConditionalMatchesOriginalData) {
  auto t = testing::MakeFigure1Table();
  // Allen/Brian/Ethan are q1 with diseases s2, s3, s4: each 1/3.
  EXPECT_NEAR(t.TrueConditional(kQ1, kS2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(t.TrueConditional(kQ1, kS1), 0.0, 1e-12);
  // Cathy and Helen are q2 with s1 and s4.
  EXPECT_NEAR(t.TrueConditional(kQ2, kS1), 0.5, 1e-12);
  EXPECT_NEAR(t.TrueConditional(kQ2, kS4), 0.5, 1e-12);
}

TEST(BucketizedTableTest, DefaultNamesFollowPaperNotation) {
  auto t = testing::MakeFigure1Table();
  EXPECT_EQ(t.QiName(kQ1), "q1");
  EXPECT_EQ(t.SaName(kS5), "s5");
}

TEST(BucketizedTableTest, RejectsEmptyAndSparseBuckets) {
  EXPECT_FALSE(BucketizedTable::Create({}).ok());
  // Bucket 0 missing (only bucket 1 used).
  std::vector<AbstractRecord> sparse = {{0, 0, 1}};
  EXPECT_FALSE(BucketizedTable::Create(sparse).ok());
}

TEST(BucketizeDatasetTest, MatchesAbstractForm) {
  auto dataset = testing::MakeFigure1Dataset();
  auto bz = BucketizeDataset(dataset, testing::Figure1Partition()).ValueOrDie();
  const auto& t = bz.table;
  auto ref = testing::MakeFigure1Table();
  ASSERT_EQ(t.num_records(), ref.num_records());
  ASSERT_EQ(t.num_qi_values(), ref.num_qi_values());
  for (size_t i = 0; i < t.records().size(); ++i) {
    EXPECT_EQ(t.records()[i].qi, ref.records()[i].qi);
    EXPECT_EQ(t.records()[i].sa, ref.records()[i].sa);
    EXPECT_EQ(t.records()[i].bucket, ref.records()[i].bucket);
  }
  EXPECT_EQ(t.QiName(kQ1), "gender=male,degree=college");
  EXPECT_EQ(t.SaName(kS1), "breast-cancer");
}

TEST(BucketizeDatasetTest, PartitionSizeMustMatch) {
  auto dataset = testing::MakeFigure1Dataset();
  EXPECT_FALSE(BucketizeDataset(dataset, {0, 1}).ok());
}

// ------------------------------------- CSR layout against a map oracle

/// The published view of a bucketized table built the direct way, with a
/// std::map of counts per bucket and a vector per list: the oracle for
/// BucketizedTable's CSR layout.
struct ReferenceTable {
  explicit ReferenceTable(const std::vector<AbstractRecord>& records)
      : n(records.size()) {
    uint32_t max_bucket = 0;
    for (const auto& r : records) {
      max_bucket = std::max(max_bucket, r.bucket);
      num_qi = std::max(num_qi, r.qi + 1);
      num_sa = std::max(num_sa, r.sa + 1);
    }
    bucket_qis.resize(max_bucket + 1);
    bucket_sas.resize(max_bucket + 1);
    qi_counts.resize(max_bucket + 1);
    sa_counts.resize(max_bucket + 1);
    qi_buckets.resize(num_qi);
    sa_buckets.resize(num_sa);
    qi_totals.assign(num_qi, 0);
    for (const auto& r : records) {
      bucket_qis[r.bucket].push_back(r.qi);
      bucket_sas[r.bucket].push_back(r.sa);
      ++qi_counts[r.bucket][r.qi];
      ++sa_counts[r.bucket][r.sa];
      ++qi_totals[r.qi];
    }
    for (uint32_t b = 0; b <= max_bucket; ++b) {
      std::sort(bucket_sas[b].begin(), bucket_sas[b].end());
      for (const auto& [q, cnt] : qi_counts[b]) qi_buckets[q].push_back(b);
      for (const auto& [s, cnt] : sa_counts[b]) sa_buckets[s].push_back(b);
    }
  }

  double Fraction(size_t count) const {
    return static_cast<double>(count) / static_cast<double>(n);
  }

  size_t n = 0;
  uint32_t num_qi = 0;
  uint32_t num_sa = 0;
  std::vector<std::vector<uint32_t>> bucket_qis;
  std::vector<std::vector<uint32_t>> bucket_sas;
  std::vector<std::map<uint32_t, uint32_t>> qi_counts;
  std::vector<std::map<uint32_t, uint32_t>> sa_counts;
  std::vector<std::vector<uint32_t>> qi_buckets;
  std::vector<std::vector<uint32_t>> sa_buckets;
  std::vector<size_t> qi_totals;
};

using CountPairs = std::vector<std::pair<uint32_t, uint32_t>>;

CountPairs RunPairs(Span<const IdCount> runs) {
  CountPairs out;
  for (const auto& [id, count] : runs) out.emplace_back(id, count);
  return out;
}

/// Every accessor of `t` against the oracle; probabilities bit for bit.
void ExpectMatchesReference(const BucketizedTable& t,
                            const ReferenceTable& ref) {
  ASSERT_EQ(t.num_records(), ref.n);
  ASSERT_EQ(t.num_buckets(), ref.bucket_qis.size());
  ASSERT_EQ(t.num_qi_values(), ref.num_qi);
  ASSERT_EQ(t.num_sa_values(), ref.num_sa);
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    EXPECT_EQ(testing::ToVector(t.BucketQis(b)), ref.bucket_qis[b]);
    EXPECT_EQ(testing::ToVector(t.BucketSas(b)), ref.bucket_sas[b]);
    EXPECT_EQ(RunPairs(t.BucketQiCounts(b)),
              CountPairs(ref.qi_counts[b].begin(), ref.qi_counts[b].end()));
    EXPECT_EQ(RunPairs(t.BucketSaCounts(b)),
              CountPairs(ref.sa_counts[b].begin(), ref.sa_counts[b].end()));
    EXPECT_EQ(t.ProbB(b), ref.Fraction(ref.bucket_qis[b].size()));
    for (uint32_t q = 0; q < ref.num_qi; ++q) {
      const auto it = ref.qi_counts[b].find(q);
      const bool present = it != ref.qi_counts[b].end();
      EXPECT_EQ(t.QiInBucket(q, b), present) << "q" << q << " b" << b;
      EXPECT_EQ(t.ProbQB(q, b), present ? ref.Fraction(it->second) : 0.0);
    }
    for (uint32_t s = 0; s < ref.num_sa; ++s) {
      const auto it = ref.sa_counts[b].find(s);
      const bool present = it != ref.sa_counts[b].end();
      EXPECT_EQ(t.SaInBucket(s, b), present) << "s" << s << " b" << b;
      EXPECT_EQ(t.ProbSB(s, b), present ? ref.Fraction(it->second) : 0.0);
    }
  }
  for (uint32_t q = 0; q < ref.num_qi; ++q) {
    EXPECT_EQ(testing::ToVector(t.BucketsWithQi(q)), ref.qi_buckets[q]);
    EXPECT_EQ(t.ProbQ(q), ref.Fraction(ref.qi_totals[q]));
  }
  for (uint32_t s = 0; s < ref.num_sa; ++s) {
    EXPECT_EQ(testing::ToVector(t.BucketsWithSa(s)), ref.sa_buckets[s]);
  }
}

TEST(BucketizedTableTest, CsrLayoutMatchesMapReference) {
  std::mt19937 rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Small id ranges force a QI repeated inside a bucket, QIs spread
    // over several buckets and SA multiplicities; bucket 0 always holds
    // a single record. Records arrive shuffled across buckets.
    const uint32_t num_buckets = 1 + rng() % 30;
    const uint32_t qi_range = 1 + rng() % 25;
    const uint32_t sa_range = 1 + rng() % 6;
    std::vector<AbstractRecord> records;
    for (uint32_t b = 0; b < num_buckets; ++b) {
      const uint32_t size = b == 0 ? 1 : 1 + rng() % 8;
      for (uint32_t i = 0; i < size; ++i) {
        records.push_back({static_cast<uint32_t>(rng() % qi_range),
                           static_cast<uint32_t>(rng() % sa_range), b});
      }
    }
    std::shuffle(records.begin(), records.end(), rng);
    const ReferenceTable ref(records);
    const auto t = BucketizedTable::Create(records).ValueOrDie();
    ExpectMatchesReference(t, ref);
    for (uint32_t q = 0; q < ref.num_qi; ++q) {
      EXPECT_EQ(t.QiName(q), "q" + std::to_string(q + 1));
    }
  }
}

TEST(BucketizedTableTest, BucketizeDatasetMatchesMapReference) {
  data::AdultSynthOptions options;
  options.num_records = 3000;
  options.seed = 5;
  const auto dataset = data::GenerateAdultLike(options).ValueOrDie();
  AnatomyOptions anatomy;
  anatomy.ell = 5;
  const auto partition = AnatomyPartition(dataset, anatomy).ValueOrDie();
  const auto bz = BucketizeDataset(dataset, partition).ValueOrDie();

  // Reference encoding: QI tuples interned in first-seen order through a
  // std::map, labels joined by hand.
  const data::Schema& schema = dataset.schema();
  const std::vector<size_t> qi_attrs = schema.QiIndices();
  const size_t sa_attr = schema.SoleSensitiveIndex().ValueOrDie();
  std::map<std::vector<uint32_t>, uint32_t> ids;
  std::vector<std::vector<uint32_t>> tuples;
  std::vector<std::string> names;
  std::vector<AbstractRecord> records;
  for (size_t r = 0; r < dataset.num_records(); ++r) {
    std::vector<uint32_t> tuple;
    for (size_t attr : qi_attrs) tuple.push_back(dataset.At(r, attr));
    const auto [it, inserted] =
        ids.emplace(tuple, static_cast<uint32_t>(tuples.size()));
    if (inserted) {
      std::string name;
      for (size_t i = 0; i < qi_attrs.size(); ++i) {
        if (i > 0) name += ",";
        name += schema.attribute(qi_attrs[i]).name + "=" +
                dataset.ValueAt(r, qi_attrs[i]);
      }
      tuples.push_back(tuple);
      names.push_back(name);
    }
    records.push_back({it->second, dataset.At(r, sa_attr), partition[r]});
  }

  ASSERT_EQ(bz.sa_attr, sa_attr);
  ASSERT_EQ(bz.qi_encoder.size(), tuples.size());
  for (uint32_t q = 0; q < tuples.size(); ++q) {
    EXPECT_EQ(testing::ToVector(bz.qi_encoder.Decode(q)), tuples[q]);
    EXPECT_EQ(bz.table.QiName(q), names[q]);
  }
  for (uint32_t s = 0; s < bz.table.num_sa_values(); ++s) {
    EXPECT_EQ(bz.table.SaName(s),
              schema.attribute(sa_attr).dictionary.ValueOf(s));
  }
  ASSERT_EQ(bz.table.records().size(), records.size());
  for (size_t r = 0; r < records.size(); ++r) {
    EXPECT_EQ(bz.table.records()[r].qi, records[r].qi);
    EXPECT_EQ(bz.table.records()[r].sa, records[r].sa);
    EXPECT_EQ(bz.table.records()[r].bucket, records[r].bucket);
  }
  ExpectMatchesReference(bz.table, ReferenceTable(records));
}

TEST(BucketizedTableTest, BucketizeRecordsOneSpanWithItsSizes) {
  data::AdultSynthOptions options;
  options.num_records = 500;
  const auto dataset = data::GenerateAdultLike(options).ValueOrDie();
  AnatomyOptions anatomy;
  anatomy.ell = 5;
  const auto partition = AnatomyPartition(dataset, anatomy).ValueOrDie();
  const uint64_t trace_id = trace::NewTraceId();
  trace::RequestCapture capture(trace_id);
  Result<DatasetBucketization> bz = Status::Internal("not run");
  {
    trace::TraceIdScope scope(trace_id);
    bz = BucketizeDataset(dataset, partition);
  }
  ASSERT_TRUE(bz.ok());
  const auto events = capture.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  const trace::TraceEvent& e = events[0];
  EXPECT_STREQ(e.name, "bucketize");
  ASSERT_NE(e.arg_names[1], nullptr);
  EXPECT_STREQ(e.arg_names[0], "records");
  EXPECT_EQ(e.arg_values[0], 500.0);
  EXPECT_STREQ(e.arg_names[1], "qi_values");
  EXPECT_EQ(e.arg_values[1], static_cast<double>(bz.value().qi_encoder.size()));
}

// ------------------------------------------------------------- Anatomy

TEST(AnatomyTest, ProducesEllSizedDiverseBuckets) {
  data::AdultSynthOptions options;
  options.num_records = 1000;
  auto dataset = data::GenerateAdultLike(options).ValueOrDie();
  AnatomyOptions anatomy;
  anatomy.ell = 5;
  auto partition = AnatomyPartition(dataset, anatomy).ValueOrDie();
  auto bz = BucketizeDataset(dataset, partition).ValueOrDie();
  EXPECT_EQ(bz.table.num_buckets(), 200u);  // 1000 / 5

  const uint32_t exempt = MostFrequentSa(bz.table);
  for (uint32_t b = 0; b < bz.table.num_buckets(); ++b) {
    EXPECT_EQ(bz.table.BucketQis(b).size(), 5u);
    // Non-exempt values must be distinct within the bucket.
    for (const auto& [s, cnt] : bz.table.BucketSaCounts(b)) {
      if (s != exempt) EXPECT_EQ(cnt, 1u) << "bucket " << b;
    }
  }
  EXPECT_TRUE(SatisfiesDistinctDiversity(bz.table, 4, exempt) ||
              SatisfiesDistinctDiversity(bz.table, 5, exempt));
}

TEST(AnatomyTest, PaperScaleBucketCount) {
  data::AdultSynthOptions options;
  options.num_records = 14210;
  auto dataset = data::GenerateAdultLike(options).ValueOrDie();
  auto partition = AnatomyPartition(dataset, {}).ValueOrDie();
  uint32_t max_bucket = 0;
  for (uint32_t b : partition) max_bucket = std::max(max_bucket, b);
  EXPECT_EQ(max_bucket + 1, 2842u);  // paper: 2842 buckets of 5
}

TEST(AnatomyTest, DeterministicForSeed) {
  data::AdultSynthOptions options;
  options.num_records = 300;
  auto dataset = data::GenerateAdultLike(options).ValueOrDie();
  auto p1 = AnatomyPartition(dataset, {}).ValueOrDie();
  auto p2 = AnatomyPartition(dataset, {}).ValueOrDie();
  EXPECT_EQ(p1, p2);
}

TEST(AnatomyTest, FailsWhenOneValueDominatesWithoutExemption) {
  data::Schema schema;
  schema.AddAttribute("q", data::AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("s", data::AttributeRole::kSensitive);
  data::Dataset d(std::move(schema));
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(d.AppendRecordValues({"x", "dominant"}).ok());
  }
  ASSERT_TRUE(d.AppendRecordValues({"x", "rare"}).ok());
  AnatomyOptions options;
  options.ell = 2;
  options.exempt_most_frequent = false;
  EXPECT_EQ(AnatomyPartition(d, options).status().code(),
            StatusCode::kFailedPrecondition);
  // With the exemption (paper footnote 3) the same data partitions fine.
  options.exempt_most_frequent = true;
  EXPECT_TRUE(AnatomyPartition(d, options).ok());
}

TEST(AnatomyTest, RejectsBadArguments) {
  auto dataset = testing::MakeFigure1Dataset();
  AnatomyOptions options;
  options.ell = 0;
  EXPECT_FALSE(AnatomyPartition(dataset, options).ok());
}

// ----------------------------------------------------------- Diversity

TEST(DiversityTest, DistinctCounts) {
  auto t = testing::MakeFigure1Table();
  EXPECT_EQ(DistinctDiversity(t, 0), 3u);  // {s1, s2, s3}
  EXPECT_EQ(DistinctDiversity(t, 1), 3u);
  EXPECT_EQ(DistinctDiversity(t, 2), 3u);
  // Exempting s2 removes one distinct value from buckets 1 and 3.
  EXPECT_EQ(DistinctDiversity(t, 0, kS2), 2u);
  EXPECT_EQ(DistinctDiversity(t, 1, kS2), 3u);
}

TEST(DiversityTest, EntropyDiversity) {
  auto t = testing::MakeFigure1Table();
  // Bucket 2 has three equiprobable values: effective candidates = 3.
  EXPECT_NEAR(EntropyDiversity(t, 1), 3.0, 1e-9);
  // Bucket 1 has {1/4, 2/4, 1/4}: entropy < log 4 but > log 2.
  EXPECT_LT(EntropyDiversity(t, 0), 4.0);
  EXPECT_GT(EntropyDiversity(t, 0), 2.0);
}

TEST(DiversityTest, MeasureAndSatisfy) {
  auto t = testing::MakeFigure1Table();
  auto report = MeasureDiversity(t);
  EXPECT_EQ(report.min_distinct, 3u);
  EXPECT_TRUE(SatisfiesDistinctDiversity(t, 3));
  EXPECT_FALSE(SatisfiesDistinctDiversity(t, 4));
}

TEST(DiversityTest, MostFrequentSa) {
  auto t = testing::MakeFigure1Table();
  EXPECT_EQ(MostFrequentSa(t), kS2);  // Flu appears 3 times
}

// ----------------------------------------------------------- Pseudonyms

TEST(PseudonymTest, Figure4Expansion) {
  auto t = testing::MakeFigure1Table();
  auto p = PseudonymTable::Create(&t).ValueOrDie();
  EXPECT_EQ(p.num_pseudonyms(), 10u);
  // Figure 4: q1 -> {i1, i2, i3}; q2 -> {i4, i5}; q4 -> {i8}; q5 -> {i9}.
  EXPECT_EQ(p.PseudonymsOf(kQ1), (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(p.PseudonymsOf(kQ2), (std::vector<uint32_t>{3, 4}));
  EXPECT_EQ(p.PseudonymsOf(kQ4), (std::vector<uint32_t>{7}));
  EXPECT_EQ(p.Name(0), "i1");
  EXPECT_EQ(p.Name(9), "i10");
  EXPECT_EQ(p.QiOf(8), kQ5);
}

TEST(PseudonymTest, CandidateBucketsFollowQi) {
  auto t = testing::MakeFigure1Table();
  auto p = PseudonymTable::Create(&t).ValueOrDie();
  // Any of q1's pseudonyms may sit in bucket 1 or bucket 2.
  EXPECT_EQ(testing::ToVector(p.CandidateBuckets(0)),
            (std::vector<uint32_t>{0, 1}));
  // q6 is unique to bucket 3.
  EXPECT_EQ(testing::ToVector(p.CandidateBuckets(9)),
            (std::vector<uint32_t>{2}));
}

TEST(PseudonymTest, ClaimingExhaustsOccurrences) {
  auto t = testing::MakeFigure1Table();
  auto p = PseudonymTable::Create(&t).ValueOrDie();
  EXPECT_EQ(p.ClaimPseudonym(kQ2).ValueOrDie(), 3u);
  EXPECT_EQ(p.ClaimPseudonym(kQ2).ValueOrDie(), 4u);
  EXPECT_EQ(p.ClaimPseudonym(kQ2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(p.ClaimPseudonym(99).ok());
}

}  // namespace
}  // namespace pme::anonymize
