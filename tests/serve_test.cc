// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// End-to-end tests of the `pme serve` layer: an in-process
// AnalysisServer on an ephemeral port, exercised over real sockets with
// the newline-delimited JSON protocol — round trips, malformed lines,
// already-expired deadlines, 32-way concurrency with a clean shutdown,
// and the serve_accept_fail failpoint.
//
// The failpoint cases live in their own suite (ServeFailpointTest) so
// the CI failpoint matrix — which runs every other suite under each
// PME_FAILPOINTS spec — can filter them out: they Configure() the
// process-global registry themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/flags.h"
#include "core/table_artifact.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/serve_main.h"
#include "serve/server.h"
#include "tests/support/experiment.h"

namespace pme::serve {
namespace {

core::PipelineOptions SmallPipeline() {
  core::PipelineOptions options;
  options.data.num_records = 400;
  options.data.seed = 20080612;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;
  options.miner.max_attrs = 2;
  return options;
}

/// One server per suite: pipeline, artifact, and an AnalysisServer bound
/// to an ephemeral port.
class ServeEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pipeline_ = new core::ExperimentPipeline(
        core::BuildPipeline(SmallPipeline()).ValueOrDie());
    dataset_ = std::shared_ptr<const data::Dataset>(
        std::shared_ptr<const data::Dataset>(), &pipeline_->dataset);
    artifact_ = new std::shared_ptr<const core::TableArtifact>(
        core::TableArtifact::BuildBorrowed(
            pipeline_->bucketization.table,
            &pipeline_->bucketization.qi_encoder)
            .ValueOrDie());
    ServeOptions options;
    options.port = 0;  // ephemeral
    options.solver_threads = 2;
    options.max_connections = 64;
    server_ = new AnalysisServer(*artifact_, dataset_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  static void TearDownTestSuite() {
    server_->Shutdown();
    delete server_;
    server_ = nullptr;
    delete artifact_;
    artifact_ = nullptr;
    dataset_.reset();
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static ServeClient Connect() {
    return ServeClient::Connect("127.0.0.1", server_->port()).ValueOrDie();
  }

  /// A knowledge statement guaranteed consistent with the table: a mined
  /// rule's own conditional. `which` varies the rule.
  static std::string Statement(size_t which) {
    const auto& rules = pipeline_->rules;
    return rules[which % rules.size()].ToStatement(pipeline_->dataset);
  }

  static JsonValue Parse(const std::string& line) {
    return ParseJson(line).ValueOrDie();
  }

  static core::ExperimentPipeline* pipeline_;
  static std::shared_ptr<const data::Dataset> dataset_;
  static std::shared_ptr<const core::TableArtifact>* artifact_;
  static AnalysisServer* server_;
};

core::ExperimentPipeline* ServeEndToEndTest::pipeline_ = nullptr;
std::shared_ptr<const data::Dataset> ServeEndToEndTest::dataset_;
std::shared_ptr<const core::TableArtifact>* ServeEndToEndTest::artifact_ =
    nullptr;
AnalysisServer* ServeEndToEndTest::server_ = nullptr;

TEST_F(ServeEndToEndTest, RoundTripAnalyzeRequest) {
  auto client = Connect();
  const auto reply = client.Call(R"({"id":"r1","knowledge":[")" +
                                 Statement(0) + R"("]})");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  const JsonValue json = Parse(reply.value());
  EXPECT_EQ(json.Find("id")->string_value, "r1");
  EXPECT_TRUE(json.Find("ok")->bool_value);
  EXPECT_EQ(json.Find("termination")->string_value, "ok");
  EXPECT_TRUE(json.Find("converged")->bool_value);
  EXPECT_FALSE(json.Find("degraded")->bool_value);
  EXPECT_GT(json.Find("max_disclosure")->number_value, 0.0);
  EXPECT_EQ(json.Find("num_background_constraints")->number_value, 1.0);
}

TEST_F(ServeEndToEndTest, KnowledgeFreeRequestUsesClosedForm) {
  auto client = Connect();
  const auto reply = client.Call(R"({"id":7})");
  ASSERT_TRUE(reply.ok());
  const JsonValue json = Parse(reply.value());
  EXPECT_EQ(json.Find("id")->string_value, "7");
  EXPECT_TRUE(json.Find("ok")->bool_value);
  // No knowledge: every component keeps the Theorem-5 closed form and
  // the iterative solver never runs.
  EXPECT_EQ(json.Find("iterations")->number_value, 0.0);
  EXPECT_TRUE(json.Find("converged")->bool_value);
}

TEST_F(ServeEndToEndTest, MalformedLineKeepsConnectionServing) {
  auto client = Connect();
  const auto bad = client.Call("{not json");
  ASSERT_TRUE(bad.ok());
  const JsonValue bad_json = Parse(bad.value());
  EXPECT_FALSE(bad_json.Find("ok")->bool_value);
  EXPECT_FALSE(bad_json.Find("error")->string_value.empty());

  // The same connection must keep serving.
  const auto good = client.Call(R"({"id":"after","knowledge":[")" +
                                Statement(1) + R"("]})");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(Parse(good.value()).Find("ok")->bool_value);
}

TEST_F(ServeEndToEndTest, SolverFieldIsRejectedAsRemoved) {
  // Every name, the old ones included: the field itself was removed.
  auto client = Connect();
  for (const char* name : {"simplex", "lbfgs", "projected"}) {
    const auto reply = client.Call(std::string(R"({"id":"s","solver":")") +
                                   name + R"("})");
    ASSERT_TRUE(reply.ok()) << name;
    const JsonValue json = Parse(reply.value());
    EXPECT_FALSE(json.Find("ok")->bool_value) << name;
    EXPECT_EQ(json.Find("id")->string_value, "s");
    EXPECT_NE(json.Find("error")->string_value.find("removed"),
              std::string::npos)
        << json.Find("error")->string_value;
  }
}

TEST_F(ServeEndToEndTest, ExpiredDeadlineDegradesToPrior) {
  auto client = Connect();
  const auto reply = client.Call(R"({"id":"d","deadline_ms":0,"knowledge":[")" +
                                 Statement(2) + R"("]})");
  ASSERT_TRUE(reply.ok());
  const JsonValue json = Parse(reply.value());
  // The never-empty-handed contract: still ok:true, with the budget
  // exhaustion reported through termination/degraded.
  EXPECT_TRUE(json.Find("ok")->bool_value);
  EXPECT_EQ(json.Find("termination")->string_value, "deadline_exceeded");
  EXPECT_TRUE(json.Find("degraded")->bool_value);
  EXPECT_FALSE(json.Find("converged")->bool_value);
}

TEST_F(ServeEndToEndTest, ThirtyTwoConcurrentRequestsAndCleanShutdown) {
  constexpr size_t kClients = 32;
  const ServeStats before = server_->stats();
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      auto client = Connect();
      std::string request;
      if (i == 3) {
        request = "][ definitely not json";  // malformed
      } else if (i == 11) {
        request = R"({"id":"expired","deadline_ms":0,"knowledge":[")" +
                  Statement(i) + R"("]})";  // already past its deadline
      } else {
        request = R"({"id":)" + std::to_string(i) + R"(,"knowledge":[")" +
                  Statement(i) + R"("]})";
      }
      auto reply = client.Call(request);
      ASSERT_TRUE(reply.ok()) << "client " << i << ": "
                              << reply.status().ToString();
      replies[i] = std::move(reply).value();
    });
  }
  for (auto& t : threads) t.join();

  size_t ok = 0, errors = 0, expired = 0;
  for (size_t i = 0; i < kClients; ++i) {
    const JsonValue json = Parse(replies[i]);
    if (!json.Find("ok")->bool_value) {
      ++errors;
    } else if (json.Find("termination")->string_value ==
               "deadline_exceeded") {
      ++expired;
    } else {
      ++ok;
      EXPECT_TRUE(json.Find("converged")->bool_value) << "client " << i;
    }
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(ok, kClients - 2);

  const ServeStats after = server_->stats();
  EXPECT_EQ(after.connections_accepted - before.connections_accepted,
            kClients);
  EXPECT_GE(after.requests_ok - before.requests_ok, kClients - 2);
  EXPECT_GE(after.requests_error - before.requests_error, 1u);
  EXPECT_GE(after.requests_deadline_exceeded -
                before.requests_deadline_exceeded,
            1u);
  // Clean shutdown with all 32 connections drained is asserted by
  // TearDownTestSuite (Shutdown joins every handler thread).
}

TEST_F(ServeEndToEndTest, StatsVerbReflectsAJustServedRequest) {
  auto client = Connect();
  // Serve one analyze request first, so the registry census provably
  // includes it by the time the stats verb reads the counters.
  const auto served = client.Call(R"({"id":"warm","knowledge":[")" +
                                  Statement(3) + R"("]})");
  ASSERT_TRUE(served.ok());
  ASSERT_TRUE(Parse(served.value()).Find("ok")->bool_value);

  const auto reply = client.Call(R"({"id":"st","verb":"stats"})");
  ASSERT_TRUE(reply.ok());
  const JsonValue json = Parse(reply.value());
  EXPECT_EQ(json.Find("id")->string_value, "st");
  EXPECT_TRUE(json.Find("ok")->bool_value);

  const JsonValue* stats = json.Find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* counters = stats->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* requests_ok = counters->Find("serve.requests_ok");
  ASSERT_NE(requests_ok, nullptr);
  EXPECT_GE(requests_ok->number_value, 1.0);
  const JsonValue* solve_runs = counters->Find("solve.runs");
  ASSERT_NE(solve_runs, nullptr);
  EXPECT_GE(solve_runs->number_value, 1.0);
  // The solve above consulted the solution cache one way or another.
  double cache_lookups = 0.0;
  for (const char* name :
       {"cache.exact_hits", "cache.warm_hits", "cache.misses"}) {
    if (const JsonValue* c = counters->Find(name)) {
      cache_lookups += c->number_value;
    }
  }
  EXPECT_GE(cache_lookups, 1.0);

  const JsonValue* histograms = stats->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* request_seconds =
      histograms->Find("serve.request_seconds");
  ASSERT_NE(request_seconds, nullptr);
  EXPECT_GE(request_seconds->Find("count")->number_value, 1.0);
  // The solver pool's queue-wait census exists once block solves ran.
  EXPECT_NE(histograms->Find("pool.queue_wait_seconds"), nullptr);
}

TEST_F(ServeEndToEndTest, TraceFlagAttachesSpanBreakdown) {
  auto client = Connect();
  const auto reply = client.Call(R"({"id":"tr","trace":true,"knowledge":[")" +
                                 Statement(4) + R"("]})");
  ASSERT_TRUE(reply.ok());
  const JsonValue json = Parse(reply.value());
  EXPECT_TRUE(json.Find("ok")->bool_value);

  const JsonValue* spans = json.Find("trace");
  ASSERT_NE(spans, nullptr);
  ASSERT_TRUE(spans->is_array());
  std::vector<std::string> names;
  for (const JsonValue& span : spans->array) {
    const JsonValue* name = span.Find("name");
    ASSERT_NE(name, nullptr);
    names.push_back(name->string_value);
    EXPECT_GE(span.Find("dur_us")->number_value, 0.0);
    EXPECT_GT(span.Find("tid")->number_value, 0.0);
  }
  const auto has = [&names](const char* name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // The full request lifecycle: framing parse, the session wrapper, and
  // its compile/solve/evaluate stages.
  EXPECT_TRUE(has("parse")) << reply.value();
  EXPECT_TRUE(has("session_run")) << reply.value();
  EXPECT_TRUE(has("compile")) << reply.value();
  EXPECT_TRUE(has("solve")) << reply.value();
  EXPECT_TRUE(has("evaluate")) << reply.value();

  // Without the flag the response carries no trace key.
  const auto plain = client.Call(R"({"id":"nt","knowledge":[")" +
                                 Statement(4) + R"("]})");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(Parse(plain.value()).Find("trace"), nullptr);
}

// Every connection compiles through the one artifact's statement-term
// memo: an exact repeat of a request, on another connection, adds no
// memo miss. The stats verb carries the memo's counters and gauge.
TEST_F(ServeEndToEndTest, ExactRepeatRequestAddsNoMemoMiss) {
  const auto memo_stats = [] {
    auto client = Connect();
    const auto reply = client.Call(R"({"id":"ms","verb":"stats"})");
    EXPECT_TRUE(reply.ok());
    return Parse(reply.value());
  };
  const auto counter = [](const JsonValue& json, const char* name) {
    const JsonValue* value = json.Find("stats")->Find("counters")->Find(name);
    return value == nullptr ? 0.0 : value->number_value;
  };
  const std::string request = R"({"id":"memo","knowledge":[")" +
                              Statement(5) + R"(",")" + Statement(6) +
                              R"("]})";
  {
    auto client = Connect();
    const auto first = client.Call(request);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(Parse(first.value()).Find("ok")->bool_value);
  }
  const JsonValue before = memo_stats();
  {
    auto client = Connect();
    const auto repeat = client.Call(request);
    ASSERT_TRUE(repeat.ok());
    ASSERT_TRUE(Parse(repeat.value()).Find("ok")->bool_value);
  }
  const JsonValue after = memo_stats();
  EXPECT_EQ(counter(after, "compile.memo_misses"),
            counter(before, "compile.memo_misses"));
  EXPECT_EQ(counter(after, "compile.memo_hits") -
                counter(before, "compile.memo_hits"),
            2.0);
  const JsonValue* bytes =
      after.Find("stats")->Find("gauges")->Find("compile.memo_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->number_value, 0.0);
}

TEST_F(ServeEndToEndTest, UnknownVerbIsAnError) {
  auto client = Connect();
  const auto reply = client.Call(R"({"id":"v","verb":"shutdown"})");
  ASSERT_TRUE(reply.ok());
  const JsonValue json = Parse(reply.value());
  EXPECT_FALSE(json.Find("ok")->bool_value);
  EXPECT_EQ(json.Find("id")->string_value, "v");
}

// ------------------------------------------------------- JSON unicode

TEST(ServeMainTest, RemovedSolverFlagFailsBeforeLoadingAnything) {
  // Flags keeps unknown flags, so ServeMain must refuse this one itself.
  char program[] = "pme_serve";
  char records[] = "--records=50";
  char solver[] = "--solver=lbfgs";
  char* argv[] = {program, records, solver};
  EXPECT_NE(ServeMain(Flags(3, argv)), 0);
}

TEST(ServeMainTest, UnknownOrMalformedFlagFailsBeforeLoadingAnything) {
  char program[] = "pme_serve";
  char records[] = "--records=50";
  char typo[] = "--threds=4";
  char* unknown[] = {program, records, typo};
  EXPECT_NE(ServeMain(Flags(3, unknown)), 0);
  char threads[] = "--threads=four";
  char* malformed[] = {program, records, threads};
  EXPECT_NE(ServeMain(Flags(3, malformed)), 0);
}

TEST(JsonUnicodeTest, BasicMultilingualPlaneEscapesDecodeToUtf8) {
  // \u escapes for A (1-byte), é (2-byte), € (3-byte UTF-8).
  const JsonValue v = ParseJson(R"("\u0041\u00e9\u20ac")").ValueOrDie();
  EXPECT_EQ(v.string_value, "A\xC3\xA9\xE2\x82\xAC");
}

TEST(JsonUnicodeTest, SurrogatePairDecodesToOneAstralCodePoint) {
  // U+1F600 as 😀 -> one 4-byte UTF-8 sequence, not CESU-8.
  const JsonValue v = ParseJson(R"("\ud83d\ude00")").ValueOrDie();
  EXPECT_EQ(v.string_value, "\xF0\x9F\x98\x80");
}

TEST(JsonUnicodeTest, MalformedUnicodeEscapesAreErrors) {
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());         // unpaired high
  EXPECT_FALSE(ParseJson(R"("\ud83dxy")").ok());       // high, no escape
  EXPECT_FALSE(ParseJson(R"("\ud83d\u0041")").ok());   // invalid low half
  EXPECT_FALSE(ParseJson(R"("\ude00")").ok());         // unpaired low
  EXPECT_FALSE(ParseJson(R"("\u12g4")").ok());         // bad hex digit
  EXPECT_FALSE(ParseJson(R"("\u123)").ok());           // truncated
}

TEST(JsonUnicodeTest, EscapeJsonRoundTripsControlCharacters) {
  EXPECT_EQ(EscapeJson(std::string("\x01\x1f\n", 3)), "\\u0001\\u001f\\n");
  EXPECT_EQ(EscapeJson("plain"), "plain");
  const std::string original("a\x02"
                             "b\tc");
  const JsonValue v =
      ParseJson("\"" + EscapeJson(original) + "\"").ValueOrDie();
  EXPECT_EQ(v.string_value, original);
}

/// Failpoint suite: configures the process-global registry, so it must
/// not run concurrently with (or inherit specs from) the matrix jobs.
class ServeFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::Reset(); }
};

TEST_F(ServeFailpointTest, AcceptFailpointDropsOneConnectionAndServerSurvives) {
  if (!failpoint::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";

  auto pipeline = core::BuildPipeline(SmallPipeline()).ValueOrDie();
  auto artifact = core::TableArtifact::BuildBorrowed(
                      pipeline.bucketization.table,
                      &pipeline.bucketization.qi_encoder)
                      .ValueOrDie();
  ServeOptions options;
  options.port = 0;
  options.solver_threads = 1;
  AnalysisServer server(
      artifact,
      std::shared_ptr<const data::Dataset>(
          std::shared_ptr<const data::Dataset>(), &pipeline.dataset),
      options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(failpoint::Configure("serve_accept_fail@1").ok());

  // The first accepted connection is dropped before a handler spawns;
  // the client sees a closed socket at connect or first I/O. Retry until
  // a connection survives — the server must keep accepting.
  Result<std::string> reply = Status::IoError("never connected");
  for (int attempt = 0; attempt < 5 && !reply.ok(); ++attempt) {
    auto connected = ServeClient::Connect("127.0.0.1", server.port());
    if (!connected.ok()) continue;
    ServeClient client = std::move(connected).value();
    reply = client.Call(R"({"id":"fp"})");
  }
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(ParseJson(reply.value()).ValueOrDie().Find("ok")->bool_value);

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.accept_failures, 1u);
  EXPECT_GE(stats.requests_ok, 1u);
  server.Shutdown();
}

}  // namespace
}  // namespace pme::serve
