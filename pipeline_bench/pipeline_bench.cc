// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// The pipeline benchmark: one binary, two subcommands.
//
//   pipeline_bench generate --workload=W --seed=N --out=DIR
//     Writes the workload's inputs: DIR/table.csv (a seeded Adult-like
//     table), DIR/cold.txt (knowledge statements) and DIR/toggle.txt (the
//     same statements, each asserted probability moved 0.01 toward 0.5).
//     Nothing here is timed.
//
//   pipeline_bench measure --workload=W --inputs=DIR --seed=N
//                          --seconds=S --trace=0|1
//     Loads only those files and drives the public API of pme: CSV load,
//     Anatomy bucketization, TableArtifact build, and then either a
//     closed loop of socket clients against serve::AnalysisServer or
//     in-process AnalysisSession rounds. Checks every answer. With
//     --trace=0 (tracing off) it prints the end-to-end metrics; with
//     --trace=1 it prints the per-layer ledger, read from the program's
//     own trace spans and metric counters plus direct timing of each
//     module's public functions. The last stdout line is one JSON object
//     {"correct","attempted","failed","metrics"}; the exit code is
//     non-zero when any check failed.
//
// Workloads (why each exists is in BENCHMARK.json):
//   paper-serve    14,210 records, 64 single-statement requests per round
//   large-serve    200,000 records, 32 single-statement requests per round
//   dense-analyze  14,210 records, K=256 knowledge bases, in-process
// A serve round starts a fresh server (fresh solution cache) and sends
// every statement three times, phase by phase with a barrier between:
// cold (new to the cache), exact (the same line again) and toggle (the
// asserted probability moved 0.01 toward 0.5). Two client connections
// and a two-thread solver pool, so a round fits in four cores. An
// analyze round takes the next knowledge base, runs the same three phases
// as whole analyses against a fresh cache (the toggle edits one
// statement), then renders the privacy report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/vec_math.h"
#include "constraints/invariants.h"
#include "constraints/term_index.h"
#include "core/analysis_session.h"
#include "core/posterior.h"
#include "core/report.h"
#include "core/table_artifact.h"
#include "data/adult_synth.h"
#include "data/csv.h"
#include "knowledge/miner.h"
#include "knowledge/parser.h"
#include "maxent/closed_form.h"
#include "maxent/solution_cache.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

#ifndef PME_BENCH_BUILD_TYPE
#define PME_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using pme::Result;
using pme::Status;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  const char* name;
  size_t records;
  /// Closed loop over sockets; otherwise in-process analyze rounds.
  bool serve;
  /// Serve: distinct single statements per round. Analyze: the size K of
  /// each knowledge base.
  size_t statements;
  /// Set-ups per run; setup_s and analyze_s are their medians.
  int setup_reps;
};

constexpr Workload kWorkloads[] = {
    {"paper-serve", 14210, true, 64, 9},
    {"large-serve", 200000, true, 32, 5},
    {"dense-analyze", 14210, false, 256, 7},
};

constexpr size_t kEll = 5;
constexpr size_t kClients = 2;
constexpr size_t kSolverThreads = 2;
constexpr const char* kSensitive = "education";
constexpr double kToggleStep = 0.01;
/// A toggled statement must sit this far inside its attainable range, so
/// no toggle asks for knowledge the published table cannot satisfy.
constexpr double kFeasibleMargin = 0.02;
/// Output checks allow this much rounding on [0, 1] and >= 1 bounds.
constexpr double kRoundingSlack = 1e-9;
constexpr double kWarmupSeconds = 2.0;
/// dense-analyze cycles through this many knowledge bases, one per round:
/// a single base's LBFGS iteration count moves by a third between seeds,
/// the mean of eight by a tenth of that.
constexpr size_t kKnowledgeBases = 8;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

double Toward(double p) { return p < 0.5 ? p + kToggleStep : p - kToggleStep; }

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const auto& line : lines) out << line << "\n";
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

Result<pme::data::Dataset> LoadCsv(const std::string& path) {
  pme::data::CsvReadOptions options;
  options.sensitive_attributes = {kSensitive};
  return pme::data::ReadCsv(path, options);
}

// ---------------------------------------------------------------------------
// generate

/// Fréchet bounds of P(s | Qv) under the published buckets: within bucket
/// b the count of records with both Qv and s lies in
/// [max(0, nQ + ns - |b|), min(nQ, ns)], and every value in between is
/// attainable. Knowledge outside the summed range is infeasible.
struct Attainable {
  double lo = 0.0;
  double hi = 0.0;
  size_t q_records = 0;
};

Attainable AttainableRange(const pme::data::Dataset& dataset,
                           const std::vector<uint32_t>& partition,
                           const std::vector<std::vector<uint32_t>>& members,
                           size_t sa_attr,
                           const pme::knowledge::AssociationRule& rule) {
  std::unordered_map<uint32_t, uint32_t> q_in_bucket;
  for (size_t row = 0; row < dataset.num_records(); ++row) {
    bool match = true;
    for (size_t i = 0; i < rule.attrs.size() && match; ++i) {
      match = dataset.At(row, rule.attrs[i]) == rule.values[i];
    }
    if (match) ++q_in_bucket[partition[row]];
  }
  double lo = 0.0, hi = 0.0;
  Attainable out;
  for (const auto& [bucket, nq] : q_in_bucket) {
    const auto& rows = members[bucket];
    uint32_t ns = 0;
    for (uint32_t row : rows) ns += dataset.At(row, sa_attr) == rule.sa_code;
    lo += std::max<double>(0.0, double(nq) + ns - double(rows.size()));
    hi += std::min<double>(nq, ns);
    out.q_records += nq;
  }
  if (out.q_records > 0) {
    out.lo = lo / double(out.q_records);
    out.hi = hi / double(out.q_records);
  }
  return out;
}

int Generate(const Workload& w, uint64_t seed, const std::string& dir) {
  auto fail = [](const Status& s) {
    std::fprintf(stderr, "generate: %s\n", s.ToString().c_str());
    return 1;
  };
  pme::data::AdultSynthOptions synth;
  synth.num_records = w.records;
  synth.seed = seed;
  {
    auto generated = pme::data::GenerateAdultLike(synth);
    if (!generated.ok()) return fail(generated.status());
    if (Status s = pme::data::WriteCsv(generated.value(), dir + "/table.csv");
        !s.ok()) {
      return fail(s);
    }
  }
  // Everything below works on the CSV read back, exactly as the measured
  // program sees it.
  auto loaded = LoadCsv(dir + "/table.csv");
  if (!loaded.ok()) return fail(loaded.status());
  const pme::data::Dataset& dataset = loaded.value();
  auto sa_attr = dataset.schema().SoleSensitiveIndex();
  if (!sa_attr.ok()) return fail(sa_attr.status());
  pme::anonymize::AnatomyOptions anatomy;
  anatomy.ell = kEll;
  auto partition = pme::anonymize::AnatomyPartition(dataset, anatomy);
  if (!partition.ok()) return fail(partition.status());
  std::vector<std::vector<uint32_t>> members;
  for (size_t row = 0; row < dataset.num_records(); ++row) {
    const uint32_t b = partition.value()[row];
    if (b >= members.size()) members.resize(b + 1);
    members[b].push_back(static_cast<uint32_t>(row));
  }

  pme::knowledge::MinerOptions miner;
  miner.min_support_records = 3;
  miner.min_attrs = w.serve ? 1 : 2;
  miner.max_attrs = 2;
  miner.mine_negative = false;
  auto mined = pme::knowledge::MineAssociationRules(dataset, miner);
  if (!mined.ok()) return fail(mined.status());
  // The informative rules, in the confidence ranking.
  std::vector<pme::knowledge::AssociationRule> candidates;
  for (const auto& r : mined.value()) {
    if (r.conditional > 0.02 && r.conditional < 0.98) candidates.push_back(r);
  }
  std::sort(candidates.begin(), candidates.end(),
            pme::knowledge::RuleRankBefore);
  auto feasible_toggle = [&](const pme::knowledge::AssociationRule& r) {
    const Attainable range = AttainableRange(
        dataset, partition.value(), members, sa_attr.value(), r);
    const double t = Toward(r.conditional);
    return range.q_records > 0 && t >= range.lo + kFeasibleMargin &&
           t <= range.hi - kFeasibleMargin;
  };

  std::vector<std::string> cold, toggle;
  if (w.serve) {
    // One statement per Qv, its highest-ranked rule: two statements on one
    // Qv cover the same buckets, and the second would start warm instead
    // of cold.
    std::set<std::pair<std::vector<size_t>, std::vector<uint32_t>>> seen;
    std::vector<pme::knowledge::AssociationRule> unique;
    for (const auto& r : candidates) {
      if (seen.emplace(r.attrs, r.values).second) unique.push_back(r);
    }
    // Evenly spaced through the pool sorted by the share of the table Qv
    // covers, which sets a request's block size, so every seed sends the
    // same mix of small and large requests (spaced through the confidence
    // ranking instead, serve_rps spreads 0.74 IQR/median across seeds at
    // 200,000 records). The top tenth by share is left out: its shares run
    // from 5% to over 50% of the table, so one such pick sets a round's
    // throughput. A pick whose toggle is not attainable moves on to the
    // next rule.
    std::stable_sort(unique.begin(), unique.end(),
                     [](const auto& a, const auto& b) {
                       return a.support / a.conditional <
                              b.support / b.conditional;
                     });
    unique.resize(unique.size() - unique.size() / 10);
    const double stride = double(unique.size()) / double(w.statements);
    size_t i = 0;
    for (size_t k = 0; k < w.statements; ++k) {
      i = std::max(i, static_cast<size_t>((double(k) + 0.5) * stride));
      while (i < unique.size() && !feasible_toggle(unique[i])) ++i;
      if (i == unique.size()) break;
      auto toggled = unique[i];
      toggled.conditional = Toward(toggled.conditional);
      cold.push_back(unique[i].ToStatement(dataset));
      toggle.push_back(toggled.ToStatement(dataset));
      ++i;
    }
  } else {
    // Each base is evenly spaced through the confidence ranking, as the
    // paper's figure benches sample knowledge, so every base has the same
    // make-up; the bases start at different offsets.
    const double stride = double(candidates.size()) / double(w.statements);
    for (size_t j = 0; j < kKnowledgeBases && stride >= 1.0; ++j) {
      const double offset = (double(j) + 0.5) / kKnowledgeBases * stride;
      std::vector<pme::knowledge::AssociationRule> kb;
      for (size_t i = 0; i < w.statements; ++i) {
        kb.push_back(candidates[static_cast<size_t>(offset + i * stride)]);
      }
      // The toggle edits one statement: the first whose toggle stays
      // attainable.
      size_t edit = 0;
      while (edit < kb.size() && !feasible_toggle(kb[edit])) ++edit;
      if (edit == kb.size()) break;
      for (size_t i = 0; i < kb.size(); ++i) {
        cold.push_back(kb[i].ToStatement(dataset));
        if (i == edit) kb[i].conditional = Toward(kb[i].conditional);
        toggle.push_back(kb[i].ToStatement(dataset));
      }
    }
  }
  const size_t wanted = w.serve ? w.statements : w.statements * kKnowledgeBases;
  if (cold.size() < wanted) {
    return fail(Status::FailedPrecondition(
        "only " + std::to_string(cold.size()) + " of " +
        std::to_string(wanted) + " statements found"));
  }
  if (Status s = WriteLines(dir + "/cold.txt", cold); !s.ok()) return fail(s);
  if (Status s = WriteLines(dir + "/toggle.txt", toggle); !s.ok()) {
    return fail(s);
  }
  std::printf("generated %s seed=%llu: %zu records, %zu statements\n",
              w.name, static_cast<unsigned long long>(seed),
              dataset.num_records(), cold.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Samples and the result line.

/// Linear interpolation between closest ranks of the raw samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

/// A percentile is reported only when at least ten samples lie beyond it.
bool Supports(const std::vector<double>& v, double q) {
  const double p = Percentile(v, q);
  return std::count_if(v.begin(), v.end(), [p](double x) { return x > p; }) >=
         10;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Counts checked operations and failed checks, prints each metric as it
/// is added, and prints the JSON result line last.
class Outcome {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    std::printf("%-36s %16.6f %-8s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  /// A human-readable line that is not a gated metric.
  void Note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  void Attempt() { ++attempted_; }
  void Fail(const std::string& why) {
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void PrintJson() const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Set-up: CSV on disk to a ready TableArtifact.

struct Table {
  std::shared_ptr<const pme::data::Dataset> dataset;
  std::shared_ptr<const pme::anonymize::DatasetBucketization> bz;
  std::shared_ptr<const pme::core::TableArtifact> artifact;
};

struct SetupTimes {
  std::vector<double> read_csv, anatomy, bucketize, artifact, setup, analyze,
      report_ms;
  // Direct timing of the artifact's stages (traced runs only).
  std::vector<double> term_index, invariants, closed_form, prior_eval;
};

Result<Table> BuildTable(const std::string& csv, SetupTimes* times) {
  const auto t0 = Clock::now();
  Table t;
  Result<pme::data::Dataset> dataset = Status::Internal("unread");
  times->read_csv.push_back(TimeIt([&] { dataset = LoadCsv(csv); }));
  if (!dataset.ok()) return dataset.status();
  t.dataset = std::make_shared<const pme::data::Dataset>(
      std::move(dataset).value());

  pme::anonymize::AnatomyOptions anatomy;
  anatomy.ell = kEll;
  Result<std::vector<uint32_t>> partition = Status::Internal("unpartitioned");
  times->anatomy.push_back(TimeIt([&] {
    partition = pme::anonymize::AnatomyPartition(*t.dataset, anatomy);
  }));
  if (!partition.ok()) return partition.status();

  Result<pme::anonymize::DatasetBucketization> bz = Status::Internal("unbuilt");
  times->bucketize.push_back(TimeIt([&] {
    bz = pme::anonymize::BucketizeDataset(*t.dataset, partition.value());
  }));
  if (!bz.ok()) return bz.status();
  auto shared_bz = std::make_shared<const pme::anonymize::DatasetBucketization>(
      std::move(bz).value());
  t.bz = shared_bz;

  // As `pme serve --threads=2` builds it: the artifact shares ownership of
  // the table and its QI encoder, and builds with the solver's threads.
  pme::core::TableArtifactOptions options;
  options.threads = kSolverThreads;
  Result<std::shared_ptr<const pme::core::TableArtifact>> artifact =
      Status::Internal("unbuilt");
  times->artifact.push_back(TimeIt([&] {
    artifact = pme::core::TableArtifact::Build(
        std::shared_ptr<const pme::anonymize::BucketizedTable>(
            shared_bz, &shared_bz->table),
        std::shared_ptr<const pme::data::TupleEncoder>(
            shared_bz, &shared_bz->qi_encoder),
        options);
  }));
  if (!artifact.ok()) return artifact.status();
  t.artifact = std::move(artifact).value();
  times->setup.push_back(SecondsSince(t0));
  return t;
}

/// Times the artifact's stages one by one through their public functions
/// (outside setup_s), so the ledger can split TableArtifact::Build.
void TimeArtifactStages(const Table& t, SetupTimes* times) {
  const auto& table = t.bz->table;
  const auto& artifact = *t.artifact;
  times->term_index.push_back(TimeIt(
      [&] { pme::constraints::TermIndex::Build(table, kSolverThreads); }));
  times->invariants.push_back(TimeIt([&] {
    pme::constraints::GenerateInvariants(
        table, artifact.index(), artifact.options().invariant_options);
  }));
  times->closed_form.push_back(TimeIt(
      [&] { pme::maxent::ClosedFormNoKnowledge(table, artifact.index()); }));
  times->prior_eval.push_back(TimeIt([&] {
    const auto posterior = pme::core::PosteriorTable::FromSolution(
        table, artifact.index(), artifact.closed_form_prior());
    pme::core::EvaluatePerQ(artifact.ground_truth(), posterior);
  }));
}

Result<pme::knowledge::KnowledgeBase> ParseKb(
    const std::vector<std::string>& lines, const pme::data::Dataset& dataset) {
  std::string text;
  for (const auto& line : lines) text += line + "\n";
  pme::knowledge::ParserContext context;
  context.dataset = &dataset;
  pme::knowledge::KnowledgeBase kb;
  PME_RETURN_IF_ERROR(pme::knowledge::ParseKnowledge(text, context, &kb));
  return kb;
}

/// The per-answer output checks shared by the wire and in-process paths.
std::string CheckAnswer(bool converged, bool degraded,
                        const std::string& termination, double max_disclosure,
                        double min_effective_candidates,
                        double estimation_accuracy) {
  if (!converged) return "not converged";
  if (degraded) return "degraded";
  if (termination != "ok") return "termination " + termination;
  if (!(max_disclosure >= 0.0 && max_disclosure <= 1.0 + kRoundingSlack)) {
    return "max_disclosure " + std::to_string(max_disclosure);
  }
  if (!(min_effective_candidates >= 1.0 - kRoundingSlack)) {
    return "min_effective_candidates " +
           std::to_string(min_effective_candidates);
  }
  if (!std::isfinite(estimation_accuracy)) return "estimation_accuracy";
  return "";
}

std::string CheckAnalysis(const Result<pme::core::Analysis>& a) {
  if (!a.ok()) return a.status().ToString();
  const auto& v = a.value();
  return CheckAnswer(v.solver.converged, v.solver.degraded,
                     pme::serve::TerminationToString(v.solver.termination),
                     v.metrics.max_disclosure,
                     v.metrics.min_effective_candidates,
                     v.estimation_accuracy);
}

pme::core::AnalysisOptions AnalyzeOptions(pme::maxent::SolutionCache* cache) {
  // `pme analyze --threads=2` with a fresh solution cache.
  pme::core::AnalysisOptions options;
  options.solver_options.threads = kSolverThreads;
  options.solver_options.solution_cache = cache;
  return options;
}

/// CSV on disk to report text, as one `pme analyze` run: set-up, one
/// analysis of `kb_lines` against a fresh cache, RenderPrivacyReport.
/// Returns the set-up table for reuse.
Result<Table> SetupAndAnalyze(const std::string& csv,
                              const std::vector<std::string>& kb_lines,
                              bool time_stages, SetupTimes* times,
                              Outcome* result) {
  const auto t0 = Clock::now();
  PME_ASSIGN_OR_RETURN(Table t, BuildTable(csv, times));
  PME_ASSIGN_OR_RETURN(auto kb, ParseKb(kb_lines, *t.dataset));
  pme::maxent::SolutionCache cache;
  const pme::core::AnalysisSession session(t.artifact, AnalyzeOptions(&cache));
  const auto analysis = session.Run(kb);
  result->Attempt();
  if (const std::string why = CheckAnalysis(analysis); !why.empty()) {
    result->Fail("set-up analysis: " + why);
    return t;
  }
  std::string report;
  const double report_s = TimeIt([&] {
    report = pme::core::RenderPrivacyReport(t.bz->table, analysis.value());
  });
  times->analyze.push_back(SecondsSince(t0));
  times->report_ms.push_back(report_s * 1e3);
  if (report.empty()) result->Fail("empty report");
  if (time_stages) TimeArtifactStages(t, times);
  return t;
}

// ---------------------------------------------------------------------------
// Counters and spans the program emits.

struct Counters {
  double exact_hits = 0, warm_hits = 0, misses = 0, evictions = 0;
  double pool_tasks = 0, queue_wait_s = 0, queue_waits = 0;

  static Counters Read() {
    auto& registry = pme::metrics::Registry::Global();
    Counters c;
    c.exact_hits = double(registry.CounterValue("cache.exact_hits"));
    c.warm_hits = double(registry.CounterValue("cache.warm_hits"));
    c.misses = double(registry.CounterValue("cache.misses"));
    c.evictions = double(registry.CounterValue("cache.evictions"));
    c.pool_tasks = double(registry.CounterValue("pool.tasks"));
    const auto wait =
        registry.GetHistogram("pool.queue_wait_seconds").TakeSnapshot();
    c.queue_wait_s = wait.sum;
    c.queue_waits = double(wait.count);
    return c;
  }
  void AddDelta(const Counters& before, const Counters& after) {
    exact_hits += after.exact_hits - before.exact_hits;
    warm_hits += after.warm_hits - before.warm_hits;
    misses += after.misses - before.misses;
    evictions += after.evictions - before.evictions;
    pool_tasks += after.pool_tasks - before.pool_tasks;
    queue_wait_s += after.queue_wait_s - before.queue_wait_s;
    queue_waits += after.queue_waits - before.queue_waits;
  }
  double Lookups() const { return exact_hits + misses; }
};

enum Phase { kCold = 0, kExact = 1, kToggle = 2, kNumPhases = 3 };
constexpr const char* kPhaseNames[kNumPhases] = {"cold", "exact", "toggle"};

struct PhaseLedger {
  // Timed.
  std::vector<double> latency_ms;
  std::vector<double> wire_ms;
  double wall_s = 0.0;
  size_t completed = 0;
  Counters counters;
  // From the spans of traced rounds.
  std::vector<double> compile_ms, session_ms, session_self_ms, evaluate_ms,
      solve_ms, iterations;
};

struct SpanTotals {
  std::vector<double> block_ms;
  size_t solves = 0;
  size_t monolithic = 0;
  size_t requests = 0;
};

double ArgOf(const pme::trace::TraceEvent& e, const char* name) {
  for (int a = 0; a < 2; ++a) {
    if (e.arg_names[a] != nullptr && std::strcmp(e.arg_names[a], name) == 0) {
      return e.arg_values[a];
    }
  }
  return 0.0;
}

/// The part of [begin, end) covered by the union of `intervals`.
uint64_t Covered(std::vector<std::pair<uint64_t, uint64_t>> intervals,
                 uint64_t begin, uint64_t end) {
  std::sort(intervals.begin(), intervals.end());
  uint64_t covered = 0, reach = begin;
  for (auto [s, e] : intervals) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

/// Folds one phase's ring snapshot into the ledger. Spans are grouped by
/// request trace id; a request's self time in `session_run` is its
/// duration minus the part its child spans cover.
void AbsorbSpans(const std::vector<pme::trace::TraceEvent>& events,
                 PhaseLedger* phase, SpanTotals* totals) {
  std::map<uint64_t, std::vector<const pme::trace::TraceEvent*>> by_request;
  for (const auto& e : events) {
    if (e.trace_id != 0 && e.name != nullptr) {
      by_request[e.trace_id].push_back(&e);
    }
  }
  auto ms = [](uint64_t ns) { return double(ns) / 1e6; };
  for (const auto& [id, spans] : by_request) {
    const pme::trace::TraceEvent* run = nullptr;
    for (const auto* e : spans) {
      if (std::strcmp(e->name, "session_run") == 0) run = e;
    }
    if (run == nullptr) continue;
    ++totals->requests;
    const uint64_t begin = run->start_ns, end = run->start_ns + run->dur_ns;
    std::vector<std::pair<uint64_t, uint64_t>> children;
    for (const auto* e : spans) {
      const char* n = e->name;
      if (e != run) children.emplace_back(e->start_ns, e->start_ns + e->dur_ns);
      if (std::strcmp(n, "compile") == 0) {
        phase->compile_ms.push_back(ms(e->dur_ns));
      } else if (std::strcmp(n, "evaluate") == 0) {
        phase->evaluate_ms.push_back(ms(e->dur_ns));
      } else if (std::strcmp(n, "solve") == 0) {
        phase->solve_ms.push_back(ms(e->dur_ns));
        phase->iterations.push_back(ArgOf(*e, "iterations"));
      } else if (std::strcmp(n, "solve_decomposed") == 0) {
        ++totals->solves;
        // The monolithic path solves the whole system as one block.
        if (ArgOf(*e, "monolithic") == 1.0) {
          ++totals->monolithic;
          totals->block_ms.push_back(ms(e->dur_ns));
        }
      } else if (std::strcmp(n, "solve_block") == 0) {
        totals->block_ms.push_back(ms(e->dur_ns));
      }
    }
    phase->session_ms.push_back(ms(run->dur_ns));
    phase->session_self_ms.push_back(
        ms(run->dur_ns - Covered(std::move(children), begin, end)));
  }
}

/// Clears the ring before a traced phase; after it, snapshots and fails
/// the run when the ring may have wrapped (a wrapped ring drops spans
/// silently).
class PhaseTrace {
 public:
  explicit PhaseTrace(bool on) : on_(on) {
    if (on_) pme::trace::ClearRing();
  }
  void Finish(PhaseLedger* phase, SpanTotals* totals, Outcome* result) {
    if (!on_) return;
    const auto events = pme::trace::SnapshotRing();
    if (events.size() >= pme::trace::kRingCapacity) {
      result->Fail("trace ring reached its capacity; spans were dropped");
    }
    AbsorbSpans(events, phase, totals);
  }

 private:
  bool on_;
};

struct RunLedger {
  PhaseLedger phases[kNumPhases];
  SpanTotals spans;
  // Every completed request's latency, for per-round means.
  double latency_sum_ms = 0.0;
  size_t latency_count = 0;
  // Traced over untraced mean latency, one per pair of rounds.
  std::vector<double> overhead_ratios;
  std::vector<double> parse_ms;
  size_t rounds = 0;
};

// ---------------------------------------------------------------------------
// Serve rounds: a closed loop of kClients socket clients.

struct Reply {
  bool ok = false;
  double fields[4] = {0, 0, 0, 0};  // accuracy, disclosure, guess, candidates
};

Reply ParseReply(const std::string& line, double* total_seconds,
                 std::string* why) {
  Reply r;
  auto doc = pme::serve::ParseJson(line);
  if (!doc.ok()) {
    *why = "unparseable reply";
    return r;
  }
  const auto& v = doc.value();
  auto num = [&](const char* key) {
    const auto* f = v.Find(key);
    return f != nullptr && f->is_number() ? f->number_value : NAN;
  };
  auto flag = [&](const char* key) {
    const auto* f = v.Find(key);
    return f != nullptr && f->is_bool() && f->bool_value;
  };
  if (!flag("ok")) {
    const auto* e = v.Find("error");
    *why = "error reply: " + (e != nullptr && e->is_string() ? e->string_value
                                                           : line);
    return r;
  }
  const auto* term = v.Find("termination");
  r.fields[0] = num("estimation_accuracy");
  r.fields[1] = num("max_disclosure");
  r.fields[2] = num("expected_best_guess");
  r.fields[3] = num("min_effective_candidates");
  *total_seconds = num("total_seconds");
  *why = CheckAnswer(flag("converged"), flag("degraded"),
                     term != nullptr && term->is_string() ? term->string_value
                                                          : "missing",
                     r.fields[1], r.fields[3], r.fields[0]);
  r.ok = why->empty();
  return r;
}

Status ServeRound(const Table& t, const std::vector<std::string> (&lines)[2],
                  bool traced, RunLedger* run, Outcome* result) {
  pme::serve::ServeOptions options;
  options.port = 0;
  options.solver_threads = kSolverThreads;
  pme::serve::AnalysisServer server(t.artifact, t.dataset, options);
  PME_RETURN_IF_ERROR(server.Start());
  std::vector<pme::serve::ServeClient> clients;
  for (size_t c = 0; c < kClients; ++c) {
    PME_ASSIGN_OR_RETURN(auto client, pme::serve::ServeClient::Connect(
                                          "127.0.0.1", server.port()));
    clients.push_back(std::move(client));
  }
  const size_t n = lines[0].size();
  std::vector<Reply> cold(n);
  for (int p = 0; p < kNumPhases; ++p) {
    PhaseLedger& phase = run->phases[p];
    const auto& statements = lines[p == kToggle ? 1 : 0];
    std::vector<Reply> replies(n);
    std::vector<std::string> why(n);
    std::vector<double> latency(n, 0.0), wire(n, 0.0);
    const Counters before = Counters::Read();
    PhaseTrace trace(traced);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = c; i < n; i += kClients) {
          const std::string request =
              std::string("{\"id\":\"") + kPhaseNames[p] + "-" +
              std::to_string(i) + "\",\"knowledge\":[\"" +
              pme::serve::EscapeJson(statements[i]) + "\"]}";
          const auto sent = Clock::now();
          auto reply = clients[c].Call(request);
          latency[i] = SecondsSince(sent) * 1e3;
          if (!reply.ok()) {
            why[i] = reply.status().ToString();
            continue;
          }
          double total_seconds = NAN;
          replies[i] = ParseReply(reply.value(), &total_seconds, &why[i]);
          wire[i] = latency[i] - total_seconds * 1e3;
        }
      });
    }
    for (auto& th : threads) th.join();
    phase.wall_s += SecondsSince(t0);
    phase.counters.AddDelta(before, Counters::Read());
    trace.Finish(&phase, &run->spans, result);
    for (size_t i = 0; i < n; ++i) {
      result->Attempt();
      if (p == kExact && replies[i].ok &&
          !std::equal(std::begin(replies[i].fields),
                      std::end(replies[i].fields),
                      std::begin(cold[i].fields))) {
        why[i] = "exact reply differs from its cold reply";
        replies[i].ok = false;
      }
      if (!replies[i].ok) {
        result->Fail(std::string(kPhaseNames[p]) + " '" + statements[i] +
                     "': " + why[i]);
        continue;
      }
      ++phase.completed;
      phase.latency_ms.push_back(latency[i]);
      phase.wire_ms.push_back(wire[i]);
      run->latency_sum_ms += latency[i];
      ++run->latency_count;
    }
    if (p == kCold) cold = replies;
  }
  server.Shutdown();
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Analyze rounds: in-process sessions, the `pme analyze --repeat` path.

bool SamePosterior(const pme::core::PosteriorTable& a,
                   const pme::core::PosteriorTable& b, double tolerance) {
  if (a.num_qi() != b.num_qi() || a.num_sa() != b.num_sa()) return false;
  for (uint32_t q = 0; q < a.num_qi(); ++q) {
    const double* x = a.RowData(q);
    const double* y = b.RowData(q);
    for (uint32_t s = 0; s < a.num_sa(); ++s) {
      if (!(std::fabs(x[s] - y[s]) <= tolerance)) return false;
    }
  }
  return true;
}

struct AnalyzeInputs {
  pme::knowledge::KnowledgeBase kb;
  pme::knowledge::KnowledgeBase toggled;
};

/// One round; leaves the warm toggle's analysis in *last_toggle.
void AnalyzeRound(const Table& t, const AnalyzeInputs& in, bool traced,
                  RunLedger* run, SetupTimes* times,
                  std::optional<pme::core::Analysis>* last_toggle,
                  Outcome* result) {
  pme::maxent::SolutionCache cache;
  const pme::core::AnalysisSession session(t.artifact, AnalyzeOptions(&cache));
  std::optional<pme::core::Analysis> cold;
  last_toggle->reset();
  for (int p = 0; p < kNumPhases; ++p) {
    PhaseLedger& phase = run->phases[p];
    const Counters before = Counters::Read();
    PhaseTrace trace(traced);
    Result<pme::core::Analysis> analysis = Status::Internal("not run");
    const double seconds = TimeIt([&] {
      pme::trace::TraceIdScope scope(pme::trace::NewTraceId());
      analysis = session.Run(p == kToggle ? in.toggled : in.kb);
    });
    phase.wall_s += seconds;
    phase.counters.AddDelta(before, Counters::Read());
    trace.Finish(&phase, &run->spans, result);
    result->Attempt();
    std::string why = CheckAnalysis(analysis);
    if (why.empty() && p == kExact && cold.has_value() &&
        !SamePosterior(analysis.value().posterior, cold->posterior, 0.0)) {
      why = "exact re-run posterior differs from the cold posterior";
    }
    if (!why.empty()) {
      result->Fail(std::string(kPhaseNames[p]) + " analysis: " + why);
      continue;
    }
    ++phase.completed;
    phase.latency_ms.push_back(seconds * 1e3);
    run->latency_sum_ms += seconds * 1e3;
    ++run->latency_count;
    if (p == kCold) cold = std::move(analysis).value();
    if (p == kToggle) *last_toggle = std::move(analysis).value();
  }
  if (last_toggle->has_value()) {
    std::string report;
    times->report_ms.push_back(1e3 * TimeIt([&] {
      report =
          pme::core::RenderPrivacyReport(t.bz->table, last_toggle->value());
    }));
    if (report.empty()) result->Fail("empty report");
  }
}

// ---------------------------------------------------------------------------
// measure

double PeakRssMb() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void PrintEndToEnd(const Workload& w, const RunLedger& run,
                   const SetupTimes& times, Outcome* result) {
  result->Add("setup_s", Median(times.setup), "s",
              "n=" + std::to_string(times.setup.size()));
  // Printed, not gated: it is setup_s plus one cold analysis, so the
  // gated set already covers it, and on small tables its run-to-run
  // spread (set-up page faults) is near the largest bound.
  result->Note("analyze_s = " + std::to_string(Median(times.analyze)) +
               " s (n=" + std::to_string(times.analyze.size()) +
               ", CSV to report text, not gated)");
  double completed = 0.0, wall = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    const auto& lat = run.phases[p].latency_ms;
    const std::string base = std::string(kPhaseNames[p]) + "_ms_";
    result->Add(base + "p50", Median(lat), "ms",
                "n=" + std::to_string(lat.size()));
    if (Supports(lat, 0.9)) {
      result->Note(base + "p90 = " + std::to_string(Percentile(lat, 0.9)) +
                   " ms (n=" + std::to_string(lat.size()) + ", not gated)");
    }
    completed += double(run.phases[p].completed);
    wall += run.phases[p].wall_s;
  }
  result->Add("serve_rps", wall > 0 ? completed / wall : 0.0, "1/s",
              w.serve ? "requests over socket" : "in-process analyses");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void PrintPerLayer(const Workload& w, const RunLedger& run,
                   const SetupTimes& times, Outcome* result) {
  const double artifact = Median(times.artifact);
  const double parts = Median(times.term_index) + Median(times.invariants) +
                       Median(times.closed_form) + Median(times.prior_eval);
  result->Add("data.read_csv_s", Median(times.read_csv), "s");
  result->Add("anonymize.anatomy_s", Median(times.anatomy), "s");
  result->Add("anonymize.bucketize_s", Median(times.bucketize), "s");
  result->Add("constraints.term_index_s", Median(times.term_index), "s");
  result->Add("constraints.invariants_s", Median(times.invariants), "s");
  result->Add("maxent.closed_form_s", Median(times.closed_form), "s");
  result->Add("core.prior_eval_s", Median(times.prior_eval), "s");
  result->Add("core.artifact_build_s", artifact, "s");
  // An estimate: the stages are re-run after Build on a warm heap, so
  // their sum can exceed the share Build spent on them.
  result->Add("core.artifact_other_s", std::max(0.0, artifact - parts), "s",
              "estimate, clamped at 0; build minus re-timed stages = " +
                  std::to_string(artifact - parts));
  result->Add("knowledge.parse_ms", Median(run.parse_ms), "ms",
              w.serve ? "one statement" : "whole knowledge base");

  std::vector<double> wire;
  size_t requests = 0;
  Counters all;
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseLedger& ph = run.phases[p];
    wire.insert(wire.end(), ph.wire_ms.begin(), ph.wire_ms.end());
    requests += ph.completed;
    const std::string suffix = std::string(".") + kPhaseNames[p];
    const std::string n = "n=" + std::to_string(ph.session_ms.size());
    result->Add("constraints.compile_ms" + suffix, Median(ph.compile_ms), "ms",
                n);
    result->Add("core.session_run_ms" + suffix, Median(ph.session_ms), "ms",
                n);
    result->Add("core.session_other_ms" + suffix, Median(ph.session_self_ms),
                "ms", "session_run self time");
    result->Add("core.evaluate_ms" + suffix, Median(ph.evaluate_ms), "ms");
    result->Add("maxent.solve_ms" + suffix, Median(ph.solve_ms), "ms");
    if (p != kExact) {
      result->Add("maxent.iterations" + suffix, Mean(ph.iterations), "count",
                  "mean per request");
    }
    all.AddDelta(Counters{}, ph.counters);
  }
  result->Add("serve.wire_ms", Median(wire), "ms",
              w.serve ? "latency minus total_seconds" : "no wire in-process");
  const auto& spans = run.spans;
  result->Add("maxent.block_solve_ms_p50", Percentile(spans.block_ms, 0.5),
              "ms", "n=" + std::to_string(spans.block_ms.size()));
  result->Add("maxent.block_solve_ms_p90", Percentile(spans.block_ms, 0.9),
              "ms", Supports(spans.block_ms, 0.9) ? "" : "under 10 beyond");
  result->Add("maxent.blocks",
              spans.requests ? double(spans.block_ms.size()) / spans.requests
                             : 0.0,
              "count", "blocks solved per request");
  result->Add("maxent.monolithic_share",
              spans.solves ? double(spans.monolithic) / spans.solves : 0.0,
              "ratio");
  const Counters& exact = run.phases[kExact].counters;
  const Counters& toggle = run.phases[kToggle].counters;
  result->Add("cache.exact_hit_ratio",
              exact.Lookups() > 0 ? exact.exact_hits / exact.Lookups() : 0.0,
              "ratio", "exact phase");
  result->Add("cache.warm_hit_ratio",
              toggle.Lookups() > 0 ? toggle.warm_hits / toggle.Lookups() : 0.0,
              "ratio", "toggle phase");
  const double per_request = requests > 0 ? 1.0 / double(requests) : 0.0;
  result->Add("cache.misses", all.misses * per_request, "count",
              "per request");
  result->Add("cache.evictions", all.evictions * per_request, "count",
              "per request");
  result->Add("pool.queue_wait_ms_mean",
              all.queue_waits > 0 ? 1e3 * all.queue_wait_s / all.queue_waits
                                  : 0.0,
              "ms");
  result->Add("pool.tasks", all.pool_tasks * per_request, "count",
              "per request");
  result->Add("core.report_ms", Median(times.report_ms), "ms");
  result->Add("trace.overhead_pct", 100.0 * (Mean(run.overhead_ratios) - 1.0),
              "%",
              "mean over " + std::to_string(run.overhead_ratios.size()) +
                  " pairs of traced/untraced rounds on the same input");
}

int Measure(const Workload& w, const pme::Flags& flags) {
  const std::string dir = flags.GetString("inputs", "");
  const double seconds = double(flags.GetInt("seconds", 10));
  const bool trace_run = flags.GetInt("trace", 0) != 0;
  // Timed runs measure with tracing off; the traced run turns it on for
  // every other round, so the rounds between give the untraced baseline
  // for the overhead figure.
  pme::trace::SetEnabled(false);
  Outcome result;

  auto cold_lines = ReadLines(dir + "/cold.txt");
  auto toggle_lines = ReadLines(dir + "/toggle.txt");
  if (!cold_lines.ok() || !toggle_lines.ok() || cold_lines.value().empty() ||
      cold_lines.value().size() != toggle_lines.value().size()) {
    std::fprintf(stderr, "measure: missing or mismatched inputs in %s\n",
                 dir.c_str());
    return 2;
  }
  const std::vector<std::string> lines[2] = {cold_lines.value(),
                                             toggle_lines.value()};

  result.Note(std::string("env nproc=") +
              std::to_string(std::thread::hardware_concurrency()) +
              " simd=" + pme::kernels::SimdModeName() +
              " build=" PME_BENCH_BUILD_TYPE);

  SetupTimes times;
  Table table;
  // Serve: one request per line. Analyze: one request per knowledge base.
  const size_t per_request = w.serve ? 1 : w.statements;
  std::vector<std::vector<std::string>> requests[2];
  for (int k = 0; k < 2; ++k) {
    for (size_t i = 0; i + per_request <= lines[k].size(); i += per_request) {
      requests[k].emplace_back(lines[k].begin() + i,
                               lines[k].begin() + i + per_request);
    }
  }
  if (requests[0].empty() || requests[0].size() != requests[1].size()) {
    std::fprintf(stderr, "measure: fewer statements than one request\n");
    return 2;
  }
  const std::vector<std::string>& setup_kb = requests[0][0];
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    table = Table{};  // free the previous set-up before building the next
    auto built = SetupAndAnalyze(dir + "/table.csv", setup_kb, trace_run,
                                 &times, &result);
    if (!built.ok()) {
      std::fprintf(stderr, "measure: set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 2;
    }
    table = std::move(built).value();
  }
  result.Note(std::string("workload ") + w.name + " seed=" +
              flags.GetString("seed", "?") + " records=" +
              std::to_string(table.dataset->num_records()) + " buckets=" +
              std::to_string(table.bz->table.num_buckets()) + " statements=" +
              std::to_string(lines[0].size()));

  RunLedger run;
  std::vector<AnalyzeInputs> knowledge_bases;
  std::optional<pme::core::Analysis> last_toggle;
  const AnalyzeInputs* last_toggle_inputs = nullptr;
  for (size_t i = 0; !w.serve && i < requests[0].size(); ++i) {
    auto kb = ParseKb(requests[0][i], *table.dataset);
    auto toggled = ParseKb(requests[1][i], *table.dataset);
    if (!kb.ok() || !toggled.ok()) {
      std::fprintf(stderr, "measure: knowledge does not parse\n");
      return 2;
    }
    knowledge_bases.push_back(
        {std::move(kb).value(), std::move(toggled).value()});
  }
  if (trace_run) {
    // Parse cost of one request's knowledge, timed directly.
    for (int rep = 0; rep < 5; ++rep) {
      for (const auto& kb_lines : requests[0]) {
        run.parse_ms.push_back(
            1e3 * TimeIt([&] { (void)ParseKb(kb_lines, *table.dataset); }));
      }
    }
  }

  // One round; false when the server could not be started or reached.
  // Round r of dense-analyze takes knowledge base r (cyclically).
  auto round = [&](bool traced, size_t r, RunLedger* ledger,
                   SetupTimes* round_times) {
    pme::trace::SetEnabled(traced);
    if (!w.serve) {
      last_toggle_inputs = &knowledge_bases[r % knowledge_bases.size()];
      AnalyzeRound(table, *last_toggle_inputs, traced, ledger, round_times,
                   &last_toggle, &result);
      return true;
    }
    if (Status s = ServeRound(table, lines, traced, ledger, &result);
        !s.ok()) {
      result.Attempt();
      result.Fail("serve round: " + s.ToString());
      return false;
    }
    return true;
  };
  // The first second or so of rounds in a fresh process runs up to twice
  // as slow (heap growth, thread start-up, clock ramp); a server that has
  // been up for a while does not pay that, so it is excluded.
  bool healthy = true;
  {
    RunLedger warmup;
    SetupTimes warmup_times;
    const auto warm_start = Clock::now();
    for (size_t r = 0; healthy && SecondsSince(warm_start) < kWarmupSeconds;
         ++r) {
      healthy = round(false, r, &warmup, &warmup_times);
    }
  }
  // A traced run pairs each traced round with an untraced round on the
  // same input, the order alternating from pair to pair, so the overhead
  // is a ratio of like with like.
  const auto start = Clock::now();
  for (size_t r = 0; healthy && SecondsSince(start) < seconds; ++r) {
    double mean_ms[2] = {0.0, 0.0};  // untraced, traced
    for (int k = 0; k < (trace_run ? 2 : 1) && healthy; ++k) {
      const bool traced = trace_run && (r + k) % 2 == 1;
      const double sum0 = run.latency_sum_ms;
      const size_t count0 = run.latency_count;
      healthy = round(traced, r, &run, &times);
      ++run.rounds;
      const size_t count = run.latency_count - count0;
      if (count > 0) mean_ms[traced] = (run.latency_sum_ms - sum0) / count;
    }
    if (trace_run && mean_ms[0] > 0.0 && mean_ms[1] > 0.0) {
      run.overhead_ratios.push_back(mean_ms[1] / mean_ms[0]);
    }
  }
  pme::trace::SetEnabled(false);

  if (!w.serve && last_toggle.has_value()) {
    // The warm toggle must match a toggle solved from an empty cache.
    pme::maxent::SolutionCache fresh_cache;
    const pme::core::AnalysisSession fresh(table.artifact,
                                           AnalyzeOptions(&fresh_cache));
    const auto fresh_toggle = fresh.Run(last_toggle_inputs->toggled);
    result.Attempt();
    if (!fresh_toggle.ok() ||
        !SamePosterior(fresh_toggle.value().posterior,
                       last_toggle->posterior, 1e-8)) {
      result.Fail("warm toggle differs from a fresh-cache toggle by > 1e-8");
    }
  }

  result.Note("rounds=" + std::to_string(run.rounds) + " attempted=" +
              std::to_string(result.attempted()) + " failed=" +
              std::to_string(result.failed()) + " failed_frac=" +
              std::to_string(result.attempted()
                                 ? double(result.failed()) / result.attempted()
                                 : 1.0));
  if (trace_run) {
    PrintPerLayer(w, run, times, &result);
  } else {
    PrintEndToEnd(w, run, times, &result);
  }
  result.PrintJson();
  return result.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  pme::Flags flags(argc, argv);
  pme::SetMinLogLevel(pme::LogLevel::kWarning);
  const auto& args = flags.positional();
  const Workload* w = FindWorkload(flags.GetString("workload", ""));
  if (args.empty() || w == nullptr) {
    std::fprintf(stderr,
                 "usage: pipeline_bench generate|measure --workload=NAME "
                 "--seed=N [--out=DIR | --inputs=DIR --seconds=S "
                 "--trace=0|1]\n");
    return 2;
  }
  if (args[0] == "generate") {
    return Generate(*w, static_cast<uint64_t>(flags.GetInt("seed", 1)),
                    flags.GetString("out", "."));
  }
  if (args[0] == "measure") return Measure(*w, flags);
  std::fprintf(stderr, "unknown subcommand %s\n", args[0].c_str());
  return 2;
}
