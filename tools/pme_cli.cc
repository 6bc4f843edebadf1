// pme — command-line front end for the Privacy-MaxEnt library.
//
// Subcommands:
//   synth    generate the synthetic Adult-like benchmark CSV
//   mine     mine the strongest association rules from a CSV
//   analyze  bucketize a CSV, apply a knowledge file, and quantify privacy
//   serve    load one table artifact and serve JSON analyze requests
//   help     print the usage synopsis
//
// Examples:
//   pme synth --records=14210 --out=adult.csv
//   pme mine --data=adult.csv --sensitive=education --top=20
//   pme analyze --data=adult.csv --sensitive=education --ell=5
//       --knowledge=knowledge.txt --report=report.txt
//   pme serve --data=adult.csv --sensitive=education --port=7321
//
// Knowledge files use the statement language of knowledge/parser.h, e.g.:
//   P(breast-cancer | gender=male) = 0
//   P(flu | gender=male) = 0.3

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "anonymize/anatomy.h"
#include "anonymize/bucketized_table.h"
#include "common/deadline.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "common/vec_math.h"
#include "core/privacy_maxent.h"
#include "core/report.h"
#include "data/adult_synth.h"
#include "data/csv.h"
#include "core/analysis_session.h"
#include "core/table_artifact.h"
#include "knowledge/miner.h"
#include "knowledge/parser.h"
#include "maxent/solution_cache.h"
#include "serve/serve_main.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: pme <synth|mine|analyze|serve|help> [--flags]\n"
               "  synth    --records=N --out=FILE [--seed=S]\n"
               "  mine     --data=FILE --sensitive=ATTR [--top=N]\n"
               "           [--minsupport=N] [--maxattrs=T]\n"
               "  analyze  --data=FILE --sensitive=ATTR [--ell=L]\n"
               "           [--knowledge=FILE] [--solver=lbfgs|gis|iis|"
               "steepest|newton|projected]\n"
               "           [--threads=N] [--simd=off|avx2|avx512|auto]\n"
               "           [--deadline-ms=N] [--fallback=on|off]\n"
               "           [--cache=off|exact|warm] [--cache-mb=N] "
               "[--repeat=N]\n"
               "           [--report=FILE] [--posterior=FILE]\n"
               "           [--metrics-out=FILE] [--trace-out=FILE]\n"
               "  serve    [--data=FILE --sensitive=ATTR | --records=N] "
               "[--ell=L]\n"
               "           [--host=ADDR] [--port=N] [--threads=N] "
               "[--deadline-ms=N]\n"
               "           [--solver=...] [--cache=off|exact|warm] "
               "[--cache-mb=N]\n"
               "           [--max-connections=N] "
               "[--metrics-out=FILE] [--trace-out=FILE]\n"
               "  help     print this synopsis\n"
               "\n"
               "--metrics-out dumps the metrics registry as JSON at exit;\n"
               "--trace-out dumps recorded spans as Chrome trace-event JSON\n"
               "(load in chrome://tracing or https://ui.perfetto.dev).\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

int Fail(const pme::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Honors --metrics-out / --trace-out: dumps the registry JSON and a
/// loadable Chrome trace of every recorded span. Called on the way out
/// of the subcommands that run solves.
void DumpObservability(const pme::Flags& flags) {
  const std::string metrics_path = flags.GetString("metrics-out", "");
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (out) {
      out << pme::metrics::Registry::Global().RenderJson() << "\n";
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot open %s\n", metrics_path.c_str());
    }
  }
  const std::string trace_path = flags.GetString("trace-out", "");
  if (!trace_path.empty()) {
    if (pme::trace::WriteChromeTrace(trace_path)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: cannot open %s\n", trace_path.c_str());
    }
  }
}

pme::Result<pme::data::Dataset> LoadData(const pme::Flags& flags) {
  const std::string path = flags.GetString("data", "");
  if (path.empty()) {
    return pme::Status::InvalidArgument("--data=FILE is required");
  }
  pme::data::CsvReadOptions options;
  const std::string sensitive = flags.GetString("sensitive", "");
  if (sensitive.empty()) {
    return pme::Status::InvalidArgument("--sensitive=ATTR is required");
  }
  options.sensitive_attributes = {sensitive};
  for (const auto& id : pme::Split(flags.GetString("id", ""), ',')) {
    if (!id.empty()) options.identifier_attributes.emplace_back(id);
  }
  return pme::data::ReadCsv(path, options);
}

int RunSynth(const pme::Flags& flags) {
  pme::data::AdultSynthOptions options;
  options.num_records = static_cast<size_t>(flags.GetInt("records", 14210));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 20080612));
  const std::string out = flags.GetString("out", "adult_like.csv");
  auto dataset = pme::data::GenerateAdultLike(options);
  if (!dataset.ok()) return Fail(dataset.status());
  if (auto s = pme::data::WriteCsv(dataset.value(), out); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %zu records to %s\n", dataset.value().num_records(),
              out.c_str());
  return 0;
}

int RunMine(const pme::Flags& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());
  pme::knowledge::MinerOptions options;
  options.min_support_records =
      static_cast<size_t>(flags.GetInt("minsupport", 3));
  options.max_attrs = static_cast<size_t>(flags.GetInt("maxattrs", 3));
  auto rules =
      pme::knowledge::MineAssociationRules(dataset.value(), options);
  if (!rules.ok()) return Fail(rules.status());
  const size_t top = static_cast<size_t>(flags.GetInt("top", 20));
  auto selected = pme::knowledge::TopK(rules.value(), top, top);
  std::printf("%zu rules mined; top %zu per polarity:\n",
              rules.value().size(), top);
  for (const auto& r : selected) {
    std::printf("  %s\n", r.ToString(dataset.value()).c_str());
  }
  return 0;
}

pme::Result<pme::maxent::SolverKind> ParseSolver(const std::string& name) {
  using pme::maxent::SolverKind;
  if (name == "lbfgs") return SolverKind::kLbfgs;
  if (name == "gis") return SolverKind::kGis;
  if (name == "iis") return SolverKind::kIis;
  if (name == "steepest") return SolverKind::kSteepest;
  if (name == "newton") return SolverKind::kNewton;
  if (name == "projected") return SolverKind::kProjected;
  return pme::Status::InvalidArgument("unknown solver: " + name);
}

int RunAnalyze(const pme::Flags& flags) {
  auto dataset = LoadData(flags);
  if (!dataset.ok()) return Fail(dataset.status());

  pme::anonymize::AnatomyOptions anatomy;
  anatomy.ell = static_cast<size_t>(flags.GetInt("ell", 5));
  auto partition = pme::anonymize::AnatomyPartition(dataset.value(), anatomy);
  if (!partition.ok()) return Fail(partition.status());
  auto bz = pme::anonymize::BucketizeDataset(dataset.value(),
                                             partition.value());
  if (!bz.ok()) return Fail(bz.status());

  pme::knowledge::KnowledgeBase kb;
  const std::string knowledge_path = flags.GetString("knowledge", "");
  if (!knowledge_path.empty()) {
    std::ifstream in(knowledge_path);
    if (!in) {
      return Fail(pme::Status::IoError("cannot open " + knowledge_path));
    }
    std::ostringstream text;
    text << in.rdbuf();
    pme::knowledge::ParserContext context;
    context.dataset = &dataset.value();
    if (auto s = pme::knowledge::ParseKnowledge(text.str(), context, &kb);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("loaded %zu knowledge statements from %s\n", kb.size(),
                knowledge_path.c_str());
  }

  pme::core::AnalysisOptions options;
  auto solver = ParseSolver(flags.GetString("solver", "lbfgs"));
  if (!solver.ok()) return Fail(solver.status());
  options.solver = solver.value();
  // Independent knowledge components are solved in parallel; 0 = all
  // hardware threads, 1 (default) = serial. The result is identical for
  // any value.
  options.solver_options.threads =
      static_cast<size_t>(flags.GetInt("threads", 1));
  // Kernel dispatch: auto picks the widest tier the CPU supports
  // (AVX-512 > AVX2+FMA > scalar); forcing a missing tier falls back
  // down that ladder. Posteriors agree to ~1e-10 across all modes.
  pme::kernels::SetSimdMode(
      pme::kernels::ParseSimdMode(flags.GetString("simd", "auto")));
  // Wall-time budget for the whole solve. Components that run out of
  // their share degrade to cheaper solvers or the closed-form prior
  // rather than aborting the analysis (see --fallback).
  const long long deadline_ms = flags.GetInt("deadline-ms", 0);
  if (deadline_ms > 0) {
    options.solver_options.deadline = pme::Deadline::AfterMillis(
        static_cast<int64_t>(deadline_ms));
  }
  const std::string fallback = flags.GetString("fallback", "on");
  if (fallback != "on" && fallback != "off") {
    return Fail(pme::Status::InvalidArgument(
        "--fallback must be 'on' or 'off', got '" + fallback + "'"));
  }
  options.solver_options.fallback = fallback == "on";

  // Component-solution cache: off disables it, exact reuses byte-identical
  // component solves, warm (default) additionally warm-starts edited
  // components. Within one `pme analyze` the cache only pays off with
  // --repeat, which re-runs the analysis against the same cache — the
  // measurement mode for incremental re-analysis (round 2+ should be
  // answered almost entirely from the cache).
  const std::string cache_flag = flags.GetString("cache", "warm");
  pme::maxent::CacheMode cache_mode;
  if (cache_flag == "off") {
    cache_mode = pme::maxent::CacheMode::kOff;
  } else if (cache_flag == "exact") {
    cache_mode = pme::maxent::CacheMode::kExact;
  } else if (cache_flag == "warm") {
    cache_mode = pme::maxent::CacheMode::kWarm;
  } else {
    return Fail(pme::Status::InvalidArgument(
        "--cache must be 'off', 'exact' or 'warm', got '" + cache_flag +
        "'"));
  }
  const long long cache_mb = flags.GetInt("cache-mb", 64);
  pme::maxent::SolutionCache cache(
      static_cast<size_t>(cache_mb > 0 ? cache_mb : 1) << 20);
  options.solver_options.cache_mode = cache_mode;
  if (cache_mode != pme::maxent::CacheMode::kOff) {
    options.solver_options.solution_cache = &cache;
  }

  // Build the immutable table artifact once — TermIndex, invariants,
  // component base — and run every round as a session against it, so
  // --repeat measures exactly the per-request cost an artifact-holding
  // server pays.
  pme::core::TableArtifactOptions artifact_options;
  artifact_options.invariant_options = options.invariant_options;
  auto artifact = pme::core::TableArtifact::BuildBorrowed(
      bz.value().table, &bz.value().qi_encoder, artifact_options);
  if (!artifact.ok()) return Fail(artifact.status());
  const pme::core::AnalysisSession session(artifact.value(), options);

  const long long repeat = flags.GetInt("repeat", 1);
  pme::Result<pme::core::Analysis> analysis =
      pme::Status::Internal("analysis never ran");
  for (long long round = 0; round < std::max(repeat, 1LL); ++round) {
    // One top-level span per round, so a --repeat run with --trace-out
    // opens in chrome://tracing as a timeline of rounds.
    pme::trace::TraceSpan round_span("analysis_round", "cli");
    round_span.AddArg("round", static_cast<double>(round + 1));
    analysis = session.Run(kb);
    if (!analysis.ok()) return Fail(analysis.status());
    if (repeat > 1) {
      const auto& solver = analysis.value().solver;
      std::printf(
          "round %lld: solve %.4f s, %zu iterations, cache %zu exact / %zu "
          "warm / %zu cold\n",
          round + 1, solver.seconds, solver.iterations,
          solver.cache_exact_hits, solver.cache_warm_hits,
          solver.cache_misses);
    }
  }

  pme::core::ReportOptions report_options;
  report_options.top_risks =
      static_cast<size_t>(flags.GetInt("toprisks", 10));
  const std::string report = pme::core::RenderPrivacyReport(
      bz.value().table, analysis.value(), report_options);

  const std::string report_path = flags.GetString("report", "");
  if (report_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(report_path);
    out << report;
    std::printf("report written to %s\n", report_path.c_str());
  }

  const std::string posterior_path = flags.GetString("posterior", "");
  if (!posterior_path.empty()) {
    std::ofstream out(posterior_path);
    out << pme::core::PosteriorToCsv(bz.value().table, analysis.value());
    std::printf("posterior written to %s\n", posterior_path.c_str());
  }
  DumpObservability(flags);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  pme::Flags flags(argc, argv);
  if (command == "synth") return RunSynth(flags);
  if (command == "mine") return RunMine(flags);
  if (command == "analyze") return RunAnalyze(flags);
  if (command == "serve") return pme::serve::ServeMain(flags);
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  std::fprintf(stderr, "pme: unknown subcommand '%s'\n", command.c_str());
  return Usage();
}
