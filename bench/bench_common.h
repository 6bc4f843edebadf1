// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Shared scaffolding for the figure-reproduction benches.
//
// Every bench accepts:
//   --records=N     dataset size (default: scaled-down; --full = 14210)
//   --full          paper scale (14,210 records -> 2,842 buckets of 5)
//   --csv=PATH      also write the series to a CSV file
//   --json=PATH     also write a machine-readable result file (for the
//                   BENCH_*.json perf trajectory tracked across PRs)
//   --threads=N     worker threads for the block-decomposed solve
//                   (0 = hardware concurrency)
//   --simd=MODE     kernel dispatch: auto (default; best of AVX-512 /
//                   AVX2+FMA the CPU supports), avx512, avx2, or off
//                   (portable scalar, for A/B runs)
//   --seed=S        dataset seed
// and prints the same series the corresponding paper figure plots.

#ifndef PME_BENCH_BENCH_COMMON_H_
#define PME_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/vec_math.h"
#include "knowledge/miner.h"
#include "tests/support/experiment.h"

namespace pme::bench {

/// Scale configuration resolved from flags.
struct BenchScale {
  size_t records = 0;
  bool full = false;
  uint64_t seed = 0;
  size_t threads = 1;
  std::string simd = "auto";
  std::string csv_path;
  std::string json_path;
};

inline BenchScale ResolveScale(const Flags& flags, size_t default_records) {
  BenchScale scale;
  scale.full = flags.GetBool("full", false);
  scale.records = static_cast<size_t>(
      flags.GetInt("records", scale.full ? 14210 : default_records));
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 20080612));
  scale.threads = static_cast<size_t>(flags.GetInt("threads", 1));
  scale.simd = flags.GetString("simd", "auto");
  // Applied here, once, before any pipeline work: kernel dispatch is
  // process-global state and benches measure whatever is active.
  kernels::SetSimdMode(kernels::ParseSimdMode(scale.simd));
  scale.csv_path = flags.GetString("csv", "");
  scale.json_path = flags.GetString("json", "");
  return scale;
}

/// --maxattrs: widest QI subset the miner considers. The small-scale
/// default is 3 everywhere; the paper-scale default varies per figure.
inline size_t MaxAttrsFlag(const Flags& flags, const BenchScale& scale,
                           size_t full_default) {
  return static_cast<size_t>(
      flags.GetInt("maxattrs", scale.full ? full_default : 3));
}

/// --kmax: largest knowledge budget K in a sweep, capped at `available`
/// (e.g. the number of mined rules) and at a per-figure paper-scale limit.
inline size_t KMaxFlag(const Flags& flags, const BenchScale& scale,
                       size_t full_cap, size_t available = SIZE_MAX) {
  const size_t cap =
      std::min(available, scale.full ? full_cap : size_t{800});
  return static_cast<size_t>(
      flags.GetInt("kmax", static_cast<long long>(cap)));
}

/// Minimal CSV emitter for bench series (one header + rows of doubles).
/// An empty path disables output (all writes become no-ops).
class CsvWriter {
 public:
  CsvWriter(const std::string& path, const std::vector<std::string>& header) {
    if (path.empty()) return;
    out_.open(path);
    if (!out_) {
      ok_ = false;
      return;
    }
    out_ << Join(header, ",") << "\n";
  }

  /// Appends one row.
  void Row(const std::vector<double>& values) {
    if (!out_.is_open()) return;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ << ",";
      out_ << FormatDouble(values[i]);
    }
    out_ << "\n";
  }

  /// True when the file opened successfully (or output is disabled).
  bool ok() const { return ok_; }

 private:
  std::ofstream out_;
  bool ok_ = true;
};

/// Minimal JSON emitter for bench result files: one top-level object of
/// scalar fields plus a "series" array of flat row objects. The file is
/// written by `Write()` (or the destructor). An empty path disables all
/// output. No escaping is performed — keys and string values are plain
/// identifiers by construction.
class JsonWriter {
 public:
  JsonWriter(std::string path, std::string bench)
      : path_(std::move(path)) {
    Field("bench", bench);
  }
  ~JsonWriter() { Write(); }

  void Field(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }
  void Field(const std::string& key, double value) {
    fields_.emplace_back(key, FormatDouble(value));
  }
  void Field(const std::string& key, size_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  /// Embeds `json` verbatim as the value of `key` — the caller vouches
  /// it is well-formed JSON (e.g. a metrics registry snapshot).
  void RawField(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  /// Captures the process metrics registry under a "metrics" key, so
  /// BENCH_*.json files carry the cache/solver censuses alongside the
  /// timings they explain.
  void EmbedMetricsSnapshot() {
    RawField("metrics", metrics::Registry::Global().RenderJson());
  }

  /// Starts a fresh row in the "series" array.
  void BeginRow() { rows_.emplace_back(); }
  void RowField(const std::string& key, const std::string& value) {
    rows_.back().emplace_back(key, "\"" + value + "\"");
  }
  void RowField(const std::string& key, double value) {
    rows_.back().emplace_back(key, FormatDouble(value));
  }
  void RowField(const std::string& key, size_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }

  /// Writes the file (idempotent; subsequent calls are no-ops).
  void Write() {
    if (path_.empty() || written_) return;
    written_ = true;
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path_.c_str());
      return;
    }
    std::fprintf(out, "{\n");
    for (const auto& [key, value] : fields_) {
      std::fprintf(out, "  \"%s\": %s,\n", key.c_str(), value.c_str());
    }
    std::fprintf(out, "  \"series\": [\n");
    for (size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(out, "    {");
      for (size_t i = 0; i < rows_[r].size(); ++i) {
        std::fprintf(out, "%s\"%s\": %s", i > 0 ? ", " : "",
                     rows_[r][i].first.c_str(), rows_[r][i].second.c_str());
      }
      std::fprintf(out, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

 private:
  std::string path_;
  bool written_ = false;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Builds the standard evaluation pipeline (Adult-like data, 5-diversity
/// Anatomy buckets, mined rules over QI subsets up to `max_attrs`).
inline core::ExperimentPipeline BuildStandardPipeline(const BenchScale& scale,
                                                      size_t max_attrs,
                                                      bool mine = true) {
  core::PipelineOptions options;
  options.data.num_records = scale.records;
  options.data.seed = scale.seed;
  options.anatomy.ell = 5;
  options.miner.min_support_records = 3;  // paper: 3/14210 support floor
  options.miner.max_attrs = max_attrs;
  options.mine_rules = mine;
  auto pipeline = core::BuildPipeline(options);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "pipeline construction failed: %s\n",
                 pipeline.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(pipeline).value();
}

/// Fails fast with the status message.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// A default K sweep, denser at the low end (the paper's curves drop
/// fastest there), capped by the number of available rules.
inline std::vector<size_t> KSweep(size_t max_k) {
  std::vector<size_t> ks = {0};
  for (size_t k = 25; k < max_k; k = k < 100 ? k * 2 : k * 2) {
    ks.push_back(k);
  }
  ks.push_back(max_k);
  return ks;
}

/// Selects `n` *informative, non-degenerate* rules for the performance
/// experiments (Figure 7): rules asserting conditionals away from 0/1 are
/// sampled evenly across the ranked list. Hard-zero rules are excluded on
/// purpose — presolve resolves them structurally (zero iterations), which
/// would measure the presolver instead of the iterative solver the figure
/// is about.
inline std::vector<knowledge::AssociationRule> SampleInformativeRules(
    const std::vector<knowledge::AssociationRule>& rules, size_t n) {
  std::vector<knowledge::AssociationRule> informative;
  for (const auto& r : rules) {
    if (r.conditional > 0.02 && r.conditional < 0.98) {
      informative.push_back(r);
    }
  }
  std::vector<knowledge::AssociationRule> out;
  if (informative.empty() || n == 0) return out;
  const double stride =
      std::max(1.0, static_cast<double>(informative.size()) /
                        static_cast<double>(n));
  for (double i = 0; i < static_cast<double>(informative.size()) &&
                     out.size() < n;
       i += stride) {
    out.push_back(informative[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace pme::bench

#endif  // PME_BENCH_BENCH_COMMON_H_
