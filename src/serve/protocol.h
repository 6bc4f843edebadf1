// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_SERVE_PROTOCOL_H_
#define PME_SERVE_PROTOCOL_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"
#include "core/privacy_maxent.h"
#include "maxent/solver.h"

namespace pme::serve {

/// What a request line asks the server to do. `analyze` (the default)
/// runs a solve; `stats` returns the process-wide metrics registry as
/// JSON and touches no solver state.
enum class Verb { kAnalyze, kStats };

/// One analyze request, decoded from a newline-delimited JSON object:
///
///   {"id": "r1",
///    "knowledge": ["P(flu | gender=male) = 0.3", ...],
///    "deadline_ms": 250,
///    "cache": "warm",
///    "trace": true}
///
/// Every field is optional. `knowledge` holds statement lines in the
/// language of knowledge/parser.h (dataset-mode statements need the
/// server's artifact to carry a QI encoder). `deadline_ms <= 0` means an
/// already-expired budget: the solve degrades every component to its
/// closed-form prior immediately (the protocol-level probe for deadline
/// semantics). Absent `deadline_ms` inherits the server default.
/// `cache` ("off" | "exact" | "warm", maxent::ParseCacheMode) overrides
/// the server default per request. A `solver` field is kInvalidArgument:
/// there is one minimizer.
/// `trace: true` attaches the request's span breakdown (parse, compile,
/// solve, per-block solves, evaluate) to the response under "trace".
/// `{"verb": "stats"}` instead returns the metrics snapshot.
struct AnalyzeRequest {
  std::string id;
  Verb verb = Verb::kAnalyze;
  std::vector<std::string> knowledge;
  bool has_deadline = false;
  double deadline_ms = 0.0;
  bool has_cache = false;
  maxent::CacheMode cache = maxent::CacheMode::kWarm;
  bool trace = false;
};

/// Parses one request line. kInvalidArgument on malformed JSON, unknown
/// fields of the wrong type, an unknown cache name, or a `solver` field.
Result<AnalyzeRequest> ParseAnalyzeRequest(std::string_view line);

/// One analyze response, encoded as a single JSON line. `ok == false`
/// carries only {id, ok, error}; success carries the privacy metrics,
/// the solve census, and the per-request cache census:
///
///   {"id":"r1","ok":true,"estimation_accuracy":…,"max_disclosure":…,
///    "expected_best_guess":…,"min_effective_candidates":…,
///    "num_background_constraints":N,"num_vacuous_statements":N,
///    "iterations":N,"solve_seconds":…,"total_seconds":…,
///    "converged":b,"degraded":b,"termination":"ok|deadline_exceeded|…",
///    "components_solved":N,"components_degraded":N,
///    "components_failed":N,
///    "cache_exact_hits":N,"cache_warm_hits":N,"cache_misses":N}
struct AnalyzeResponse {
  std::string id;
  bool ok = false;
  std::string error;  // set when !ok

  double estimation_accuracy = 0.0;
  double max_disclosure = 0.0;
  double expected_best_guess = 0.0;
  double min_effective_candidates = 0.0;
  size_t num_background_constraints = 0;
  size_t num_vacuous_statements = 0;
  size_t iterations = 0;
  double solve_seconds = 0.0;
  double total_seconds = 0.0;
  bool converged = false;
  bool degraded = false;
  std::string termination = "ok";
  size_t components_solved = 0;
  size_t components_degraded = 0;
  size_t components_failed = 0;
  size_t cache_exact_hits = 0;
  size_t cache_warm_hits = 0;
  size_t cache_misses = 0;

  /// Pre-rendered JSON array of span objects (set only for
  /// `"trace": true` requests); empty = no "trace" key in the output.
  std::string trace_json;
};

/// Fills a success response from an Analysis (id/total_seconds are the
/// caller's).
AnalyzeResponse MakeSuccessResponse(const std::string& id,
                                    const core::Analysis& analysis,
                                    double total_seconds);

/// Fills an error response.
AnalyzeResponse MakeErrorResponse(const std::string& id,
                                  const Status& status);

/// Renders the single-line JSON encoding (no trailing newline).
std::string RenderAnalyzeResponse(const AnalyzeResponse& response);

/// Renders captured spans as the protocol's "trace" array: one object
/// per span with name, category, start/duration in microseconds, the
/// worker thread id, and any numeric span args.
std::string RenderTraceSpans(const std::vector<trace::TraceEvent>& events);

/// Renders the `stats` verb's response line: {"id":…,"ok":true,
/// "stats":<metrics::Registry JSON>}.
std::string RenderStatsResponse(const std::string& id);

/// Protocol spelling of a solve's terminal status.
std::string TerminationToString(StatusCode code);

}  // namespace pme::serve

#endif  // PME_SERVE_PROTOCOL_H_
