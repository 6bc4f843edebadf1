#include "serve/protocol.h"

#include <cmath>

#include "common/metrics.h"
#include "common/vec_math.h"
#include "serve/json.h"

namespace pme::serve {

std::string TerminationToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kNotConverged:
      return "not_converged";
    case StatusCode::kNumericalError:
      return "numerical_error";
    default:
      return "error";
  }
}

Result<AnalyzeRequest> ParseAnalyzeRequest(std::string_view line) {
  PME_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(line));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  AnalyzeRequest request;
  if (const JsonValue* id = doc.Find("id"); id != nullptr) {
    if (id->is_string()) {
      request.id = id->string_value;
    } else if (id->is_number()) {
      request.id = JsonNumber(id->number_value);
    } else {
      return Status::InvalidArgument("'id' must be a string or number");
    }
  }
  if (const JsonValue* kn = doc.Find("knowledge"); kn != nullptr) {
    if (!kn->is_array()) {
      return Status::InvalidArgument("'knowledge' must be an array");
    }
    request.knowledge.reserve(kn->array.size());
    for (const JsonValue& s : kn->array) {
      if (!s.is_string()) {
        return Status::InvalidArgument(
            "'knowledge' entries must be statement strings");
      }
      request.knowledge.push_back(s.string_value);
    }
  }
  if (const JsonValue* dl = doc.Find("deadline_ms"); dl != nullptr) {
    if (!dl->is_number()) {
      return Status::InvalidArgument("'deadline_ms' must be a number");
    }
    request.has_deadline = true;
    request.deadline_ms = dl->number_value;
  }
  if (doc.Find("solver") != nullptr) {
    return Status::InvalidArgument(
        "'solver' was removed: every problem is solved by LBFGS");
  }
  if (const JsonValue* cm = doc.Find("cache"); cm != nullptr) {
    if (!cm->is_string()) {
      return Status::InvalidArgument("'cache' must be a string");
    }
    PME_ASSIGN_OR_RETURN(request.cache,
                         maxent::ParseCacheMode(cm->string_value));
    request.has_cache = true;
  }
  if (const JsonValue* vb = doc.Find("verb"); vb != nullptr) {
    if (!vb->is_string()) {
      return Status::InvalidArgument("'verb' must be a string");
    }
    if (vb->string_value == "analyze") {
      request.verb = Verb::kAnalyze;
    } else if (vb->string_value == "stats") {
      request.verb = Verb::kStats;
    } else {
      return Status::InvalidArgument(
          "verb must be 'analyze' or 'stats', got '" + vb->string_value +
          "'");
    }
  }
  if (const JsonValue* tr = doc.Find("trace"); tr != nullptr) {
    if (!tr->is_bool()) {
      return Status::InvalidArgument("'trace' must be a boolean");
    }
    request.trace = tr->bool_value;
  }
  return request;
}

AnalyzeResponse MakeSuccessResponse(const std::string& id,
                                    const core::Analysis& analysis,
                                    double total_seconds) {
  AnalyzeResponse r;
  r.id = id;
  r.ok = true;
  r.estimation_accuracy = analysis.estimation_accuracy;
  r.max_disclosure = analysis.metrics.max_disclosure;
  r.expected_best_guess = analysis.metrics.expected_best_guess;
  r.min_effective_candidates = analysis.metrics.min_effective_candidates;
  r.num_background_constraints = analysis.num_background_constraints;
  r.num_vacuous_statements = analysis.num_vacuous_statements;
  r.iterations = analysis.solver.iterations;
  r.solve_seconds = analysis.solver.seconds;
  r.total_seconds = total_seconds;
  r.converged = analysis.solver.converged;
  r.degraded = analysis.solver.degraded;
  r.termination = TerminationToString(analysis.solver.termination);
  r.components_solved = analysis.solver.components_solved;
  r.components_degraded = analysis.solver.components_degraded;
  r.components_failed = analysis.solver.components_failed;
  r.cache_exact_hits = analysis.solver.cache_exact_hits;
  r.cache_warm_hits = analysis.solver.cache_warm_hits;
  r.cache_misses = analysis.solver.cache_misses;
  return r;
}

AnalyzeResponse MakeErrorResponse(const std::string& id,
                                  const Status& status) {
  AnalyzeResponse r;
  r.id = id;
  r.ok = false;
  r.error = status.ToString();
  return r;
}

std::string RenderAnalyzeResponse(const AnalyzeResponse& response) {
  std::string out = "{\"id\":\"" + EscapeJson(response.id) + "\"";
  if (!response.ok) {
    out += ",\"ok\":false,\"error\":\"" + EscapeJson(response.error) + "\"}";
    return out;
  }
  const auto num = [&out](const char* key, double v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += JsonNumber(v);
  };
  const auto count = [&out](const char* key, size_t v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += std::to_string(v);
  };
  const auto flag = [&out](const char* key, bool v) {
    out += ",\"";
    out += key;
    out += "\":";
    out += v ? "true" : "false";
  };
  out += ",\"ok\":true";
  num("estimation_accuracy", response.estimation_accuracy);
  num("max_disclosure", response.max_disclosure);
  num("expected_best_guess", response.expected_best_guess);
  num("min_effective_candidates", response.min_effective_candidates);
  count("num_background_constraints", response.num_background_constraints);
  count("num_vacuous_statements", response.num_vacuous_statements);
  count("iterations", response.iterations);
  num("solve_seconds", response.solve_seconds);
  num("total_seconds", response.total_seconds);
  flag("converged", response.converged);
  flag("degraded", response.degraded);
  out += ",\"termination\":\"" + EscapeJson(response.termination) + "\"";
  count("components_solved", response.components_solved);
  count("components_degraded", response.components_degraded);
  count("components_failed", response.components_failed);
  count("cache_exact_hits", response.cache_exact_hits);
  count("cache_warm_hits", response.cache_warm_hits);
  count("cache_misses", response.cache_misses);
  if (!response.trace_json.empty()) {
    out += ",\"trace\":" + response.trace_json;
  }
  out += "}";
  return out;
}

std::string RenderTraceSpans(const std::vector<trace::TraceEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const trace::TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + EscapeJson(e.name) + "\"";
    out += ",\"cat\":\"";
    out += e.category != nullptr ? EscapeJson(e.category) : "pme";
    out += "\",\"start_us\":" +
           JsonNumber(static_cast<double>(e.start_ns) / 1e3);
    out += ",\"dur_us\":" + JsonNumber(static_cast<double>(e.dur_ns) / 1e3);
    out += ",\"tid\":" + std::to_string(e.tid);
    for (size_t a = 0; a < trace::TraceEvent::kMaxArgs; ++a) {
      if (e.arg_names[a] == nullptr) continue;
      out += ",\"" + EscapeJson(e.arg_names[a]) +
             "\":" + JsonNumber(e.arg_values[a]);
    }
    out += "}";
  }
  out += "]";
  return out;
}

std::string RenderStatsResponse(const std::string& id) {
  // The active kernel ISA rides along as a readable string; the numeric
  // vec_math.simd_tier gauge inside the registry snapshot says the same.
  return "{\"id\":\"" + EscapeJson(id) + "\",\"ok\":true,\"simd\":\"" +
         std::string(kernels::SimdModeName()) + "\",\"stats\":" +
         metrics::Registry::Global().RenderJson() + "}";
}

}  // namespace pme::serve
