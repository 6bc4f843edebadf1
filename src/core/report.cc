#include "core/report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <vector>

#include "anonymize/diversity.h"
#include "common/string_util.h"
#include "common/vec_math.h"

namespace pme::core {
namespace {

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// `field` as one RFC 4180 field: quoted, with inner quotes doubled, when
/// it holds a delimiter, a quote or a line break.
std::string CsvField(std::string field) {
  if (field.find_first_of(",\"\r\n") == std::string::npos) return field;
  std::string quoted = "\"";
  for (char c : field) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace

std::string RenderPrivacyReport(const anonymize::BucketizedTable& table,
                                const Analysis& analysis,
                                const ReportOptions& options) {
  std::ostringstream out;
  out << "=== Privacy-MaxEnt report ===\n\n";

  out << "[published table]\n";
  out << "  records:            " << table.num_records() << "\n";
  out << "  buckets:            " << table.num_buckets() << "\n";
  out << "  QI instances:       " << table.num_qi_values() << "\n";
  out << "  SA instances:       " << table.num_sa_values() << "\n";
  const auto diversity = anonymize::MeasureDiversity(table);
  out << "  min distinct l-div: " << diversity.min_distinct << " (bucket "
      << diversity.worst_bucket + 1 << ")\n";
  out << "  min entropy l-div:  " << Fmt("%.2f", diversity.min_entropy_ell)
      << "\n\n";

  if (options.include_knowledge_census) {
    out << "[assumed adversary knowledge — the bound]\n";
    out << "  background constraints: "
        << analysis.num_background_constraints << "\n";
    out << "  vacuous statements:     " << analysis.num_vacuous_statements
        << "\n";
    out << "  relevant buckets:       "
        << analysis.decomposition.relevant_buckets << " / "
        << table.num_buckets() << "\n\n";
  }

  out << "[maxent solve]\n";
  out << "  kernel isa:        " << kernels::SimdModeName() << "\n";
  out << "  iterations:        " << analysis.solver.iterations << "\n";
  out << "  wall time:         " << Fmt("%.3f s", analysis.solver.seconds)
      << "\n";
  out << "  converged:         "
      << (analysis.solver.converged ? "yes" : "no") << "\n";
  if (analysis.solver.termination != StatusCode::kOk) {
    out << "  termination:       "
        << StatusCodeToString(analysis.solver.termination) << "\n";
  }
  out << "  worst violation:   " << Fmt("%.2e", analysis.solver.max_violation)
      << "\n";
  out << "  entropy:           " << Fmt("%.4f nats", analysis.solver.entropy)
      << "\n";
  if (!analysis.solver.component_outcomes.empty()) {
    out << "  components:        " << analysis.solver.components_solved
        << " solved, " << analysis.solver.components_degraded << " degraded, "
        << analysis.solver.components_failed << " failed\n";
    for (const auto& c : analysis.solver.component_outcomes) {
      if (!c.degraded) continue;
      out << "    block " << c.block << " (" << c.num_variables << " vars): "
          << (c.used_prior ? "kept closed-form prior"
                           : "kept best iterate")
          << " (" << StatusCodeToString(c.status)
          << (c.message.empty() ? "" : ": " + c.message) << "; "
          << c.iterations << " iterations, worst violation "
          << Fmt("%.2e", c.max_violation) << ")\n";
    }
  }
  if (analysis.solver.cache_enabled) {
    out << "  solution cache:    " << analysis.solver.cache_exact_hits
        << " exact, " << analysis.solver.cache_warm_hits << " warm, "
        << analysis.solver.cache_misses << " cold; "
        << analysis.solver.cache_entries << " entries resident ("
        << Fmt("%.2f MiB",
               static_cast<double>(analysis.solver.cache_resident_doubles) *
                   sizeof(double) / (1024.0 * 1024.0))
        << ", " << analysis.solver.cache_evictions << " evicted)\n";
  }
  out << "\n";

  out << "[privacy under this bound]\n";
  out << "  estimation accuracy (weighted KL, smaller = less privacy): "
      << Fmt("%.4f", analysis.estimation_accuracy) << "\n";
  out << "  max disclosure:            "
      << Fmt("%.4f", analysis.metrics.max_disclosure) << "\n";
  out << "  expected best guess:       "
      << Fmt("%.4f", analysis.metrics.expected_best_guess) << "\n";
  out << "  min effective candidates:  "
      << Fmt("%.2f", analysis.metrics.min_effective_candidates) << "\n\n";

  // Rank QI instances by their worst posterior.
  struct Risk {
    uint32_t q;
    uint32_t s;
    double posterior;
  };
  std::vector<Risk> risks;
  size_t certain_links = 0;
  for (uint32_t q = 0; q < analysis.posterior.num_qi(); ++q) {
    const double* row = analysis.posterior.RowData(q);
    double best = 0.0;
    uint32_t best_s = 0;
    for (uint32_t s = 0; s < analysis.posterior.num_sa(); ++s) {
      const double p = row[s];
      if (p >= options.disclosure_threshold) ++certain_links;
      if (p > best) {
        best = p;
        best_s = s;
      }
    }
    risks.push_back({q, best_s, best});
  }
  // Only the printed prefix is ranked: highest posterior first, ties in
  // ascending q, so the list is fully determined.
  const size_t n = std::min(options.top_risks, risks.size());
  std::partial_sort(risks.begin(), risks.begin() + n, risks.end(),
                    [](const Risk& a, const Risk& b) {
                      return a.posterior != b.posterior
                                 ? a.posterior > b.posterior
                                 : a.q < b.q;
                    });

  out << "[highest-risk individuals]\n";
  out << "  near-certain links (posterior >= "
      << Fmt("%.2f", options.disclosure_threshold) << "): " << certain_links
      << "\n";
  for (size_t i = 0; i < n; ++i) {
    out << "  " << i + 1 << ". " << table.QiName(risks[i].q) << " -> "
        << table.SaName(risks[i].s) << "  (posterior "
        << Fmt("%.4f", risks[i].posterior) << ")\n";
  }
  return out.str();
}

std::string PosteriorToCsv(const anonymize::BucketizedTable& table,
                           const Analysis& analysis) {
  std::ostringstream out;
  out << "qi,sa,posterior\n";
  std::vector<std::string> sa_fields(analysis.posterior.num_sa());
  for (uint32_t s = 0; s < sa_fields.size(); ++s) {
    sa_fields[s] = CsvField(table.SaName(s));
  }
  for (uint32_t q = 0; q < analysis.posterior.num_qi(); ++q) {
    const std::string qi_field = CsvField(table.QiName(q));
    const double* row = analysis.posterior.RowData(q);
    for (uint32_t s = 0; s < analysis.posterior.num_sa(); ++s) {
      out << qi_field << "," << sa_fields[s] << "," << FormatDouble(row[s])
          << "\n";
    }
  }
  return out.str();
}

}  // namespace pme::core
