// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_CORE_REPORT_H_
#define PME_CORE_REPORT_H_

#include <string>

#include "anonymize/bucketized_table.h"
#include "core/privacy_maxent.h"

namespace pme::core {

/// Options for the human-readable privacy report.
struct ReportOptions {
  /// How many highest-risk QI instances to list: highest posterior
  /// first, equal posteriors in ascending QI id.
  size_t top_risks = 10;
  /// Posterior probability above which a (QI, SA) link counts as a
  /// near-certain disclosure.
  double disclosure_threshold = 0.9;
  /// Include the assumed-knowledge census section.
  bool include_knowledge_census = true;
};

/// Renders the (bound, privacy score) outcome of an analysis as a text
/// report for the data owner — the artifact Section 4.3 of the paper says
/// privacy quantification should hand to users: the assumptions made
/// about the adversary, and the privacy achieved under them.
std::string RenderPrivacyReport(const anonymize::BucketizedTable& table,
                                const Analysis& analysis,
                                const ReportOptions& options = {});

/// One line per (QI, SA) pair: "qi,sa,posterior" rows of the full
/// posterior table, as RFC 4180 CSV text (machine-readable companion to
/// the report). A label holding a comma or a quote — a dataset-backed QI
/// name such as "age=31-35,sex=male" — is quoted, inner quotes doubled.
std::string PosteriorToCsv(const anonymize::BucketizedTable& table,
                           const Analysis& analysis);

}  // namespace pme::core

#endif  // PME_CORE_REPORT_H_
