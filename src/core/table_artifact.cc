#include "core/table_artifact.h"

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/trace.h"
#include "maxent/closed_form.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace pme::core {
namespace {

/// The process that builds an artifact serves requests from it, and each
/// request allocates and frees multi-MB buffers (its block problems, the
/// dual's vectors, the posterior overlay). glibc's default thresholds
/// follow the largest buffer freed so far: a buffer above them is mapped
/// fresh and faults its pages in, and a free heap top above twice the
/// threshold goes back to the OS, to be faulted in again by the next
/// request or set-up. Fixing them at glibc's own dynamic maximum keeps
/// such buffers in the heap. Once per process.
void KeepRequestBuffersInTheHeap() {
#if defined(__GLIBC__)
  static const bool tuned = [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    return true;
  }();
  (void)tuned;
#endif
}

/// Digest of everything that determines the artifact's compiled rows:
/// the abstract records (the published view plus ground-truth bindings
/// derive from exactly these), the instance-space dimensions, and the
/// invariant options. Deliberately independent of label strings and any
/// in-memory layout.
Hash128 ComputeContentHash(const anonymize::BucketizedTable& table,
                           const TableArtifactOptions& options) {
  Hasher128 h;
  h.Update(std::string_view("pme.artifact.v1"));
  h.Update(static_cast<uint64_t>(table.num_records()));
  h.Update(static_cast<uint64_t>(table.num_buckets()));
  h.Update(static_cast<uint64_t>(table.num_qi_values()));
  h.Update(static_cast<uint64_t>(table.num_sa_values()));
  for (const auto& r : table.records()) {
    h.Update(r.qi);
    h.Update(r.sa);
    h.Update(r.bucket);
  }
  h.Update(
      static_cast<uint64_t>(options.invariant_options.drop_redundant_row));
  return h.Finish();
}

}  // namespace

Result<std::shared_ptr<const TableArtifact>> TableArtifact::Build(
    std::shared_ptr<const anonymize::BucketizedTable> table,
    std::shared_ptr<const data::TupleEncoder> qi_encoder,
    const TableArtifactOptions& options) {
  if (table == nullptr) {
    return Status::InvalidArgument("TableArtifact::Build: null table");
  }
  KeepRequestBuffersInTheHeap();
  trace::TraceSpan build_span("artifact_build", "setup");
  std::shared_ptr<TableArtifact> artifact(new TableArtifact());
  artifact->table_ = std::move(table);
  artifact->qi_encoder_ = std::move(qi_encoder);
  artifact->options_ = options;
  const anonymize::BucketizedTable& t = *artifact->table_;
  {
    trace::TraceSpan span("term_index", "setup");
    artifact->index_ = constraints::TermIndex::Build(t);
    span.AddArg("variables",
                static_cast<double>(artifact->index_.num_variables()));
  }
  for (uint32_t b = 0; b < t.num_buckets(); ++b) {
    artifact->num_invariant_rows_ +=
        constraints::NumInvariantRows(t, b, options.invariant_options);
  }
  if (artifact->qi_encoder_ != nullptr) {
    artifact->qi_postings_ =
        constraints::QiPostings::Build(*artifact->qi_encoder_);
  }
  artifact->ground_truth_ = PosteriorTable::GroundTruth(t);
  {
    trace::TraceSpan span("closed_form", "setup");
    artifact->closed_form_prior_ =
        maxent::ClosedFormNoKnowledge(t, artifact->index_);
    artifact->closed_form_prior_entropy_ =
        Entropy(artifact->closed_form_prior_);
    span.AddArg("variables",
                static_cast<double>(artifact->closed_form_prior_.size()));
  }
  {
    trace::TraceSpan span("prior_posterior", "setup");
    artifact->prior_posterior_ = PosteriorTable::FromSolution(
        t, artifact->index_, artifact->closed_form_prior_);
    artifact->prior_evaluation_ =
        EvaluatePerQ(artifact->ground_truth_, artifact->prior_posterior_);
    span.AddArg("qi_values", static_cast<double>(t.num_qi_values()));
  }
  // The per-q CSR over variables: the row-level addressing the overlay
  // evaluation needs.
  {
    const constraints::TermIndex& index = artifact->index_;
    const uint32_t num_vars = index.num_variables();
    const uint32_t num_qi = artifact->table_->num_qi_values();
    artifact->q_var_offsets_.assign(num_qi + 1, 0);
    for (uint32_t var = 0; var < num_vars; ++var) {
      ++artifact->q_var_offsets_[index.TermOf(var).qi + 1];
    }
    for (uint32_t q = 0; q < num_qi; ++q) {
      artifact->q_var_offsets_[q + 1] += artifact->q_var_offsets_[q];
    }
    artifact->q_vars_.resize(num_vars);
    std::vector<uint32_t> cursor(artifact->q_var_offsets_.begin(),
                                 artifact->q_var_offsets_.end() - 1);
    for (uint32_t var = 0; var < num_vars; ++var) {
      artifact->q_vars_[cursor[index.TermOf(var).qi]++] = var;
    }
  }
  artifact->content_hash_ = ComputeContentHash(*artifact->table_, options);
  return std::shared_ptr<const TableArtifact>(std::move(artifact));
}

Result<std::shared_ptr<const TableArtifact>> TableArtifact::BuildBorrowed(
    const anonymize::BucketizedTable& table,
    const data::TupleEncoder* qi_encoder,
    const TableArtifactOptions& options) {
  // Aliasing shared_ptrs with no control block: non-owning views onto
  // caller-managed objects.
  std::shared_ptr<const anonymize::BucketizedTable> table_view(
      std::shared_ptr<const anonymize::BucketizedTable>(), &table);
  std::shared_ptr<const data::TupleEncoder> encoder_view;
  if (qi_encoder != nullptr) {
    encoder_view = std::shared_ptr<const data::TupleEncoder>(
        std::shared_ptr<const data::TupleEncoder>(), qi_encoder);
  }
  return Build(std::move(table_view), std::move(encoder_view), options);
}

}  // namespace pme::core
