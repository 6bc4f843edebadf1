#include "anonymize/pseudonym.h"

namespace pme::anonymize {

Result<PseudonymTable> PseudonymTable::Create(const BucketizedTable* table) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  PseudonymTable p;
  p.table_ = table;
  p.pseudonyms_of_qi_.resize(table->num_qi_values());
  p.claimed_.assign(table->num_qi_values(), 0);

  // Count occurrences of each QI instance from the published view.
  std::vector<size_t> occurrences(table->num_qi_values(), 0);
  for (uint32_t b = 0; b < table->num_buckets(); ++b) {
    for (uint32_t q : table->BucketQis(b)) ++occurrences[q];
  }
  for (uint32_t q = 0; q < table->num_qi_values(); ++q) {
    for (size_t k = 0; k < occurrences[q]; ++k) {
      const uint32_t id = static_cast<uint32_t>(p.qi_of_.size());
      p.qi_of_.push_back(q);
      p.pseudonyms_of_qi_[q].push_back(id);
    }
  }
  return p;
}

Result<uint32_t> PseudonymTable::ClaimPseudonym(uint32_t qi) {
  if (qi >= pseudonyms_of_qi_.size()) {
    return Status::InvalidArgument("unknown QI instance");
  }
  if (claimed_[qi] >= pseudonyms_of_qi_[qi].size()) {
    return Status::FailedPrecondition(
        "all pseudonyms of this QI instance are already claimed");
  }
  return pseudonyms_of_qi_[qi][claimed_[qi]++];
}

}  // namespace pme::anonymize
