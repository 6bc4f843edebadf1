#include "tests/support/stats.h"

#include <cassert>

namespace pme::data {
namespace {

bool Matches(const Dataset& d, size_t row, const std::vector<size_t>& attrs,
             const std::vector<uint32_t>& codes) {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (d.At(row, attrs[i]) != codes[i]) return false;
  }
  return true;
}

}  // namespace

DatasetStats::DatasetStats(const Dataset* dataset) : dataset_(dataset) {
  assert(dataset != nullptr);
}

size_t DatasetStats::CountMatching(const std::vector<size_t>& attrs,
                                   const std::vector<uint32_t>& codes) const {
  assert(attrs.size() == codes.size());
  size_t count = 0;
  for (size_t r = 0; r < dataset_->num_records(); ++r) {
    if (Matches(*dataset_, r, attrs, codes)) ++count;
  }
  return count;
}

size_t DatasetStats::CountMatchingWithSa(const std::vector<size_t>& attrs,
                                         const std::vector<uint32_t>& codes,
                                         size_t sa_attr,
                                         uint32_t sa_code) const {
  size_t count = 0;
  for (size_t r = 0; r < dataset_->num_records(); ++r) {
    if (dataset_->At(r, sa_attr) == sa_code &&
        Matches(*dataset_, r, attrs, codes)) {
      ++count;
    }
  }
  return count;
}

double DatasetStats::Probability(const std::vector<size_t>& attrs,
                                 const std::vector<uint32_t>& codes) const {
  if (dataset_->num_records() == 0) return 0.0;
  return static_cast<double>(CountMatching(attrs, codes)) /
         static_cast<double>(dataset_->num_records());
}

double DatasetStats::JointProbability(const std::vector<size_t>& attrs,
                                      const std::vector<uint32_t>& codes,
                                      size_t sa_attr, uint32_t sa_code) const {
  if (dataset_->num_records() == 0) return 0.0;
  return static_cast<double>(
             CountMatchingWithSa(attrs, codes, sa_attr, sa_code)) /
         static_cast<double>(dataset_->num_records());
}

Result<double> DatasetStats::Conditional(const std::vector<size_t>& attrs,
                                         const std::vector<uint32_t>& codes,
                                         size_t sa_attr,
                                         uint32_t sa_code) const {
  const size_t denom = CountMatching(attrs, codes);
  if (denom == 0) {
    return Status::FailedPrecondition(
        "conditioning event has zero support in the data");
  }
  const size_t numer = CountMatchingWithSa(attrs, codes, sa_attr, sa_code);
  return static_cast<double>(numer) / static_cast<double>(denom);
}

std::vector<double> DatasetStats::Marginal(size_t attr) const {
  const uint32_t card = dataset_->schema().attribute(attr).dictionary.size();
  std::vector<double> probs(card, 0.0);
  for (size_t r = 0; r < dataset_->num_records(); ++r) {
    probs[dataset_->At(r, attr)] += 1.0;
  }
  const double n = static_cast<double>(dataset_->num_records());
  if (n > 0) {
    for (double& p : probs) p /= n;
  }
  return probs;
}

Result<std::vector<double>> DatasetStats::ConditionalDistribution(
    const std::vector<size_t>& attrs, const std::vector<uint32_t>& codes,
    size_t sa_attr) const {
  const uint32_t card = dataset_->schema().attribute(sa_attr).dictionary.size();
  std::vector<double> counts(card, 0.0);
  double denom = 0.0;
  for (size_t r = 0; r < dataset_->num_records(); ++r) {
    if (Matches(*dataset_, r, attrs, codes)) {
      counts[dataset_->At(r, sa_attr)] += 1.0;
      denom += 1.0;
    }
  }
  if (denom == 0.0) {
    return Status::FailedPrecondition(
        "conditioning event has zero support in the data");
  }
  for (double& c : counts) c /= denom;
  return counts;
}

}  // namespace pme::data
