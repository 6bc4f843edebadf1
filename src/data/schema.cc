#include "data/schema.h"

#include <functional>

namespace pme::data {

uint32_t AttributeDictionary::Intern(std::string_view value) {
  const auto [code, inserted] = codes_.FindOrInsert(
      std::hash<std::string_view>()(value),
      [&](uint32_t c) { return values_[c] == value; });
  if (inserted) values_.emplace_back(value);
  return code;
}

Result<uint32_t> AttributeDictionary::Lookup(std::string_view value) const {
  const std::optional<uint32_t> code =
      codes_.Find(std::hash<std::string_view>()(value),
                  [&](uint32_t c) { return values_[c] == value; });
  if (!code.has_value()) {
    return Status::NotFound("value not in dictionary: " + std::string(value));
  }
  return *code;
}

const std::string& AttributeDictionary::ValueOf(uint32_t code) const {
  return values_.at(code);
}

size_t Schema::AddAttribute(std::string name, AttributeRole role) {
  const size_t idx = attributes_.size();
  index_.emplace(name, idx);
  attributes_.push_back(Attribute{std::move(name), role, {}});
  return idx;
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::NotFound("no attribute named " + name);
  }
  return it->second;
}

std::vector<size_t> Schema::QiIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].role == AttributeRole::kQuasiIdentifier) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> Schema::SensitiveIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].role == AttributeRole::kSensitive) out.push_back(i);
  }
  return out;
}

Result<size_t> Schema::SoleSensitiveIndex() const {
  auto sens = SensitiveIndices();
  if (sens.size() != 1) {
    return Status::FailedPrecondition(
        "expected exactly one sensitive attribute, found " +
        std::to_string(sens.size()));
  }
  return sens[0];
}

}  // namespace pme::data
