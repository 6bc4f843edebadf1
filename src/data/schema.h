// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_DATA_SCHEMA_H_
#define PME_DATA_SCHEMA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/id_table.h"
#include "common/status.h"

namespace pme::data {

/// Role of an attribute in the PPDP model (Section 1 of the paper).
enum class AttributeRole : int {
  /// Identity information (names, SSNs); always dropped before publishing.
  kIdentifier = 0,
  /// Quasi-identifier: demographic attributes obtainable elsewhere.
  kQuasiIdentifier = 1,
  /// Sensitive attribute: the information to protect.
  kSensitive = 2,
};

/// Bidirectional mapping between the string values of one categorical
/// attribute and dense integer codes [0, cardinality).
///
/// Codes are assigned in first-seen order by `Intern`, making encodings
/// deterministic for a fixed input order. Lookups take a view: the index
/// compares it against the stored values, so interning a value that is
/// already known copies nothing.
class AttributeDictionary {
 public:
  /// Returns the code for `value`, interning it if unseen.
  uint32_t Intern(std::string_view value);

  /// Returns the code for `value` or kNotFound if never interned.
  Result<uint32_t> Lookup(std::string_view value) const;

  /// Returns the string for `code`. Precondition: code < size().
  const std::string& ValueOf(uint32_t code) const;

  /// Number of distinct values.
  uint32_t size() const { return static_cast<uint32_t>(values_.size()); }

 private:
  std::vector<std::string> values_;
  IdTable codes_;  // value -> code, keyed by the hash of values_[code]
};

/// Describes one attribute: its name, PPDP role, and value dictionary.
struct Attribute {
  std::string name;
  AttributeRole role = AttributeRole::kQuasiIdentifier;
  AttributeDictionary dictionary;
};

/// An ordered collection of attributes. The schema owns the dictionaries;
/// a Dataset stores only integer codes.
class Schema {
 public:
  /// Appends an attribute; returns its index.
  size_t AddAttribute(std::string name, AttributeRole role);

  size_t num_attributes() const { return attributes_.size(); }
  const Attribute& attribute(size_t i) const { return attributes_[i]; }
  Attribute& attribute(size_t i) { return attributes_[i]; }

  /// Index of the attribute named `name`, or kNotFound.
  Result<size_t> IndexOf(const std::string& name) const;

  /// Indices of all quasi-identifier attributes, in schema order.
  std::vector<size_t> QiIndices() const;

  /// Indices of all sensitive attributes, in schema order.
  std::vector<size_t> SensitiveIndices() const;

  /// The single sensitive attribute index. Errors if zero or multiple
  /// sensitive attributes are declared (the paper's model has exactly one).
  Result<size_t> SoleSensitiveIndex() const;

 private:
  std::vector<Attribute> attributes_;
  std::unordered_map<std::string, size_t> index_;
};

}  // namespace pme::data

#endif  // PME_DATA_SCHEMA_H_
