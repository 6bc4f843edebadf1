// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_DATA_DATASET_H_
#define PME_DATA_DATASET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_table.h"
#include "common/span.h"
#include "common/status.h"
#include "data/schema.h"

namespace pme::data {

/// The original microdata table `D` of the paper: a schema plus row-major
/// integer-coded records, all in one code array. All values are
/// dictionary codes into the schema's per-attribute dictionaries.
class Dataset {
 public:
  explicit Dataset(Schema schema)
      : schema_(std::move(schema)), width_(schema_.num_attributes()) {}

  const Schema& schema() const { return schema_; }
  /// For interning values into the dictionaries; the attribute list is
  /// fixed at construction.
  Schema& mutable_schema() { return schema_; }

  size_t num_records() const { return num_records_; }

  /// Appends a record of codes; must match the attribute count.
  Status AppendRecord(const std::vector<uint32_t>& codes);

  /// Appends a record of string values, interning them.
  Status AppendRecordValues(const std::vector<std::string_view>& values);

  /// Code of attribute `attr` in record `row`.
  uint32_t At(size_t row, size_t attr) const {
    return codes_[row * width_ + attr];
  }

  /// String value of attribute `attr` in record `row`.
  const std::string& ValueAt(size_t row, size_t attr) const;

 private:
  Schema schema_;
  size_t width_;  // attributes per record
  size_t num_records_ = 0;
  // Record r's codes are codes_[r·width_, (r+1)·width_).
  std::vector<uint32_t> codes_;
};

/// Dense encoder for tuples over a fixed subset of attributes.
///
/// The paper works with "an instance of the QI attributes" (`q` values in
/// Figure 1(c)): a whole tuple such as {male, college} gets one symbol.
/// TupleEncoder assigns each distinct observed tuple a dense id in
/// first-seen order and remembers the tuple behind each id. The tuples
/// sit id-major in one code array, indexed by an open-addressing table.
class TupleEncoder {
 public:
  /// `attrs` are the dataset attribute indices that make up the tuple.
  explicit TupleEncoder(std::vector<size_t> attrs) : attrs_(std::move(attrs)) {}

  /// Encodes the tuple of record `row` in `d`, interning if unseen.
  uint32_t Encode(const Dataset& d, size_t row);

  /// Encodes an explicit code vector (must match the attr count).
  uint32_t EncodeCodes(const std::vector<uint32_t>& codes);

  /// The attrs().size() codes behind tuple id `id`.
  Span<const uint32_t> Decode(uint32_t id) const {
    return {codes_.data() + static_cast<size_t>(id) * attrs_.size(),
            attrs_.size()};
  }

  /// Appends the label "attr1=v1,attr2=v2" of tuple `id` to `out`.
  void AppendString(const Dataset& d, uint32_t id, std::string* out) const;

  /// The label "attr1=v1,attr2=v2" of tuple `id`, for diagnostics.
  std::string ToString(const Dataset& d, uint32_t id) const;

  /// The attribute indices this encoder covers.
  const std::vector<size_t>& attrs() const { return attrs_; }

  /// Number of distinct tuples seen.
  uint32_t size() const { return ids_.size(); }

 private:
  /// Interns the tuple appended last to codes_, dropping it again when
  /// it was already known.
  uint32_t InternTail();

  std::vector<size_t> attrs_;
  std::vector<uint32_t> codes_;  // tuple id's codes, id-major
  IdTable ids_;
};

}  // namespace pme::data

#endif  // PME_DATA_DATASET_H_
