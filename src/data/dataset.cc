#include "data/dataset.h"

#include <algorithm>

namespace pme::data {
namespace {

/// Finalizer of splitmix64: spreads every input bit over the whole word.
uint64_t MixBits(uint64_t h) {
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

Status Dataset::AppendRecord(const std::vector<uint32_t>& codes) {
  if (codes.size() != width_) {
    return Status::InvalidArgument("record arity mismatch");
  }
  for (size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= schema_.attribute(i).dictionary.size()) {
      return Status::InvalidArgument("code out of dictionary range");
    }
  }
  codes_.insert(codes_.end(), codes.begin(), codes.end());
  ++num_records_;
  return Status::Ok();
}

Status Dataset::AppendRecordValues(
    const std::vector<std::string_view>& values) {
  if (values.size() != width_) {
    return Status::InvalidArgument("record arity mismatch");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    codes_.push_back(schema_.attribute(i).dictionary.Intern(values[i]));
  }
  ++num_records_;
  return Status::Ok();
}

const std::string& Dataset::ValueAt(size_t row, size_t attr) const {
  return schema_.attribute(attr).dictionary.ValueOf(At(row, attr));
}

uint32_t TupleEncoder::Encode(const Dataset& d, size_t row) {
  for (size_t attr : attrs_) codes_.push_back(d.At(row, attr));
  return InternTail();
}

uint32_t TupleEncoder::EncodeCodes(const std::vector<uint32_t>& codes) {
  codes_.insert(codes_.end(), codes.begin(), codes.end());
  return InternTail();
}

uint32_t TupleEncoder::InternTail() {
  const size_t width = attrs_.size();
  const uint32_t* tail = codes_.data() + codes_.size() - width;
  uint64_t h = width;
  for (size_t i = 0; i < width; ++i) {
    h = (h ^ tail[i]) * 0x9e3779b97f4a7c15ULL;
  }
  const auto [id, inserted] = ids_.FindOrInsert(MixBits(h), [&](uint32_t o) {
    return std::equal(tail, tail + width,
                      codes_.data() + static_cast<size_t>(o) * width);
  });
  if (!inserted) codes_.resize(codes_.size() - width);
  return id;
}

void TupleEncoder::AppendString(const Dataset& d, uint32_t id,
                                std::string* out) const {
  const Span<const uint32_t> codes = Decode(id);
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (i > 0) out->push_back(',');
    const Attribute& attr = d.schema().attribute(attrs_[i]);
    out->append(attr.name);
    out->push_back('=');
    out->append(attr.dictionary.ValueOf(codes[i]));
  }
}

std::string TupleEncoder::ToString(const Dataset& d, uint32_t id) const {
  std::string out;
  AppendString(d, id, &out);
  return out;
}

}  // namespace pme::data
