// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_ID_SET_H_
#define PME_COMMON_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pme {

/// A set of ids in [0, n): one bit per id, plus the number of members
/// below each 64-id word once Seal() has run. Membership and rank are
/// O(1), and the members come out ascending without a comparison sort —
/// the request path collects bucket and QI ids in no particular order,
/// and sorting tens of thousands of them costs more than the work they
/// index.
class IdSet {
 public:
  IdSet() = default;
  explicit IdSet(size_t n) : bits_((n + 63) / 64, 0) {}

  void Insert(uint32_t id) { bits_[id / 64] |= Bit(id); }
  bool Contains(uint32_t id) const { return (bits_[id / 64] & Bit(id)) != 0; }

  /// Fixes the members: Rank is valid from here until the next Insert.
  void Seal() {
    rank_.resize(bits_.size());
    uint32_t below = 0;
    for (size_t w = 0; w < bits_.size(); ++w) {
      rank_[w] = below;
      below += static_cast<uint32_t>(__builtin_popcountll(bits_[w]));
    }
  }

  /// The number of members below `id`: a member's position among the
  /// ascending members.
  uint32_t Rank(uint32_t id) const {
    return rank_[id / 64] + static_cast<uint32_t>(__builtin_popcountll(
                                bits_[id / 64] & (Bit(id) - 1)));
  }

  /// The members, ascending.
  std::vector<uint32_t> Members() const {
    std::vector<uint32_t> out;
    for (size_t w = 0; w < bits_.size(); ++w) {
      for (uint64_t bits = bits_[w]; bits != 0; bits &= bits - 1) {
        out.push_back(static_cast<uint32_t>(64 * w) +
                      static_cast<uint32_t>(__builtin_ctzll(bits)));
      }
    }
    return out;
  }

 private:
  static uint64_t Bit(uint32_t id) { return uint64_t{1} << (id % 64); }

  std::vector<uint64_t> bits_;
  std::vector<uint32_t> rank_;
};

}  // namespace pme

#endif  // PME_COMMON_ID_SET_H_
