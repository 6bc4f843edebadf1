// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_ID_TABLE_H_
#define PME_COMMON_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace pme {

/// Open-addressing index from keys to dense ids 0, 1, 2, ... in insertion
/// order. The keys themselves live with the caller (id-major arrays,
/// string tables): a slot holds only an id and 32 bits of its key's hash,
/// so the table is as cheap to copy or move as its slot vector and never
/// points into the caller's storage. Linear probing, load factor ≤ 1/2.
class IdTable {
 public:
  /// Number of ids indexed.
  uint32_t size() const { return size_; }

  /// The id whose key has `hash` and satisfies `equals(id)`, or nullopt.
  template <typename Equals>
  std::optional<uint32_t> Find(uint64_t hash, Equals&& equals) const {
    if (slots_.empty()) return std::nullopt;
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & Mask();; i = (i + 1) & Mask()) {
      const Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) return std::nullopt;
      if (slot.tag == tag && equals(slot.id_plus_one - 1)) {
        return slot.id_plus_one - 1;
      }
    }
  }

  /// The id whose key has `hash` and satisfies `equals(id)`; when there
  /// is none, indexes the new id size() under `hash` and returns it (the
  /// caller then stores its key at that id). The bool is true on insert.
  template <typename Equals>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, Equals&& equals) {
    if (2 * (static_cast<size_t>(size_) + 1) > slots_.size()) Grow();
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & Mask();; i = (i + 1) & Mask()) {
      Slot& slot = slots_[i];
      if (slot.id_plus_one == 0) {
        slot = Slot{tag, ++size_};
        return {size_ - 1, true};
      }
      if (slot.tag == tag && equals(slot.id_plus_one - 1)) {
        return {slot.id_plus_one - 1, false};
      }
    }
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t id_plus_one = 0;  ///< 0 marks an empty slot
  };

  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash ^ (hash >> 32));
  }
  size_t Mask() const { return slots_.size() - 1; }

  /// Doubles the slot array; the stored tags place every id again.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.id_plus_one == 0) continue;
      size_t i = slot.tag & Mask();
      while (slots_[i].id_plus_one != 0) i = (i + 1) & Mask();
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  uint32_t size_ = 0;
};

}  // namespace pme

#endif  // PME_COMMON_ID_TABLE_H_
