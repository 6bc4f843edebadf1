// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_UNION_FIND_H_
#define PME_COMMON_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace pme {

/// Minimal union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }

  uint32_t Find(uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void Union(uint32_t a, uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
};

}  // namespace pme

#endif  // PME_COMMON_UNION_FIND_H_
