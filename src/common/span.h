// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_SPAN_H_
#define PME_COMMON_SPAN_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace pme {

/// A non-owning view of `size` contiguous elements (C++17 stand-in for
/// std::span). Valid while the storage it points into is neither freed
/// nor reallocated.
template <typename T>
class Span {
 public:
  using value_type = std::remove_cv_t<T>;
  using iterator = T*;
  using const_iterator = T*;

  Span(T* data, size_t size) : data_(data), size_(size) {}

  size_t size() const { return size_; }
  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }
  T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

/// Compressed sparse rows of `T`: list i is items[offsets[i],
/// offsets[i + 1]). One allocation per array however many lists there
/// are.
template <typename T>
struct Csr {
  std::vector<uint32_t> offsets{0};  ///< size num_lists() + 1
  std::vector<T> items;

  size_t num_lists() const { return offsets.size() - 1; }
  Span<const T> List(size_t i) const {
    return {items.data() + offsets[i], offsets[i + 1] - offsets[i]};
  }
  /// Closes the list being appended to `items`.
  void EndList() { offsets.push_back(static_cast<uint32_t>(items.size())); }
};

}  // namespace pme

#endif  // PME_COMMON_SPAN_H_
