// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_TEAM_H_
#define PME_COMMON_TEAM_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace pme {

/// Elements per reduction chunk. Every team reduction splits its vector
/// into chunks of exactly this size (the last one shorter), reduces each
/// chunk with the ordinary serial kernel and combines the chunk partials
/// in chunk order, so the result has the same bits for any team size. A
/// vector of at most kTeamChunk elements is a single chunk: it gets the
/// serial kernel's arithmetic exactly.
///
/// Measured on the dense block of the 14,210-record table under 256
/// mined two-attribute rules (28,415 rows, 70,395 variables), 2 threads,
/// 4-core AVX-512 host, median solve over 20 in-process rounds, two
/// sweeps: 1024 → 151 / 226 ms, 2048 → 170 / 234, 4096 → 161 / 252,
/// 8192 → 195 / 321. 1024–4096 lie within the host's noise; 8192 is
/// slower because its four row chunks split 16,384 / 12,031 between two
/// members, where 2048's fourteen split 14,336 / 14,079. A smaller grain
/// would leave fewer blocks on the serial kernels' exact arithmetic.
inline constexpr size_t kTeamChunk = 2048;

/// Chunks covering n elements: ceil(n / kTeamChunk), and 1 for n == 0
/// (an empty vector is one empty chunk, so it reduces to the kernel's
/// own empty result).
inline size_t NumChunks(size_t n) {
  return n == 0 ? 1 : (n + kTeamChunk - 1) / kTeamChunk;
}

/// The chunk partials of a team reduction added in chunk order, starting
/// from chunk 0's (so one chunk returns its partial unchanged).
inline double SumInChunkOrder(const std::vector<double>& partials) {
  double sum = partials.front();
  for (size_t c = 1; c < partials.size(); ++c) sum += partials[c];
  return sum;
}

/// A fork-join team for one block solve: the calling thread (member 0)
/// plus size()-1 helper threads, which spin on a generation counter
/// between forks and fall asleep only after ~100 µs without work. A fork
/// costs about a microsecond, which is what lets an LBFGS iteration fork
/// some thirty times; a condition-variable pool handoff costs tens.
///
/// A team is driven by one thread — the one that built it — and holds no
/// request state: helpers install the builder's trace id, nothing else.
/// A team of size 1 spawns nothing and runs every fork inline, so the
/// serial solve is the same code as the parallel one.
class Team {
 public:
  /// Spawns size - 1 helpers (size 0 counts as 1); when the system runs
  /// out of threads the team is as large as the helpers it got.
  explicit Team(size_t size);

  /// Stops and joins the helpers.
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  size_t size() const { return size_; }

  /// Runs fn(member) for every member — member 0 on the calling thread —
  /// and returns when all of them have finished. fn must not throw: a
  /// helper has no caller to hand an exception to, so one ends the
  /// process.
  template <class F>
  void Run(F&& fn) {
    if (size_ == 1) {
      fn(size_t{0});
      return;
    }
    using Fn = std::remove_reference_t<F>;
    Dispatch([](void* ctx, size_t m) { (*static_cast<Fn*>(ctx))(m); },
             const_cast<void*>(static_cast<const void*>(&fn)));
  }

  /// The contiguous share [first, last) of `count` items (chunks, rows)
  /// that `member` takes; the shares tile [0, count) in member order.
  std::pair<size_t, size_t> Share(size_t member, size_t count) const {
    return {count * member / size_, count * (member + 1) / size_};
  }

  /// K sums over the chunks of [0, n): fn(begin, end) returns one
  /// chunk's K partials (and may write that chunk's elements), each
  /// member running its share of the chunks; the partials are then added
  /// in chunk order starting from chunk 0's. Same bits for any size().
  template <size_t K, class F>
  std::array<double, K> SumChunks(size_t n, F&& fn) {
    return Reduce<K>(n, fn, [](double a, double b) { return a + b; });
  }

  /// One sum over the chunks of [0, n); see SumChunks.
  template <class F>
  double Sum(size_t n, F&& fn) {
    return SumChunks<1>(n, [&](size_t b, size_t e) {
      return std::array<double, 1>{fn(b, e)};
    })[0];
  }

  /// The maximum of fn(begin, end) over the chunks of [0, n), taken in
  /// chunk order with std::max (whose NaN rule is order-dependent, so
  /// the order is fixed too).
  template <class F>
  double Max(size_t n, F&& fn) {
    return Reduce<1>(
        n,
        [&](size_t b, size_t e) { return std::array<double, 1>{fn(b, e)}; },
        [](double a, double b) { return std::max(a, b); })[0];
  }

  /// Runs fn(begin, end) over every chunk of [0, n), each member its
  /// share: for element-wise passes, which need no combine.
  template <class F>
  void ForChunks(size_t n, F&& fn) {
    const size_t chunks = NumChunks(n);
    Run([&](size_t member) {
      const auto [first, last] = Share(member, chunks);
      for (size_t c = first; c < last; ++c) {
        fn(c * kTeamChunk, std::min(n, (c + 1) * kTeamChunk));
      }
    });
  }

 private:
  using Call = void (*)(void*, size_t);

  /// Publishes (call, ctx) as the next generation, runs member 0 and
  /// waits for the helpers.
  void Dispatch(Call call, void* ctx);

  template <size_t K, class F, class Combine>
  std::array<double, K> Reduce(size_t n, F&& fn, Combine combine) {
    const size_t chunks = NumChunks(n);
    partials_.resize(chunks * K);
    Run([&](size_t member) {
      const auto [first, last] = Share(member, chunks);
      for (size_t c = first; c < last; ++c) {
        const std::array<double, K> part =
            fn(c * kTeamChunk, std::min(n, (c + 1) * kTeamChunk));
        std::copy(part.begin(), part.end(), partials_.begin() + c * K);
      }
    });
    std::array<double, K> out;
    std::copy(partials_.begin(), partials_.begin() + K, out.begin());
    for (size_t c = 1; c < chunks; ++c) {
      for (size_t k = 0; k < K; ++k) {
        out[k] = combine(out[k], partials_[c * K + k]);
      }
    }
    return out;
  }

  void HelperLoop(size_t member, uint64_t trace_id);
  /// Waits for the generation to move past `seen`; returns the new one.
  uint64_t AwaitGeneration(uint64_t seen);

  size_t size_ = 1;
  // Written by the driving thread before it bumps generation_, read by
  // the helpers after they observe the bump.
  Call call_ = nullptr;
  void* ctx_ = nullptr;
  bool stopping_ = false;
  alignas(64) std::atomic<uint64_t> generation_{0};
  alignas(64) std::atomic<size_t> pending_{0};
  // Helpers asleep on wake_: the driver takes mutex_ to notify only when
  // this is nonzero.
  alignas(64) std::atomic<size_t> sleepers_{0};
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<double> partials_;      // Reduce's chunk partials
  std::vector<std::thread> helpers_;  // last: the helpers use the above
};

}  // namespace pme

#endif  // PME_COMMON_TEAM_H_
