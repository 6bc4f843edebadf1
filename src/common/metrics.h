// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_METRICS_H_
#define PME_COMMON_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pme::metrics {

/// Process-wide kill switch. Off makes every Add/Observe a cheap no-op
/// (one relaxed atomic load), which is how the serve-throughput bench
/// A/Bs the instrumentation overhead. Registered metrics keep whatever
/// values they had; exposition still works.
void SetEnabled(bool enabled);
bool Enabled();

/// A monotonic counter with a lock-free, contention-sharded fast path:
/// each thread increments one of kShards cacheline-padded atomic cells
/// (picked by a thread-local id), and Value() sums the cells. Increments
/// are never lost — concurrent Add calls from N threads produce exactly
/// the sum of their deltas.
class Counter {
 public:
  void Add(uint64_t delta = 1);
  uint64_t Value() const;

 private:
  friend class Registry;
  Counter() = default;

  static constexpr size_t kShards = 16;  // power of two
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  Cell cells_[kShards];
};

/// A last-write-wins signed instantaneous value (queue depth, active
/// connections, resident cache bytes).
class Gauge {
 public:
  void Set(int64_t value);
  void Add(int64_t delta);
  int64_t Value() const;

 private:
  friend class Registry;
  Gauge() = default;

  std::atomic<int64_t> value_{0};
};

/// Exponential bucket layout: bucket 0 covers [0, lowest), bucket i
/// covers [lowest*growth^(i-1), lowest*growth^i), plus one overflow
/// bucket for everything at or above the last bound. The defaults suit
/// wall-clock seconds from 1 µs up to ~1 hour.
struct HistogramOptions {
  double lowest = 1e-6;
  double growth = 2.0;
  size_t num_buckets = 32;  ///< finite buckets, overflow excluded
};

/// A fixed-bucket histogram with atomic per-bucket counts plus exact
/// count/sum/min/max (CAS-maintained — C++17 has no atomic double
/// fetch_add). Observe is lock-free; Snapshot is a consistent-enough
/// read for exposition (each field is individually atomic).
class Histogram {
 public:
  void Observe(double value);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< 0 when count == 0
    double max = 0.0;
    /// Finite upper bounds (ascending) and per-bucket counts; counts has
    /// one extra trailing entry — the overflow bucket.
    std::vector<double> bounds;
    std::vector<uint64_t> counts;
    /// Bucket-interpolated quantile estimate (q in [0,1]), clamped to the
    /// observed [min, max].
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;

  const HistogramOptions& options() const { return options_; }

 private:
  friend class Registry;
  explicit Histogram(const HistogramOptions& options);

  size_t BucketOf(double value) const;

  HistogramOptions options_;
  std::vector<double> bounds_;  ///< finite upper bounds, ascending
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  ///< size bounds_+1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// The process-wide metric registry. Metrics are created on first use
/// (registration takes a mutex once; the returned pointer is stable for
/// the process lifetime, so call sites cache it in a function-local
/// static) and never removed. Names are dotted paths with an optional
/// unit suffix, e.g. "serve.request_seconds".
///
///   static Counter* hits = &Registry::Global().GetCounter("cache.hits");
///   hits->Add();
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  /// The options are applied on first creation only; a second caller
  /// with different options gets the existing histogram.
  Histogram& GetHistogram(std::string_view name,
                          const HistogramOptions& options = {});

  /// One line per metric, sorted by name — the human-readable dump.
  std::string RenderText() const;
  /// Single-line JSON: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,sum,min,max,p50,p90,p99,
  /// buckets:[{le,count},...]}}}. No newlines, so it can ride inside a
  /// newline-delimited protocol response verbatim.
  std::string RenderJson() const;

  /// Point-in-time value of a single counter (0 when never registered).
  /// Reading through the registry keeps "snapshot a baseline, report
  /// deltas" callers (per-server ServeStats) free of metric handles.
  uint64_t CounterValue(std::string_view name) const;

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  // Sorted name -> metric maps; std::vector of pairs keeps exposition
  // ordering deterministic without a std::map per lookup (lookups are
  // one-time per call site thanks to static-local caching).
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>
      histograms_;
};

}  // namespace pme::metrics

#endif  // PME_COMMON_METRICS_H_
