#include "common/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace pme::metrics {
namespace {

std::atomic<bool> g_enabled{true};

/// Small dense per-thread id for counter shard selection (stable for the
/// thread's lifetime; wraps across the shard mask, which only costs
/// contention, never correctness).
size_t ThreadShardId() {
  static std::atomic<size_t> next{0};
  thread_local const size_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// CAS-accumulate for atomic doubles (C++17 lacks fetch_add(double)).
void AtomicAdd(std::atomic<double>& target, double delta) {
  double expected = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(expected, expected + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value < expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double value) {
  double expected = target.load(std::memory_order_relaxed);
  while (value > expected &&
         !target.compare_exchange_weak(expected, value,
                                       std::memory_order_relaxed)) {
  }
}

/// Shortest round-trippable double rendering (mirrors serve/json.cc;
/// duplicated because common must not depend on the serve layer).
std::string NumberToJson(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

template <typename MetricPtr>
typename std::vector<std::pair<std::string, MetricPtr>>::iterator FindName(
    std::vector<std::pair<std::string, MetricPtr>>& entries,
    std::string_view name) {
  return std::lower_bound(
      entries.begin(), entries.end(), name,
      [](const auto& entry, std::string_view key) {
        return entry.first < key;
      });
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Counter::Add(uint64_t delta) {
  if (!Enabled()) return;
  cells_[ThreadShardId() & (kShards - 1)].value.fetch_add(
      delta, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Gauge::Set(int64_t value) {
  if (!Enabled()) return;
  value_.store(value, std::memory_order_relaxed);
}

void Gauge::Add(int64_t delta) {
  if (!Enabled()) return;
  value_.fetch_add(delta, std::memory_order_relaxed);
}

int64_t Gauge::Value() const {
  return value_.load(std::memory_order_relaxed);
}

Histogram::Histogram(const HistogramOptions& options) : options_(options) {
  options_.num_buckets = std::max<size_t>(options_.num_buckets, 1);
  options_.lowest = options_.lowest > 0 ? options_.lowest : 1e-6;
  options_.growth = options_.growth > 1.0 ? options_.growth : 2.0;
  bounds_.reserve(options_.num_buckets);
  double bound = options_.lowest;
  for (size_t i = 0; i < options_.num_buckets; ++i) {
    bounds_.push_back(bound);
    bound *= options_.growth;
  }
  buckets_ =
      std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

size_t Histogram::BucketOf(double value) const {
  // First bound strictly greater than the value; ties go to the next
  // bucket (bucket i covers [bounds[i-1], bounds[i])).
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<size_t>(it - bounds_.begin());
}

void Histogram::Observe(double value) {
  if (!Enabled()) return;
  if (!std::isfinite(value)) return;
  if (value < 0.0) value = 0.0;
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  const uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  if (prior == 0) {
    // First observation seeds min; racing first observers both fall
    // through to the CAS loops below, so the seed can only be tightened.
    min_.store(value, std::memory_order_relaxed);
  }
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double Histogram::Snapshot::Quantile(double q) const {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(total);
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (static_cast<double>(seen) >= rank) {
      if (i >= bounds.size()) return max;  // overflow bucket
      const double hi = bounds[i];
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      // Linear interpolation inside the bucket.
      const uint64_t in_bucket = counts[i];
      const double into =
          in_bucket == 0
              ? 1.0
              : (rank - static_cast<double>(seen - in_bucket)) /
                    static_cast<double>(in_bucket);
      // The observed extremes bound every quantile: a bucket wider than
      // the data it holds must not report values nothing took.
      const double v = lo + (hi - lo) * std::min(std::max(into, 0.0), 1.0);
      return std::min(std::max(v, min), max);
    }
  }
  return max;
}

Registry& Registry::Global() {
  static Registry* const registry = new Registry();  // never destroyed
  return *registry;
}

Counter& Registry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindName(counters_, name);
  if (it == counters_.end() || it->first != name) {
    it = counters_.emplace(
        it, std::string(name),
        std::unique_ptr<Counter>(new Counter()));
  }
  return *it->second;
}

Gauge& Registry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindName(gauges_, name);
  if (it == gauges_.end() || it->first != name) {
    it = gauges_.emplace(it, std::string(name),
                         std::unique_ptr<Gauge>(new Gauge()));
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(std::string_view name,
                                  const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindName(histograms_, name);
  if (it == histograms_.end() || it->first != name) {
    it = histograms_.emplace(
        it, std::string(name),
        std::unique_ptr<Histogram>(new Histogram(options)));
  }
  return *it->second;
}

uint64_t Registry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& counters = const_cast<Registry*>(this)->counters_;
  const auto it = FindName(counters, name);
  if (it == counters.end() || it->first != name) return 0;
  return it->second->Value();
}

std::string Registry::RenderText() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += name;
    out += " ";
    out += std::to_string(counter->Value());
    out += "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    out += name;
    out += " ";
    out += std::to_string(gauge->Value());
    out += "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out += name;
    out += " count=" + std::to_string(snap.count);
    out += " sum=" + NumberToJson(snap.sum);
    out += " min=" + NumberToJson(snap.min);
    out += " max=" + NumberToJson(snap.max);
    out += " p50=" + NumberToJson(snap.Quantile(0.5));
    out += " p99=" + NumberToJson(snap.Quantile(0.99));
    out += "\n";
  }
  return out;
}

std::string Registry::RenderJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(counter->Value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + name + "\":" + std::to_string(gauge->Value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ",";
    first = false;
    const Histogram::Snapshot snap = histogram->TakeSnapshot();
    out += "\"" + name + "\":{";
    out += "\"count\":" + std::to_string(snap.count);
    out += ",\"sum\":" + NumberToJson(snap.sum);
    out += ",\"min\":" + NumberToJson(snap.min);
    out += ",\"max\":" + NumberToJson(snap.max);
    out += ",\"p50\":" + NumberToJson(snap.Quantile(0.5));
    out += ",\"p90\":" + NumberToJson(snap.Quantile(0.9));
    out += ",\"p99\":" + NumberToJson(snap.Quantile(0.99));
    out += ",\"buckets\":[";
    // Only populated buckets are listed — 32 mostly-empty entries per
    // histogram would dominate the payload.
    bool first_bucket = true;
    for (size_t i = 0; i < snap.counts.size(); ++i) {
      if (snap.counts[i] == 0) continue;
      if (!first_bucket) out += ",";
      first_bucket = false;
      const double le = i < snap.bounds.size()
                            ? snap.bounds[i]
                            : std::numeric_limits<double>::infinity();
      out += "{\"le\":";
      out += std::isfinite(le) ? NumberToJson(le) : "\"inf\"";
      out += ",\"count\":" + std::to_string(snap.counts[i]) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace pme::metrics
