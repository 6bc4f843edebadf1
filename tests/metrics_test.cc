// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests for the observability layer: the process-wide metrics
// registry (counter exactness under contention, histogram bucket
// boundaries, snapshots under concurrent load, JSON exposition) and the
// trace subsystem (span recording, per-request capture across threads,
// ring snapshot ordering, Chrome trace-event export).
//
// Both registries are process-global, so every test uses metric names
// (and trace categories) unique to this binary — the assertions are
// delta- or filter-based where another test could have touched the same
// state.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "serve/json.h"

namespace pme {
namespace {

using metrics::Histogram;
using metrics::HistogramOptions;
using metrics::Registry;

// ---------------------------------------------------------------------------
// Counters

TEST(MetricsCounterTest, ConcurrentIncrementsAreExact) {
  metrics::Counter& counter =
      Registry::Global().GetCounter("test.concurrent_exact");
  const uint64_t before = counter.Value();

  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (auto& t : threads) t.join();

  // The sharded fast path must not lose a single increment.
  EXPECT_EQ(counter.Value() - before, kThreads * kPerThread);
}

TEST(MetricsCounterTest, AddWithDeltaAndStableIdentity) {
  metrics::Counter& counter = Registry::Global().GetCounter("test.delta");
  const uint64_t before = counter.Value();
  counter.Add(5);
  counter.Add();  // default delta 1
  EXPECT_EQ(counter.Value() - before, 6u);
  // Same name -> same instance (call sites cache the pointer).
  EXPECT_EQ(&counter, &Registry::Global().GetCounter("test.delta"));
}

TEST(MetricsCounterTest, CounterValueByName) {
  EXPECT_EQ(Registry::Global().CounterValue("test.never_registered"), 0u);
  metrics::Counter& counter = Registry::Global().GetCounter("test.by_name");
  counter.Add(3);
  EXPECT_EQ(Registry::Global().CounterValue("test.by_name"),
            counter.Value());
}

TEST(MetricsCounterTest, KillSwitchMakesAddANoOp) {
  metrics::Counter& counter =
      Registry::Global().GetCounter("test.kill_switch");
  const uint64_t before = counter.Value();
  metrics::SetEnabled(false);
  counter.Add(100);
  metrics::SetEnabled(true);
  EXPECT_EQ(counter.Value(), before);
  counter.Add(1);
  EXPECT_EQ(counter.Value(), before + 1);
}

// ---------------------------------------------------------------------------
// Gauges

TEST(MetricsGaugeTest, SetAndSignedAdd) {
  metrics::Gauge& gauge = Registry::Global().GetGauge("test.gauge");
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-25);
  EXPECT_EQ(gauge.Value(), -15);
  gauge.Add(15);
  EXPECT_EQ(gauge.Value(), 0);
}

// ---------------------------------------------------------------------------
// Histograms

/// lowest=1, growth=2, 4 finite buckets -> bounds {1,2,4,8} and layout
///   bucket 0: [0,1)  bucket 1: [1,2)  bucket 2: [2,4)  bucket 3: [4,8)
///   bucket 4: [8,inf)  (overflow)
HistogramOptions SmallOptions() {
  HistogramOptions options;
  options.lowest = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;
  return options;
}

TEST(MetricsHistogramTest, BucketBoundaries) {
  Histogram& hist =
      Registry::Global().GetHistogram("test.boundaries", SmallOptions());
  // Exactly-on-boundary values go to the *next* bucket (half-open
  // [lo, hi) intervals).
  hist.Observe(0.0);    // bucket 0
  hist.Observe(0.999);  // bucket 0
  hist.Observe(1.0);    // bucket 1 (== first bound)
  hist.Observe(1.5);    // bucket 1
  hist.Observe(2.0);    // bucket 2
  hist.Observe(3.999);  // bucket 2
  hist.Observe(4.0);    // bucket 3
  hist.Observe(8.0);    // overflow (== last bound)
  hist.Observe(1e9);    // overflow

  const Histogram::Snapshot snap = hist.TakeSnapshot();
  ASSERT_EQ(snap.bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(snap.bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(snap.bounds[3], 8.0);
  ASSERT_EQ(snap.counts.size(), 5u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 2u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.counts[4], 2u);
  EXPECT_EQ(snap.count, 9u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e9);
}

TEST(MetricsHistogramTest, NegativeClampsAndNonFiniteSkipped) {
  Histogram& hist =
      Registry::Global().GetHistogram("test.clamp", SmallOptions());
  hist.Observe(-5.0);  // clamped to 0 -> bucket 0
  hist.Observe(std::numeric_limits<double>::quiet_NaN());   // dropped
  hist.Observe(std::numeric_limits<double>::infinity());    // dropped
  const Histogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.0);
}

TEST(MetricsHistogramTest, QuantileInterpolatesInsideBucket) {
  Histogram& hist =
      Registry::Global().GetHistogram("test.quantile", SmallOptions());
  // 100 observations, all in bucket 1 ([1,2)): every quantile estimate
  // must interpolate within that bucket's bounds.
  for (int i = 0; i < 100; ++i) hist.Observe(1.5);
  const Histogram::Snapshot snap = hist.TakeSnapshot();
  const double p50 = snap.Quantile(0.5);
  const double p99 = snap.Quantile(0.99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 2.0);
  // Empty histogram: quantile of nothing is 0.
  Histogram& empty =
      Registry::Global().GetHistogram("test.quantile_empty", SmallOptions());
  EXPECT_DOUBLE_EQ(empty.TakeSnapshot().Quantile(0.5), 0.0);
}

TEST(MetricsHistogramTest, QuantileStaysWithinObservedRange) {
  // One populated bucket: [8, 16) holds every observation, all 14. The
  // interpolated estimate would say 12 at the median — below anything
  // observed; every quantile must stay within [min, max].
  HistogramOptions doubling;
  doubling.lowest = 1.0;
  doubling.growth = 2.0;
  doubling.num_buckets = 8;
  Histogram& single =
      Registry::Global().GetHistogram("test.quantile_single", doubling);
  for (int i = 0; i < 10; ++i) single.Observe(14.0);
  const Histogram::Snapshot snap = single.TakeSnapshot();
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.Quantile(q), 14.0) << "q=" << q;
  }

  // The first bucket, [0, lowest): observations between 0.6 and 0.8.
  Histogram& first =
      Registry::Global().GetHistogram("test.quantile_first", doubling);
  for (const double v : {0.6, 0.7, 0.8}) first.Observe(v);
  const Histogram::Snapshot low = first.TakeSnapshot();
  EXPECT_EQ(low.counts[0], 3u);
  EXPECT_DOUBLE_EQ(low.Quantile(0.0), 0.6);
  EXPECT_DOUBLE_EQ(low.Quantile(1.0), 0.8);
  const double median = low.Quantile(0.5);
  EXPECT_GE(median, 0.6);
  EXPECT_LE(median, 0.8);
}

TEST(MetricsHistogramTest, SnapshotUnderConcurrentLoad) {
  Histogram& hist =
      Registry::Global().GetHistogram("test.under_load", SmallOptions());
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>((i + t) % 10));
      }
    });
  }
  // Reader: snapshots must stay self-consistent while writers hammer the
  // histogram — count never decreases, never exceeds the final total.
  std::thread reader([&hist, &done] {
    uint64_t last_count = 0;
    while (!done.load(std::memory_order_relaxed)) {
      const Histogram::Snapshot snap = hist.TakeSnapshot();
      EXPECT_GE(snap.count, last_count);
      EXPECT_LE(snap.count, kThreads * kPerThread);
      last_count = snap.count;
    }
  });
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();

  const Histogram::Snapshot final_snap = hist.TakeSnapshot();
  EXPECT_EQ(final_snap.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (const uint64_t c : final_snap.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  // Each thread's values are a permutation of 0..9 repeated, so the sum
  // is exact despite CAS-racing doubles (all values are small integers).
  double expected_sum = 0;
  for (size_t t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += static_cast<double>((i + t) % 10);
    }
  }
  EXPECT_DOUBLE_EQ(final_snap.sum, expected_sum);
  EXPECT_DOUBLE_EQ(final_snap.min, 0.0);
  EXPECT_DOUBLE_EQ(final_snap.max, 9.0);
}

// ---------------------------------------------------------------------------
// Registry exposition

TEST(MetricsRegistryTest, RenderJsonIsValidAndCarriesValues) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.render_counter").Add(7);
  registry.GetGauge("test.render_gauge").Set(-3);
  Histogram& hist =
      registry.GetHistogram("test.render_hist", SmallOptions());
  hist.Observe(1.5);
  hist.Observe(100.0);

  const std::string json = registry.RenderJson();
  // Single line, by contract (rides in the newline-delimited protocol).
  EXPECT_EQ(json.find('\n'), std::string::npos);

  const auto parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::JsonValue& doc = parsed.value();

  const serve::JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const serve::JsonValue* counter = counters->Find("test.render_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number_value, 7.0);

  const serve::JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const serve::JsonValue* gauge = gauges->Find("test.render_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->number_value, -3.0);

  const serve::JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const serve::JsonValue* h = histograms->Find("test.render_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->Find("count")->number_value, 2.0);
  EXPECT_DOUBLE_EQ(h->Find("min")->number_value, 1.5);
  EXPECT_DOUBLE_EQ(h->Find("max")->number_value, 100.0);
  // Only populated buckets are emitted: [1,2) and the overflow bucket.
  const serve::JsonValue* buckets = h->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  ASSERT_EQ(buckets->array.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets->array[0].Find("le")->number_value, 2.0);
  EXPECT_EQ(buckets->array[1].Find("le")->string_value, "inf");
}

TEST(MetricsRegistryTest, RenderTextListsMetrics) {
  Registry& registry = Registry::Global();
  registry.GetCounter("test.text_counter").Add(2);
  const std::string text = registry.RenderText();
  EXPECT_NE(text.find("test.text_counter "), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans, capture, ring

TEST(TraceTest, SpanRecordsToRingWithArgs) {
  trace::ClearRing();
  {
    trace::TraceSpan span("test_span_ring", "test");
    span.AddArg("alpha", 1.5);
    span.AddArg("beta", 2.0);
    span.AddArg("gamma", 3.0);  // third arg: dropped
  }
  const std::vector<trace::TraceEvent> events = trace::SnapshotRing();
  const trace::TraceEvent* found = nullptr;
  for (const auto& e : events) {
    if (e.name != nullptr && std::string(e.name) == "test_span_ring") {
      found = &e;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_STREQ(found->category, "test");
  EXPECT_GT(found->tid, 0u);
  EXPECT_STREQ(found->arg_names[0], "alpha");
  EXPECT_DOUBLE_EQ(found->arg_values[0], 1.5);
  EXPECT_STREQ(found->arg_names[1], "beta");
  EXPECT_DOUBLE_EQ(found->arg_values[1], 2.0);
}

TEST(TraceTest, TraceIdScopeInstallsAndRestores) {
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
  const uint64_t outer = trace::NewTraceId();
  const uint64_t inner = trace::NewTraceId();
  EXPECT_NE(outer, inner);
  {
    trace::TraceIdScope outer_scope(outer);
    EXPECT_EQ(trace::CurrentTraceId(), outer);
    {
      trace::TraceIdScope inner_scope(inner);
      EXPECT_EQ(trace::CurrentTraceId(), inner);
    }
    EXPECT_EQ(trace::CurrentTraceId(), outer);
  }
  EXPECT_EQ(trace::CurrentTraceId(), 0u);
}

TEST(TraceTest, RequestCaptureCollectsAcrossThreads) {
  const uint64_t id = trace::NewTraceId();
  trace::RequestCapture capture(id);
  {
    trace::TraceIdScope scope(id);
    trace::TraceSpan span("test_capture_main", "test");
  }
  // A worker doing request work re-installs the requester's id — its
  // spans land in the same capture.
  std::thread worker([id] {
    trace::TraceIdScope scope(id);
    trace::TraceSpan span("test_capture_worker", "test");
  });
  worker.join();
  // A span under a *different* id must not leak into this capture.
  {
    trace::TraceIdScope scope(trace::NewTraceId());
    trace::TraceSpan span("test_capture_other", "test");
  }

  const std::vector<trace::TraceEvent> events = capture.TakeEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test_capture_main");
  EXPECT_STREQ(events[1].name, "test_capture_worker");
  for (const auto& e : events) EXPECT_EQ(e.trace_id, id);
  // TakeEvents moves the events out; a second call finds none.
  EXPECT_TRUE(capture.TakeEvents().empty());
}

TEST(TraceTest, RingSnapshotPreservesPublicationOrder) {
  trace::ClearRing();
  for (int i = 0; i < 5; ++i) {
    trace::TraceEvent event;
    event.name = "test_ring_order";
    event.category = "test";
    event.arg_names[0] = "i";
    event.arg_values[0] = static_cast<double>(i);
    trace::RecordEvent(event);
  }
  const std::vector<trace::TraceEvent> events = trace::SnapshotRing();
  std::vector<double> order;
  for (const auto& e : events) {
    if (e.name != nullptr && std::string(e.name) == "test_ring_order") {
      order.push_back(e.arg_values[0]);
    }
  }
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(order[i], i);
}

TEST(TraceTest, DisabledTraceRecordsNothing) {
  trace::ClearRing();
  trace::SetEnabled(false);
  {
    trace::TraceSpan span("test_disabled", "test");
    span.AddArg("x", 1.0);  // must not crash on an unarmed span
  }
  trace::TraceEvent event;
  event.name = "test_disabled_direct";
  trace::RecordEvent(event);
  trace::SetEnabled(true);
  EXPECT_TRUE(trace::SnapshotRing().empty());
}

TEST(TraceTest, RenderChromeTraceIsValidJson) {
  std::vector<trace::TraceEvent> events;
  trace::TraceEvent event;
  event.name = "test_chrome";
  event.category = "test";
  event.trace_id = 42;
  event.start_ns = 1500;   // 1.5 us
  event.dur_ns = 2000000;  // 2 ms
  event.tid = 3;
  event.arg_names[0] = "blocks";
  event.arg_values[0] = 7.0;
  events.push_back(event);
  trace::TraceEvent unnamed;  // name == nullptr: skipped by the renderer
  events.push_back(unnamed);

  const std::string json = trace::RenderChromeTrace(events);
  const auto parsed = serve::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::JsonValue& doc = parsed.value();
  EXPECT_EQ(doc.Find("displayTimeUnit")->string_value, "ms");
  const serve::JsonValue* trace_events = doc.Find("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->array.size(), 1u);  // unnamed event skipped
  const serve::JsonValue& e = trace_events->array[0];
  EXPECT_EQ(e.Find("ph")->string_value, "X");
  EXPECT_EQ(e.Find("name")->string_value, "test_chrome");
  EXPECT_EQ(e.Find("cat")->string_value, "test");
  EXPECT_DOUBLE_EQ(e.Find("ts")->number_value, 1.5);       // microseconds
  EXPECT_DOUBLE_EQ(e.Find("dur")->number_value, 2000.0);   // microseconds
  EXPECT_DOUBLE_EQ(e.Find("tid")->number_value, 3.0);
  const serve::JsonValue* args = e.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_DOUBLE_EQ(args->Find("trace_id")->number_value, 42.0);
  EXPECT_DOUBLE_EQ(args->Find("blocks")->number_value, 7.0);
}

TEST(TraceTest, ThreadIdsAreDenseAndStable) {
  const uint32_t main_id = trace::CurrentThreadId();
  EXPECT_EQ(trace::CurrentThreadId(), main_id);  // stable per thread
  uint32_t other_id = 0;
  std::thread t([&other_id] { other_id = trace::CurrentThreadId(); });
  t.join();
  EXPECT_NE(other_id, 0u);
  EXPECT_NE(other_id, main_id);
}

}  // namespace
}  // namespace pme
