// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_TRACE_H_
#define PME_COMMON_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pme::trace {

/// Process-wide kill switch for span recording (same contract as
/// metrics::SetEnabled: off makes TraceSpan construction/destruction a
/// couple of relaxed loads). Default on — spans are coarse (per
/// request, per component solve), not per iteration.
void SetEnabled(bool enabled);
bool Enabled();

/// One completed span. `name`/`category`/arg names must be string
/// literals (or otherwise outlive the process) — events are stored by
/// pointer in a fixed ring, never copied.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = "pme";
  uint64_t trace_id = 0;   ///< 0 = outside any request
  uint64_t start_ns = 0;   ///< monotonic, since the process trace epoch
  uint64_t dur_ns = 0;
  uint32_t tid = 0;        ///< small dense thread id
  /// Up to kMaxArgs numeric args, exported under Chrome trace "args".
  static constexpr size_t kMaxArgs = 6;
  const char* arg_names[kMaxArgs] = {};
  double arg_values[kMaxArgs] = {};
};

/// Monotonic nanoseconds since the process trace epoch (first use).
uint64_t NowNanos();

/// Small dense id of the calling thread (stable per thread).
uint32_t CurrentThreadId();

/// Allocates a fresh nonzero request trace id.
uint64_t NewTraceId();

/// The ambient trace id of the calling thread (0 when none).
uint64_t CurrentTraceId();

/// RAII: installs `id` as the calling thread's ambient trace id and
/// restores the previous one on destruction. Pool tasks doing work on
/// behalf of a request capture the requester's id and open a scope
/// inside the task, so spans from worker threads stitch into the same
/// per-request timeline.
class TraceIdScope {
 public:
  explicit TraceIdScope(uint64_t id);
  ~TraceIdScope();

  TraceIdScope(const TraceIdScope&) = delete;
  TraceIdScope& operator=(const TraceIdScope&) = delete;

 private:
  uint64_t previous_;
};

/// RAII span: records start on construction; on destruction computes the
/// duration, stamps the ambient trace id + thread id, and publishes the
/// event to the global ring (and to any active capture of its trace id).
/// Construction when tracing is disabled is a no-op.
///
///   { TraceSpan span("solve"); span.AddArg("iterations", n); ... }
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const char* category = "pme");
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric arg (at most TraceEvent::kMaxArgs; extras are
  /// dropped).
  void AddArg(const char* name, double value);

 private:
  TraceEvent event_;
  bool armed_ = false;
  size_t num_args_ = 0;
};

/// Records a fully-formed event directly (for callers that measure
/// timing themselves).
void RecordEvent(const TraceEvent& event);

/// Registers a capture for `trace_id`: every event finishing under that
/// id (on any thread) is appended to this collector until destruction.
/// The serve layer opens one per `"trace": true` request and ships
/// TakeEvents() in the response. Cheap when idle: span completion only
/// looks at the capture table while at least one capture is live.
class RequestCapture {
 public:
  explicit RequestCapture(uint64_t trace_id);
  ~RequestCapture();

  RequestCapture(const RequestCapture&) = delete;
  RequestCapture& operator=(const RequestCapture&) = delete;

  /// The events captured so far, oldest first (moves them out).
  std::vector<TraceEvent> TakeEvents();

 private:
  uint64_t trace_id_;
};

/// Bounded global ring (kRingCapacity events; oldest overwritten).
/// Snapshot returns surviving events in publication order. Tearing-free:
/// slots are seqlock-guarded, a slot caught mid-write is skipped.
inline constexpr size_t kRingCapacity = 1u << 15;
std::vector<TraceEvent> SnapshotRing();
void ClearRing();

/// Renders events as a Chrome trace-event JSON document (loadable in
/// chrome://tracing and Perfetto): {"displayTimeUnit":"ms",
/// "traceEvents":[{"ph":"X","ts":…,"dur":…,"tid":…,…},…]}.
std::string RenderChromeTrace(const std::vector<TraceEvent>& events);

/// Snapshot + render + write to `path`. False on I/O failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace pme::trace

#endif  // PME_COMMON_TRACE_H_
