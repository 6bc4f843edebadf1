#include "common/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace pme::trace {
namespace {

std::atomic<bool> g_enabled{true};

/// One ring slot, seqlock-guarded: seq == 2*ticket+1 while the writer is
/// inside, 2*ticket+2 once published, 0 when never written. Readers keep
/// a slot only when they see the same even nonzero seq before and after
/// the copy.
struct Slot {
  std::atomic<uint64_t> seq{0};
  TraceEvent event;
};

Slot* Ring() {
  static Slot* const ring = new Slot[kRingCapacity];  // never destroyed
  return ring;
}

std::atomic<uint64_t> g_next_ticket{0};

/// Active per-request captures. The atomic count makes the idle fast
/// path (no `"trace": true` request in flight) one relaxed load.
std::atomic<int> g_active_captures{0};
std::mutex g_capture_mutex;
std::unordered_map<uint64_t, std::vector<TraceEvent>*>& CaptureTable() {
  static auto* const table =
      new std::unordered_map<uint64_t, std::vector<TraceEvent>*>();
  return *table;
}

thread_local uint64_t t_trace_id = 0;

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t NowNanos() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

uint64_t NewTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t CurrentTraceId() { return t_trace_id; }

TraceIdScope::TraceIdScope(uint64_t id) : previous_(t_trace_id) {
  t_trace_id = id;
}

TraceIdScope::~TraceIdScope() { t_trace_id = previous_; }

TraceSpan::TraceSpan(const char* name, const char* category) {
  if (!Enabled()) return;
  armed_ = true;
  event_.name = name;
  event_.category = category;
  event_.start_ns = NowNanos();
}

void TraceSpan::AddArg(const char* name, double value) {
  if (!armed_ || num_args_ >= TraceEvent::kMaxArgs) return;
  event_.arg_names[num_args_] = name;
  event_.arg_values[num_args_] = value;
  ++num_args_;
}

TraceSpan::~TraceSpan() {
  if (!armed_) return;
  event_.dur_ns = NowNanos() - event_.start_ns;
  event_.tid = CurrentThreadId();
  event_.trace_id = t_trace_id;
  RecordEvent(event_);
}

void RecordEvent(const TraceEvent& event) {
  if (!Enabled()) return;
  const uint64_t ticket =
      g_next_ticket.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = Ring()[ticket % kRingCapacity];
  slot.seq.store(2 * ticket + 1, std::memory_order_release);
  slot.event = event;
  slot.seq.store(2 * ticket + 2, std::memory_order_release);

  if (event.trace_id != 0 &&
      g_active_captures.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(g_capture_mutex);
    auto it = CaptureTable().find(event.trace_id);
    if (it != CaptureTable().end()) it->second->push_back(event);
  }
}

RequestCapture::RequestCapture(uint64_t trace_id) : trace_id_(trace_id) {
  std::lock_guard<std::mutex> lock(g_capture_mutex);
  CaptureTable()[trace_id_] = new std::vector<TraceEvent>();
  g_active_captures.fetch_add(1, std::memory_order_relaxed);
}

RequestCapture::~RequestCapture() {
  std::lock_guard<std::mutex> lock(g_capture_mutex);
  auto it = CaptureTable().find(trace_id_);
  if (it != CaptureTable().end()) {
    delete it->second;
    CaptureTable().erase(it);
    g_active_captures.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> RequestCapture::TakeEvents() {
  std::lock_guard<std::mutex> lock(g_capture_mutex);
  auto it = CaptureTable().find(trace_id_);
  if (it == CaptureTable().end()) return {};
  std::vector<TraceEvent> events;
  events.swap(*it->second);
  return events;
}

std::vector<TraceEvent> SnapshotRing() {
  struct Keyed {
    uint64_t seq;
    TraceEvent event;
  };
  std::vector<Keyed> kept;
  kept.reserve(kRingCapacity);
  Slot* const ring = Ring();
  for (size_t i = 0; i < kRingCapacity; ++i) {
    const uint64_t before = ring[i].seq.load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    const TraceEvent copy = ring[i].event;
    const uint64_t after = ring[i].seq.load(std::memory_order_acquire);
    if (after != before) continue;  // overwritten during the copy
    kept.push_back({before, copy});
  }
  std::sort(kept.begin(), kept.end(),
            [](const Keyed& a, const Keyed& b) { return a.seq < b.seq; });
  std::vector<TraceEvent> events;
  events.reserve(kept.size());
  for (const Keyed& k : kept) events.push_back(k.event);
  return events;
}

void ClearRing() {
  Slot* const ring = Ring();
  for (size_t i = 0; i < kRingCapacity; ++i) {
    ring[i].seq.store(0, std::memory_order_relaxed);
  }
}

std::string RenderChromeTrace(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"name\":\"";
    out += e.name;
    out += "\",\"cat\":\"";
    out += e.category != nullptr ? e.category : "pme";
    // Chrome trace timestamps are microseconds.
    std::snprintf(buf, sizeof(buf), "\",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.dur_ns) / 1e3);
    out += buf;
    out += ",\"args\":{";
    bool first_arg = true;
    if (e.trace_id != 0) {
      out += "\"trace_id\":" + std::to_string(e.trace_id);
      first_arg = false;
    }
    for (size_t a = 0; a < TraceEvent::kMaxArgs; ++a) {
      if (e.arg_names[a] == nullptr) continue;
      if (!first_arg) out += ",";
      first_arg = false;
      std::snprintf(buf, sizeof(buf), "%.17g", e.arg_values[a]);
      out += "\"";
      out += e.arg_names[a];
      out += "\":";
      out += buf;
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  const std::string json = RenderChromeTrace(SnapshotRing());
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool ok = std::fputs(json.c_str(), out) >= 0 &&
                  std::fputs("\n", out) >= 0;
  std::fclose(out);
  return ok;
}

}  // namespace pme::trace
