#include "common/team.h"

#include <chrono>
#include <system_error>

#include "common/trace.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pme {
namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// How long an idle helper spins before it sleeps on the condition
/// variable. Inside a solve the gaps between forks are microseconds, so
/// helpers sleep only around the solve's serial stages: presolve's scan
/// (and its reduction, when it has one) and the dual's set-up before the
/// first fork, the restore and violation pass after the last. A block is
/// assembled before its team forms.
constexpr auto kSpinBeforeSleep = std::chrono::microseconds(100);

}  // namespace

Team::Team(size_t size) {
  const uint64_t trace_id = trace::CurrentTraceId();
  const size_t wanted = std::max<size_t>(size, 1);
  helpers_.reserve(wanted - 1);
  for (size_t m = 1; m < wanted; ++m) {
    try {
      helpers_.emplace_back([this, m, trace_id] { HelperLoop(m, trace_id); });
    } catch (const std::system_error&) {
      break;  // out of threads: work with the helpers already running
    }
  }
  // Helpers read size_ only inside a fork, after this store.
  size_ = helpers_.size() + 1;
}

Team::~Team() {
  if (helpers_.empty()) return;
  stopping_ = true;
  generation_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(mutex_);
  }
  wake_.notify_all();
  for (std::thread& h : helpers_) h.join();
}

void Team::Dispatch(Call call, void* ctx) {
  call_ = call;
  ctx_ = ctx;
  pending_.store(size_ - 1, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    // The lock orders this notify after a helper's predicate check.
    { std::lock_guard<std::mutex> lock(mutex_); }
    wake_.notify_all();
  }
  call(ctx, 0);
  for (size_t spins = 0; pending_.load(std::memory_order_acquire) != 0;
       ++spins) {
    // A descheduled helper (an oversubscribed host) must not be starved
    // by this spin.
    if (spins < 4096) {
      CpuRelax();
    } else {
      std::this_thread::yield();
    }
  }
}

uint64_t Team::AwaitGeneration(uint64_t seen) {
  uint64_t gen = generation_.load(std::memory_order_acquire);
  if (gen != seen) return gen;
  const auto sleep_at = std::chrono::steady_clock::now() + kSpinBeforeSleep;
  for (size_t spins = 1;; ++spins) {
    CpuRelax();
    gen = generation_.load(std::memory_order_acquire);
    if (gen != seen) return gen;
    if (spins % 64 == 0 && std::chrono::steady_clock::now() >= sleep_at) {
      break;
    }
  }
  std::unique_lock<std::mutex> lock(mutex_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  wake_.wait(lock, [&] {
    gen = generation_.load(std::memory_order_seq_cst);
    return gen != seen;
  });
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  return gen;
}

void Team::HelperLoop(size_t member, uint64_t trace_id) {
  trace::TraceIdScope trace_scope(trace_id);
  uint64_t seen = 0;
  for (;;) {
    seen = AwaitGeneration(seen);
    if (stopping_) return;
    call_(ctx_, member);
    pending_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace pme
