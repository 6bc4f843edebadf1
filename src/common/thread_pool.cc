#include "common/thread_pool.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace pme {
namespace {

/// Registry handles resolved once; every pool in the process reports
/// into the same pool.* metrics (the serve path owns a single pool, and
/// ad-hoc ParallelFor pools are short-lived).
struct PoolMetrics {
  metrics::Counter* tasks;
  metrics::Gauge* queue_depth;
  metrics::Histogram* queue_wait_seconds;
  metrics::Histogram* task_seconds;
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics m = [] {
    auto& registry = metrics::Registry::Global();
    PoolMetrics r;
    r.tasks = &registry.GetCounter("pool.tasks");
    r.queue_depth = &registry.GetGauge("pool.queue_depth");
    r.queue_wait_seconds = &registry.GetHistogram("pool.queue_wait_seconds");
    r.task_seconds = &registry.GetHistogram("pool.task_seconds");
    return r;
  }();
  return m;
}

/// The first exception to escape any fn(i) of one batch. Run is safe to
/// call from several threads at once.
class FirstError {
 public:
  void Run(const std::function<void(size_t)>& fn, size_t i) {
    try {
      fn(i);
    } catch (const std::exception& e) {
      Record(e.what());
    } catch (...) {
      Record("non-std::exception");
    }
  }

  Status ToStatus() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!threw_) return Status::Ok();
    return Status::Internal("thread pool task threw: " + what_);
  }

 private:
  void Record(const char* what) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (threw_) return;
    threw_ = true;
    what_ = what;
  }

  std::mutex mutex_;
  bool threw_ = false;
  std::string what_;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = ResolveThreads(num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push(QueuedTask{std::move(task), trace::NowNanos()});
  }
  GetPoolMetrics().queue_depth->Add(1);
  work_available_.notify_one();
}

Status ThreadPool::RunBatch(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return Status::Ok();
  // Batch-local completion state: tasks from other callers sharing this
  // pool neither delay the return nor leak their errors into it.
  struct BatchState {
    std::mutex mutex;
    std::condition_variable done;
    size_t remaining = 0;
    FirstError error;
  };
  auto state = std::make_shared<BatchState>();
  state->remaining = n;
  for (size_t i = 0; i < n; ++i) {
    // fn by reference is safe: the caller blocks below until every index
    // has finished.
    Submit([state, i, &fn] {
      state->error.Run(fn, i);
      std::lock_guard<std::mutex> lock(state->mutex);
      if (--state->remaining == 0) state->done.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->done.wait(lock, [&] { return state->remaining == 0; });
  }
  return state->error.ToStatus();
}

void ThreadPool::WorkerLoop() {
  PoolMetrics& pm = GetPoolMetrics();
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    const uint64_t started_ns = trace::NowNanos();
    pm.queue_depth->Add(-1);
    pm.queue_wait_seconds->Observe(
        static_cast<double>(started_ns - task.enqueued_ns) * 1e-9);
    task.fn();
    pm.tasks->Add();
    pm.task_seconds->Observe(
        static_cast<double>(trace::NowNanos() - started_ns) * 1e-9);
  }
}

size_t ThreadPool::ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw);
}

Status ThreadPool::ParallelFor(size_t num_threads, size_t n,
                               const std::function<void(size_t)>& fn) {
  if (num_threads <= 1 || n <= 1) {
    FirstError error;
    for (size_t i = 0; i < n; ++i) error.Run(fn, i);
    return error.ToStatus();
  }
  ThreadPool pool(std::min(num_threads, n));
  return pool.RunBatch(n, fn);
}

}  // namespace pme
