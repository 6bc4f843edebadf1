// Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
// Licensed under the Apache License, Version 2.0.

#ifndef PME_COMMON_THREAD_POOL_H_
#define PME_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pme {

/// A fixed-size thread pool with a single shared FIFO queue — no work
/// stealing, no priorities. Built for the block-decomposed MaxEnt solve:
/// a handful of coarse, independent block solves whose results are
/// scattered into disjoint output ranges, so determinism comes from the
/// work items themselves and the pool only supplies concurrency.
///
/// Work enters only as batches (RunBatch, ParallelFor). Exception
/// contract: the library's error channel is Status, so tasks are not
/// expected to throw — but an exception that does escape fn(i) is
/// captured, not fatal. Every index of the batch is still attempted, and
/// the first exception's message comes back from that batch's call as a
/// kInternal Status, after every index has finished. A task that threw
/// produced no result; callers treat its output slot as unset (the
/// decomposed solver degrades that component rather than failing the
/// run).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers. 0 means std::thread::hardware_concurrency
  /// (at least 1). A pool of size 1 still runs tasks on its single worker.
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  size_t size() const { return workers_.size(); }

  /// Runs fn(0..n-1) as one batch on this pool and blocks until every
  /// index of *this* batch has finished. Concurrent batches submitted
  /// from different threads do not wait on each other's tasks, and each
  /// returns only its own error — the serving path, where many requests
  /// share one fixed set of solver threads. Must not be called from a
  /// worker of this pool — the caller blocks while holding a worker slot.
  Status RunBatch(size_t n, const std::function<void(size_t)>& fn);

  /// Resolves a `--threads` style request: 0 -> hardware concurrency,
  /// otherwise the value itself (minimum 1).
  static size_t ResolveThreads(size_t requested);

  /// Runs fn(0..n-1) across `num_threads` threads and waits for all of
  /// them: RunBatch on a private pool of min(num_threads, n) workers.
  /// With num_threads <= 1 or n <= 1 the calls run inline on the caller's
  /// thread, in index order, with no pool spun up. Both paths keep the
  /// batch exception contract above.
  static Status ParallelFor(size_t num_threads, size_t n,
                            const std::function<void(size_t)>& fn);

 private:
  /// A queued task remembers when it was submitted so the worker can
  /// observe its queue wait (pool.queue_wait_seconds) on dequeue.
  struct QueuedTask {
    std::function<void()> fn;
    uint64_t enqueued_ns = 0;
  };

  /// Enqueues a task. Never blocks (unbounded queue). The task must not
  /// throw: RunBatch wraps every fn(i) before it gets here.
  void Submit(std::function<void()> task);

  void WorkerLoop();

  std::mutex mutex_;
  std::queue<QueuedTask> queue_;
  std::condition_variable work_available_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;  // last: the workers use the above
};

}  // namespace pme

#endif  // PME_COMMON_THREAD_POOL_H_
