#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <string_view>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"

/// @file thread_pool.hpp
/// A fixed-size worker pool with a single FIFO task queue — the execution
/// substrate of the batch-localization engine. Tasks must not throw (the
/// engine wraps every session in a catch-all and reports failures as
/// values); a task that does throw terminates the process, by design, so
/// bugs surface instead of vanishing on a worker thread. The queue lock
/// sits at the `pool` level of the lock hierarchy (DESIGN.md §14): tasks
/// are posted while holding server/session locks above it, and the only
/// thing touched under it is leaf telemetry.

namespace hyperear::runtime {

class ThreadPool {
 public:
  /// Spin up `threads` workers (>= 1; pass hardware_concurrency yourself if
  /// you want "all cores" — the pool does not guess).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue: blocks until every posted task has run.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Install pool telemetry on `registry` under `<prefix>.`: queue_depth
  /// (gauge: tasks posted but not yet started), task_wait_ms (histogram:
  /// post-to-start queueing latency), and tasks_run_total (counter). Call
  /// before the first post — installation is not synchronized against
  /// concurrent posting. The registry must outlive the pool. Without this
  /// call the handles stay null and posting skips the clock read entirely.
  void install_metrics(obs::MetricsRegistry& registry,
                       std::string_view prefix = "pool");

  /// Enqueue a task for execution on some worker, FIFO order. Throws
  /// PreconditionError once the pool is stopping; the task is NOT enqueued
  /// in that case.
  void post(std::function<void()> task) HE_EXCLUDES(mutex_);

  /// Stop accepting new tasks. Already-queued tasks still run to
  /// completion (workers drain the queue, then exit); `post` after this
  /// throws. Idempotent; does not block — the destructor joins.
  void stop() HE_EXCLUDES(mutex_);

  /// True once stop() has been called. Advisory for contract checks: a
  /// false answer can be stale by the time the caller acts on it, so post()
  /// still revalidates under the lock.
  [[nodiscard]] bool stopped() const HE_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    /// Post timestamp for the wait-time histogram; only stamped (and only
    /// read) when metrics are installed.
    std::chrono::steady_clock::time_point posted{};
  };

  void worker_loop() HE_EXCLUDES(mutex_);
  /// Dequeue bookkeeping of worker_loop; called with `mutex_` held, right
  /// after popping `task` off the queue.
  void note_dequeued(const QueuedTask& task) HE_REQUIRES(mutex_);

  mutable he::Mutex mutex_ HE_LOCK_LEVEL(pool);
  he::CondVar wake_;
  std::deque<QueuedTask> queue_ HE_GUARDED_BY(mutex_);
  bool stopping_ HE_GUARDED_BY(mutex_) = false;
  /// Release-published by install_metrics after the handles are written;
  /// acquire-read on the hot paths so the handle writes are visible.
  std::atomic<bool> metrics_installed_{false};
  obs::Gauge queue_depth_;
  obs::Histogram task_wait_ms_;
  obs::Counter tasks_run_;
  std::vector<std::thread> workers_;
};

}  // namespace hyperear::runtime
