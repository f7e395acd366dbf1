#include "runtime/thread_pool.hpp"

#include <string>

#include "common/error.hpp"

namespace hyperear::runtime {

namespace {

/// Queue-wait buckets (ms): sub-ms dispatch up to multi-second backlog.
constexpr double kWaitMsBounds[] = {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  require(threads >= 1, "ThreadPool: needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::install_metrics(obs::MetricsRegistry& registry,
                                 std::string_view prefix) {
  const std::string p(prefix);
  queue_depth_ = registry.gauge(p + ".queue_depth");
  task_wait_ms_ = registry.histogram(p + ".task_wait_ms", kWaitMsBounds);
  tasks_run_ = registry.counter(p + ".tasks_run_total");
  metrics_installed_.store(true, std::memory_order_release);
}

void ThreadPool::stop() {
  {
    const he::MutexLock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
}

bool ThreadPool::stopped() const {
  const he::MutexLock lock(mutex_);
  return stopping_;
}

void ThreadPool::post(std::function<void()> task) {
  QueuedTask queued{std::move(task), {}};
  const bool instrumented = metrics_installed_.load(std::memory_order_acquire);
  if (instrumented) queued.posted = std::chrono::steady_clock::now();
  {
    const he::MutexLock lock(mutex_);
    require(!stopping_, "ThreadPool::post: pool is shutting down");
    queue_.push_back(std::move(queued));
    // The +1 must land inside the locked region: note_dequeued's -1 runs
    // under this mutex, so any consumer that pops this task strictly
    // follows the increment, and the gauge never dips below zero
    // (test_stress_pool pins this).
    if (instrumented) queue_depth_.add(1.0);
  }
  wake_.notify_one();
}

void ThreadPool::note_dequeued(const QueuedTask& task) {
  if (!metrics_installed_.load(std::memory_order_acquire)) return;
  queue_depth_.add(-1.0);
  task_wait_ms_.observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - task.posted)
                            .count());
  tasks_run_.inc();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      he::MutexLock lock(mutex_);
      // Explicit loop, not the predicate overload: a predicate lambda is
      // analyzed without the capability, so its guarded reads would fail
      // thread-safety analysis (see thread_annotations.hpp).
      while (!stopping_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      note_dequeued(task);
    }
    task.fn();
  }
}

}  // namespace hyperear::runtime
