/// Concurrency stress tests for ThreadPool and the intra-session fan-out
/// (runtime/fan_out.hpp) (ctest label "stress"; run them under the `tsan`
/// and `asan` presets). The scenarios the engine depends on for liveness
/// and exactness: nested fan-out on an undersized pool (sessions on the
/// workers fanning out onto the same workers), every task exactly once,
/// deterministic error propagation, helper tickets that outlive their
/// fan-out, and producers racing stop().

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "runtime/fan_out.hpp"

namespace hyperear::runtime {
namespace {

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

/// Parks every worker of a pool on a gate until release() (or destruction),
/// so whatever is posted meanwhile stays queued.
class ParkedWorkers {
 public:
  explicit ParkedWorkers(ThreadPool& pool) : release_future_(release_.get_future().share()) {
    std::vector<std::future<void>> parked;
    for (std::size_t w = 0; w < pool.size(); ++w) {
      auto started = std::make_shared<std::promise<void>>();
      parked.push_back(started->get_future());
      pool.post([started, gate = release_future_] {
        started->set_value();
        gate.wait();
      });
    }
    for (std::future<void>& f : parked) f.wait();
  }
  ~ParkedWorkers() { release(); }
  ParkedWorkers(const ParkedWorkers&) = delete;
  ParkedWorkers& operator=(const ParkedWorkers&) = delete;

  void release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> release_future_;
  bool released_ = false;
};

/// Fan `count` tasks out from the calling thread and check that each ran
/// exactly once and that the helped count matches the tasks that ran off
/// the calling thread.
void expect_every_task_once(ThreadPool& pool, std::size_t count) {
  std::vector<std::atomic<int>> runs(count);
  std::atomic<std::size_t> off_caller{0};
  const std::thread::id caller = std::this_thread::get_id();
  const std::size_t helped = fan_out(pool, count, [&](std::size_t i, bool helper) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
    const bool on_caller = std::this_thread::get_id() == caller;
    EXPECT_EQ(helper, !on_caller);
    if (!on_caller) off_caller.fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(runs[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(helped, off_caller.load());
  EXPECT_LE(helped, count);
}

TEST(ThreadPoolStress, FanOutOfZeroTasksReturnsWithoutPosting) {
  obs::MetricsRegistry registry;
  {
    ThreadPool pool(2);
    pool.install_metrics(registry, "pool");
    bool ran = false;
    EXPECT_EQ(fan_out(pool, 0, [&ran](std::size_t, bool) { ran = true; }), 0u);
    EXPECT_FALSE(ran);
  }
  EXPECT_EQ(registry.counter("pool.tasks_run_total").value(), 0.0);
}

TEST(ThreadPoolStress, FanOutOfOneTaskRunsOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  EXPECT_EQ(fan_out(pool, 1,
                    [&ran_on](std::size_t i, bool helper) {
                      EXPECT_EQ(i, 0u);
                      EXPECT_FALSE(helper);
                      ran_on = std::this_thread::get_id();
                    }),
            0u);
  EXPECT_EQ(ran_on, caller);  // one task posts no ticket
}

TEST(ThreadPoolStress, FanOutRunsManyTasksExactlyOnceAtEveryPoolSize) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hardware_threads()}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) expect_every_task_once(pool, 257);
  }
}

TEST(ThreadPoolStress, FanOutOwnerRunsEveryTaskWhileWorkersAreBusy) {
  // With every worker parked, the helper tickets stay queued: the owner
  // must claim and run all tasks itself, never waiting for a ticket. The
  // tickets run after the fan-out returned and its callable died — under
  // ASan, touching anything but their shared group state would fail here.
  ThreadPool pool(2);
  ParkedWorkers parked(pool);
  constexpr std::size_t kTasks = 8;
  std::vector<int> runs(kTasks, 0);
  const std::thread::id caller = std::this_thread::get_id();
  bool all_on_caller = true;
  {
    const std::function<void(std::size_t, bool)> task = [&](std::size_t i, bool helper) {
      if (helper || std::this_thread::get_id() != caller) all_on_caller = false;
      ++runs[i];
    };
    EXPECT_EQ(fan_out(pool, kTasks, task), 0u);
  }
  EXPECT_TRUE(all_on_caller);
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i], 1) << "task " << i;
  parked.release();  // the stale tickets now run and must find nothing
}

TEST(ThreadPoolStress, FanOutCompletesWhenThePoolStopsWithTicketsQueued) {
  // stop() lands while the fan-out's tickets are still queued: the
  // workers drain them (some may still claim a task), re-posts are
  // refused, and the owner finishes the rest. Every task runs once.
  ThreadPool pool(3);
  auto parked = std::make_unique<ParkedWorkers>(pool);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  std::promise<void> first_task;
  std::atomic<bool> signalled{false};
  std::thread owner([&] {
    (void)fan_out(pool, kTasks, [&](std::size_t i, bool) {
      if (!signalled.exchange(true)) first_task.set_value();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  first_task.get_future().wait();
  pool.stop();
  parked->release();
  owner.join();
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1) << "task " << i;
  EXPECT_THROW(pool.post([] {}), PreconditionError);
}

TEST(ThreadPoolStress, FanOutRunsOnTheCallerAfterStop) {
  ThreadPool pool(2);
  pool.stop();
  EXPECT_THROW(pool.post([] {}), PreconditionError);
  std::vector<std::size_t> order;
  EXPECT_EQ(fan_out(pool, 3,
                    [&order](std::size_t i, bool helper) {
                      EXPECT_FALSE(helper);
                      order.push_back(i);
                    }),
            0u);
  // The pool refused every ticket: the owner ran all tasks, in order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ThreadPoolStress, FanOutRethrowsTheLowestIndexException) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, hardware_threads()}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 20; ++round) {
      constexpr std::size_t kTasks = 16;
      std::vector<std::atomic<int>> runs(kTasks);
      try {
        (void)fan_out(pool, kTasks, [&runs](std::size_t i, bool) {
          runs[i].fetch_add(1, std::memory_order_relaxed);
          if (i == 5 || i == 11 || i == 12) {
            throw std::runtime_error("task " + std::to_string(i));
          }
        });
        ADD_FAILURE() << "fan_out swallowed the task errors";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "task 5");
      }
      // Failures do not cancel the other tasks.
      for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(runs[i].load(), 1);
    }
  }
}

TEST(ThreadPoolStress, FanOutWaitsForClaimedTasksBeforeRethrowing) {
  // The owner's own task fails at once while a helper is still inside its
  // task, which references the caller's frame: the error must surface only
  // after the helper finished.
  ThreadPool pool(2);
  std::promise<void> helper_started;
  std::atomic<bool> helper_finished{false};
  EXPECT_THROW(
      (void)fan_out(pool, 2,
                    [&](std::size_t, bool helper) {
                      if (!helper) {
                        helper_started.get_future().wait();
                        throw std::runtime_error("owner failed");
                      }
                      helper_started.set_value();
                      std::this_thread::sleep_for(std::chrono::milliseconds(20));
                      helper_finished = true;
                    }),
      std::runtime_error);
  EXPECT_TRUE(helper_finished.load());
}

/// Nested fan-out: outer tasks on the pool each fan out onto the SAME
/// pool, as engine sessions do. Owners never wait for unclaimed work, so
/// this completes at every pool size — including size 1, where the lone
/// worker runs every inner task of every outer task itself.
void nested_fan_out_completes(std::size_t pool_size) {
  ThreadPool pool(pool_size);
  constexpr std::size_t kOuter = 12;
  constexpr std::size_t kInner = 10;
  std::vector<std::atomic<int>> runs(kOuter * kInner);

  std::vector<std::future<void>> done;
  done.reserve(kOuter);
  for (std::size_t o = 0; o < kOuter; ++o) {
    auto task = std::make_shared<std::packaged_task<void()>>([&pool, &runs, o] {
      (void)fan_out(pool, kInner, [&runs, o](std::size_t i, bool) {
        runs[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
      });
    });
    done.push_back(task->get_future());
    pool.post([task] { (*task)(); });
  }
  for (std::future<void>& f : done) f.get();
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].load(), 1) << i;
}

TEST(ThreadPoolStress, NestedFanOutCompletesOnPoolOfOne) {
  nested_fan_out_completes(1);
}
TEST(ThreadPoolStress, NestedFanOutCompletesOnPoolOfTwo) {
  nested_fan_out_completes(2);
}
TEST(ThreadPoolStress, NestedFanOutCompletesOnFullPool) {
  nested_fan_out_completes(hardware_threads());
}

TEST(ThreadPoolStress, DrainOnStopRunsEveryAcceptedTaskExactlyOnce) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 400;
  constexpr std::size_t kFanOut = 4;
  // One flag per potential task: exactly-once means every flag is 0 or 1
  // and the sum matches the accepted count.
  std::vector<std::atomic<int>> runs(kProducers * kPerProducer);
  std::vector<std::atomic<int>> fanned(kProducers * kPerProducer * kFanOut);
  std::atomic<std::size_t> accepted{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          std::atomic<int>& flag = runs[p * kPerProducer + i];
          try {
            pool.post([&flag] { flag.fetch_add(1, std::memory_order_relaxed); });
            accepted.fetch_add(1, std::memory_order_relaxed);
          } catch (const PreconditionError&) {
            // stop() won the race; the task was never enqueued.
          }
          // A fan-out whose tickets race stop(): refused tickets leave
          // their tasks to this thread.
          (void)fan_out(pool, kFanOut, [&](std::size_t t, bool) {
            fanned[(p * kPerProducer + i) * kFanOut + t].fetch_add(1);
          });
        }
      });
    }
    // Stop mid-stream: some posts land before, some are refused.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pool.stop();
    for (std::thread& t : producers) t.join();
  }  // ~ThreadPool drains the queue: every accepted task has now run.

  std::size_t total_runs = 0;
  for (const std::atomic<int>& flag : runs) {
    const int n = flag.load();
    ASSERT_LE(n, 1) << "a task ran twice";
    total_runs += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(total_runs, accepted.load());
  for (const std::atomic<int>& flag : fanned) ASSERT_EQ(flag.load(), 1);
}

TEST(ThreadPoolStress, MetricsCountEveryTaskAndQueueDepthReturnsToZero) {
  obs::MetricsRegistry registry;
  constexpr std::size_t kTasks = 64;
  {
    ThreadPool pool(2);
    pool.install_metrics(registry, "pool");
    std::atomic<std::size_t> ran{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue
  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "pool.tasks_run_total");
  EXPECT_EQ(snap.counters[0].second, static_cast<double>(kTasks));
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "pool.queue_depth");
  EXPECT_EQ(snap.gauges[0].second, 0.0);  // +1 per post, -1 per dequeue
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "pool.task_wait_ms");
  EXPECT_EQ(snap.histograms[0].count, kTasks);
}

TEST(ThreadPoolStress, QueueDepthGaugeNeverDipsNegativeUnderHelpDraining) {
  // post() bumps the queue-depth gauge inside the locked region, where
  // dequeues decrement it, so no consumer can pop-and-decrement before the
  // increment. Fan-out helpers make the pool its own poster: tickets
  // re-post themselves from worker threads while outside threads post and
  // fan out. A sampler racing all of them must never observe a negative
  // depth.
  obs::MetricsRegistry registry;
  constexpr std::size_t kTasks = 2000;
  {
    ThreadPool pool(2);
    pool.install_metrics(registry, "pool");
    const obs::Gauge depth = registry.gauge("pool.queue_depth");
    std::atomic<bool> done{false};
    std::atomic<bool> negative_seen{false};

    std::vector<std::thread> fanners;
    for (int d = 0; d < 2; ++d) {
      fanners.emplace_back([&pool, &done] {
        while (!done.load(std::memory_order_acquire)) {
          (void)fan_out(pool, 8, [](std::size_t, bool) {});
        }
      });
    }
    std::thread sampler([&depth, &done, &negative_seen] {
      while (!done.load(std::memory_order_acquire)) {
        if (depth.value() < 0.0) negative_seen.store(true);
      }
    });

    std::atomic<std::size_t> ran{0};
    for (std::size_t i = 0; i < kTasks; ++i) {
      pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    while (ran.load(std::memory_order_acquire) < kTasks) std::this_thread::yield();
    done.store(true, std::memory_order_release);
    for (std::thread& t : fanners) t.join();
    sampler.join();
    EXPECT_FALSE(negative_seen.load());
  }
  EXPECT_EQ(registry.gauge("pool.queue_depth").value(), 0.0);
}

TEST(ThreadPoolStress, CompletionChainedPostsDrainOnPoolOfOne) {
  // The serving layer pumps from completion context: a pool task, as it
  // finishes, posts the NEXT task onto the same pool. Pin that such
  // chains complete on a pool of one.
  std::function<void(int)> chain;  // declared before the pool: links may
                                   // still reference it while the pool drains
  ThreadPool pool(1);
  constexpr int kLinks = 64;
  std::atomic<int> ran{0};
  std::promise<void> finished;
  chain = [&pool, &chain, &ran, &finished](int remaining) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (remaining == 0) {
      finished.set_value();
      return;
    }
    pool.post([&chain, remaining] { chain(remaining - 1); });
  };
  pool.post([&chain] { chain(kLinks - 1); });
  finished.get_future().wait();
  EXPECT_EQ(ran.load(), kLinks);
}

}  // namespace
}  // namespace hyperear::runtime
