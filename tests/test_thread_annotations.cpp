/// Behavior tests of the annotated synchronization wrappers in
/// common/thread_annotations.hpp (ctest label "stress", so the tsan preset
/// runs them under ThreadSanitizer — the wrappers' whole job is to carry
/// the locking protocol, so a bug here is a race everywhere). The
/// interesting coverage is the CondVar interop: `wait` temporarily adopts
/// the MutexLock's native handle, and the ThreadPool/engine join pattern
/// notifies while still holding the lock and tears the condvar down
/// immediately after the join.

#include "common/thread_annotations.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hyperear {
namespace {

/// Minimal annotated type, shaped like the runtime's lock-holding classes.
class GuardedCounter {
 public:
  void bump() HE_EXCLUDES(mutex_) {
    const he::MutexLock lock(mutex_);
    ++value_;
  }
  [[nodiscard]] int value() const HE_EXCLUDES(mutex_) {
    const he::MutexLock lock(mutex_);
    return value_;
  }

 private:
  mutable he::Mutex mutex_;
  int value_ HE_GUARDED_BY(mutex_) = 0;
};

TEST(ThreadAnnotations, MutexLockProvidesMutualExclusion) {
  GuardedCounter counter;
  constexpr int kThreads = 4;
  constexpr int kBumps = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kBumps; ++i) counter.bump();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kBumps);
}

TEST(ThreadAnnotations, TryLockFailsWhileHeldAndSucceedsWhenFree) {
  he::Mutex mutex;
  mutex.lock();
  std::thread contender([&mutex] {
    const bool acquired = mutex.try_lock();
    EXPECT_FALSE(acquired);
    if (acquired) mutex.unlock();
  });
  contender.join();
  mutex.unlock();

  std::thread second([&mutex] {
    const bool acquired = mutex.try_lock();
    EXPECT_TRUE(acquired);
    if (acquired) mutex.unlock();
  });
  second.join();
}

TEST(ThreadAnnotations, MutexLockReleasesOnException) {
  he::Mutex mutex;
  try {
    const he::MutexLock lock(mutex);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  const bool reacquired = mutex.try_lock();
  EXPECT_TRUE(reacquired);
  if (reacquired) mutex.unlock();
}

TEST(ThreadAnnotations, WaitReleasesTheMutexWhileWaiting) {
  he::Mutex mutex;
  he::CondVar cv;
  bool flag = false;
  std::atomic<bool> entered{false};

  std::thread waiter([&] {
    he::MutexLock lock(mutex);
    entered.store(true);
    while (!flag) cv.wait(lock);
  });

  // Once `entered` is visible the waiter holds the mutex right up until
  // wait() releases it — so acquiring here PROVES the release happened.
  while (!entered.load()) std::this_thread::yield();
  {
    const he::MutexLock lock(mutex);
    flag = true;
  }
  cv.notify_one();
  waiter.join();
}

TEST(ThreadAnnotations, NotifyUnderLockSurvivesImmediateTeardown) {
  // The engine's frame-join shape (Engine::localize_all): the last
  // worker notifies while still holding the lock, and the condvar/mutex
  // pair is destroyed as soon as the join returns. Notifying under the
  // lock is what makes that teardown safe — the waiter cannot observe the
  // predicate and destroy the state between our store and our notify.
  for (int i = 0; i < 100; ++i) {
    struct JoinState {
      he::Mutex m;
      he::CondVar cv;
      bool done = false;
    };
    auto join = std::make_unique<JoinState>();
    std::thread waiter([&join] {
      he::MutexLock lock(join->m);
      while (!join->done) join->cv.wait(lock);
    });
    {
      const he::MutexLock lock(join->m);
      join->done = true;
      join->cv.notify_one();
    }
    waiter.join();
    join.reset();
  }
}

TEST(ThreadAnnotations, PoolStyleProducerConsumerDrainsEveryItem) {
  // The ThreadPool::worker_loop shape end to end: explicit wait loop,
  // drain-before-exit on stop, every item consumed exactly once in order.
  he::Mutex mutex;
  he::CondVar wake;
  std::deque<int> queue;
  bool stopping = false;
  std::vector<int> consumed;

  std::thread worker([&] {
    for (;;) {
      int item = 0;
      {
        he::MutexLock lock(mutex);
        while (!stopping && queue.empty()) wake.wait(lock);
        if (queue.empty()) return;  // stopping and drained
        item = queue.front();
        queue.pop_front();
      }
      consumed.push_back(item);
    }
  });

  constexpr int kItems = 100;
  for (int i = 0; i < kItems; ++i) {
    {
      const he::MutexLock lock(mutex);
      queue.push_back(i);
    }
    wake.notify_one();
  }
  {
    const he::MutexLock lock(mutex);
    stopping = true;
  }
  wake.notify_all();
  worker.join();

  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(consumed[static_cast<std::size_t>(i)], i);
}

}  // namespace
}  // namespace hyperear
