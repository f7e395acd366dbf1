#include "runtime/fan_out.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace hyperear::runtime {

namespace {

/// Shared state of one fan_out call, owned jointly by the owner and every
/// helper ticket.
struct Group {
  Group(ThreadPool& p, std::size_t n,
        const std::function<void(std::size_t, bool)>& t)
      : pool(&p), count(n), task(&t), errors(std::make_unique<std::exception_ptr[]>(n)) {}

  ThreadPool* pool;
  std::size_t count;
  /// The owner's callable. Dereferenced only after claiming an index below
  /// `count`; the owner cannot return before that task finished.
  const std::function<void(std::size_t, bool)>* task;
  std::atomic<std::size_t> next{0};    ///< next unclaimed task index
  std::atomic<std::size_t> done{0};    ///< finished tasks
  std::atomic<std::size_t> helped{0};  ///< finished tasks that ran on helpers
  std::unique_ptr<std::exception_ptr[]> errors;  ///< one slot per task
};

/// Run claimed task `i`. The release increment of `done` publishes the
/// task's results, its error slot and the helped count to the owner.
void run_claimed(Group& g, std::size_t i, bool helper) {
  try {
    (*g.task)(i, helper);
  } catch (...) {
    g.errors[i] = std::current_exception();
  }
  if (helper) g.helped.fetch_add(1, std::memory_order_relaxed);
  if (g.done.fetch_add(1, std::memory_order_acq_rel) + 1 == g.count) {
    g.done.notify_all();
  }
}

bool post_ticket(const std::shared_ptr<Group>& g);

/// A helper ticket: claim one task, run it, re-post while work remains.
void help(const std::shared_ptr<Group>& g) {
  const std::size_t i = g->next.fetch_add(1, std::memory_order_relaxed);
  if (i >= g->count) return;  // all claimed: the fan-out may be over
  run_claimed(*g, i, true);
  if (g->next.load(std::memory_order_relaxed) < g->count) (void)post_ticket(g);
}

/// False when the pool refused the ticket (it is stopping); the owner
/// then runs whatever the ticket would have.
bool post_ticket(const std::shared_ptr<Group>& g) {
  try {
    g->pool->post([g] { help(g); });
    return true;
  } catch (...) {
    return false;
  }
}

}  // namespace

std::size_t fan_out(ThreadPool& pool, std::size_t count,
                    const std::function<void(std::size_t index, bool helper)>& task) {
  if (count == 0) return 0;
  const auto g = std::make_shared<Group>(pool, count, task);
  const std::size_t tickets = std::min(pool.size() - 1, count - 1);
  for (std::size_t t = 0; t < tickets; ++t) {
    if (!post_ticket(g)) break;
  }
  for (std::size_t i = g->next.fetch_add(1, std::memory_order_relaxed); i < count;
       i = g->next.fetch_add(1, std::memory_order_relaxed)) {
    run_claimed(*g, i, false);
  }
  // Every index is claimed now; wait for the helpers' claimed tasks.
  for (std::size_t d = g->done.load(std::memory_order_acquire); d != count;
       d = g->done.load(std::memory_order_acquire)) {
    g->done.wait(d, std::memory_order_acquire);
  }
  // Move every error out before returning: the group may die on a
  // helper's thread, and the exceptions must stay on this one.
  std::exception_ptr first;
  for (std::size_t i = 0; i < count; ++i) {
    std::exception_ptr error = std::move(g->errors[i]);
    if (error && !first) first = std::move(error);
  }
  if (first) std::rethrow_exception(first);
  return g->helped.load(std::memory_order_relaxed);
}

std::size_t PoolChunkExecutor::run(std::size_t count, const Task& task) const {
  return fan_out(*pool_, count, [&](std::size_t i, bool) {
    const core::ThreadScratchLease lease;
    task(i, lease.scratch());
  });
}

}  // namespace hyperear::runtime
