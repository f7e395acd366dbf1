#pragma once

#include <cstddef>
#include <functional>

#include "core/parallel.hpp"
#include "runtime/thread_pool.hpp"

/// @file fan_out.hpp
/// Intra-session parallelism over idle pool workers: the runtime side of
/// core::ChunkExecutor (DESIGN.md §8).
///
/// The caller (the owner: a worker running a session) claims task indices
/// from an atomic counter and runs them itself. Alongside, it posts up to
/// pool.size() - 1 helper tickets. A ticket that some idle worker dequeues
/// claims ONE task, runs it, and re-posts itself while unclaimed tasks
/// remain, so a request arriving mid-fan-out waits behind at most one task
/// per busy helper, never behind a whole session. At saturation the
/// tickets sit behind queued sessions and find every task claimed by the
/// time they run: the owner has done the work serially, at the cost of a
/// few queue operations.
///
/// Liveness: the owner never runs foreign work and never waits for a task
/// that nobody has claimed; it waits only for claimed tasks, which are
/// running. Tickets share ownership of the group state, so a ticket
/// dequeued after the fan-out returned claims nothing and touches nothing
/// but that state. A pool that refuses a post (it is stopping) leaves the
/// remaining tasks to the owner.
///
/// Lock-free: the group is atomics only (the pool's own queue lock is
/// taken inside post), so fan_out holds no lock of the hierarchy
/// (DESIGN.md §14) and must not be called while holding one at or below
/// the `pool` level.

namespace hyperear::runtime {

/// Run task(i, helper) exactly once for every i in [0, count): on the
/// calling thread (helper = false) and on idle workers of `pool` (helper =
/// true). Returns when every task has finished, with the number of tasks
/// the helpers ran. A task's exception is kept in its own slot; once all
/// tasks finished, the exception of the lowest-index failing task is
/// rethrown. Safe to call from many threads at once, including from the
/// pool's own workers.
std::size_t fan_out(ThreadPool& pool, std::size_t count,
                    const std::function<void(std::size_t index, bool helper)>& task);

/// core::ChunkExecutor over fan_out. Every task runs on the scratch of
/// the thread that runs it (core::ThreadScratchLease), owner and helpers
/// alike. The pool must outlive the executor.
class PoolChunkExecutor final : public core::ChunkExecutor {
 public:
  explicit PoolChunkExecutor(ThreadPool& pool) : pool_(&pool) {}

  std::size_t run(std::size_t count, const Task& task) const override;

 private:
  ThreadPool* pool_;
};

}  // namespace hyperear::runtime
