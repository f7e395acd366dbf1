#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dsp/matched_filter.hpp"

/// @file parallel.hpp
/// The execution seam between the core pipeline and whatever thread
/// infrastructure the host runtime owns.
///
/// The ASP stage splits into independent tasks: each round of the one ASP
/// schedule walker (`detail::AspSchedule`, which batch sessions step once
/// and live streams step per ingest slice) runs (channel, detector-chunk)
/// tasks, each the detector's chunk-local pass over one chunk of one
/// microphone channel, or beacon-gate tasks over both channels. Each
/// reads shared immutable plans and the samples and writes its own
/// result slot in the session's workspace. core cannot depend on runtime (the
/// library layering is common -> ... -> core -> runtime), and spawning
/// threads inside the pipeline would fight the runtime's own pool sizing.
/// `ChunkExecutor` inverts the dependency: core states *what* can run
/// concurrently, the runtime decides *where* (runtime::Engine fans the
/// tasks out over idle pool workers; everyone else, live streams included,
/// runs them serially).

namespace hyperear::core {

/// Scratch for one ASP chunk or gate pass: the detector's per-chunk buffers
/// (FFT lanes, raw correlation, peak lags, prefix sums); the pass reads
/// the samples in place and writes its result to the session's workspace.
/// It belongs to the thread that runs the pass, not to the session, so
/// memory is threads x one chunk's working set however many sessions are
/// open. Contents carry no information between passes; only capacity is
/// retained.
struct ChunkScratch {
  dsp::DetectorWorkspace detector;  ///< per-chunk detector scratch
};

/// Exclusive use of the calling thread's ChunkScratch for the lease's
/// lifetime. Every chunk pass in the library runs on one: the pool
/// executor takes one per task, the serial executor one per round. Each
/// thread owns exactly one scratch, created on its first lease and freed
/// when the thread exits. A second lease on the same thread while one is
/// live would hand two passes the same buffers; checked builds fail that
/// precondition loudly (DESIGN.md §11) instead.
class ThreadScratchLease {
 public:
  ThreadScratchLease();
  ~ThreadScratchLease();
  ThreadScratchLease(const ThreadScratchLease&) = delete;
  ThreadScratchLease& operator=(const ThreadScratchLease&) = delete;

  [[nodiscard]] ChunkScratch& scratch() const;

 private:
  struct State;
  /// The calling thread's state: a function-local thread_local.
  static State& this_thread();

  State* state_;
};

/// Runs a batch of independent tasks, possibly concurrently. `run` calls
/// task(i, scratch) exactly once for every i in [0, count) and returns when
/// all calls have returned, with `scratch` exclusive to that call for its
/// duration. Tasks may run in any order and on any threads. When tasks
/// throw, tasks not yet started may be skipped, and `run` rethrows the
/// exception of the lowest-index failing task once every started task has
/// finished; the serial and pool executors start tasks in index order, so
/// that exception is a function of the inputs alone. Returns the number of
/// tasks that ran on a thread other than the caller's. The library's
/// executors hand each task the scratch of the thread running it and are
/// safe to invoke from several threads at once.
class ChunkExecutor {
 public:
  using Task = std::function<void(std::size_t index, ChunkScratch& scratch)>;

  virtual ~ChunkExecutor() = default;
  virtual std::size_t run(std::size_t count, const Task& task) const = 0;
};

/// The default policy: run the tasks on the calling thread, in index
/// order, on that thread's scratch. The first throwing task ends the run —
/// it is the lowest-index failure by construction.
class SerialChunkExecutor final : public ChunkExecutor {
 public:
  std::size_t run(std::size_t count, const Task& task) const override {
    const ThreadScratchLease lease;
    for (std::size_t i = 0; i < count; ++i) task(i, lease.scratch());
    return 0;
  }
};

}  // namespace hyperear::core
