#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "dsp/matched_filter.hpp"

/// @file parallel.hpp
/// The execution seam between the core pipeline and whatever thread
/// infrastructure the host runtime owns.
///
/// The ASP stage splits into independent (channel, detector-chunk) tasks:
/// each band-passes one chunk window of one microphone channel and runs the
/// detector's chunk-local pass over it, reading shared immutable plans and
/// writing its own result slot. core cannot depend on runtime (the library
/// layering is common -> ... -> core -> runtime), and spawning threads
/// inside the pipeline would fight the runtime's own pool sizing.
/// `ChunkExecutor` inverts the dependency: core states *what* can run
/// concurrently, the runtime decides *where* (runtime::BatchEngine fans the
/// tasks out over idle pool workers; everyone else runs them serially).

namespace hyperear::core {

/// Scratch for one ASP chunk task: the band-passed chunk window and the
/// detector's per-chunk buffers (FFT lanes, raw correlation, echo index,
/// prefix sums). It belongs to the thread that executes the task, not to
/// the session, so a pool needs one per worker however many sessions are
/// in flight. Contents carry no information between tasks; only capacity
/// is retained.
struct ChunkScratch {
  std::vector<double> window;       ///< band-passed chunk
  dsp::DetectorWorkspace detector;  ///< per-chunk detector scratch
};

/// Runs a batch of independent tasks, possibly concurrently. `run` calls
/// task(i, scratch) exactly once for every i in [0, count) and returns when
/// all calls have returned, with `scratch` exclusive to that call for its
/// duration. Tasks may run in any order and on any threads. When tasks
/// throw, tasks not yet started may be skipped, and `run` rethrows the
/// exception of the lowest-index failing task once every started task has
/// finished; the serial and pool executors start tasks in index order, so
/// that exception is a function of the inputs alone. Returns the number of
/// tasks that ran on a thread other than the caller's. A pool-backed
/// implementation is safe to invoke from several threads at once;
/// SerialChunkExecutor borrows one scratch and is as single-owner as the
/// workspace that scratch comes from.
class ChunkExecutor {
 public:
  using Task = std::function<void(std::size_t index, ChunkScratch& scratch)>;

  virtual ~ChunkExecutor() = default;
  virtual std::size_t run(std::size_t count, const Task& task) const = 0;
};

/// The default policy: run the tasks on the calling thread, in index
/// order, all on one scratch. The first throwing task ends the run — it is
/// the lowest-index failure by construction.
class SerialChunkExecutor final : public ChunkExecutor {
 public:
  explicit SerialChunkExecutor(ChunkScratch& scratch) : scratch_(&scratch) {}

  std::size_t run(std::size_t count, const Task& task) const override {
    for (std::size_t i = 0; i < count; ++i) task(i, *scratch_);
    return 0;
  }

 private:
  ChunkScratch* scratch_;
};

}  // namespace hyperear::core
