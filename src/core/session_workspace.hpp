#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "dsp/matched_filter.hpp"

/// @file session_workspace.hpp
/// The mutable counterpart of core::PipelineContext: everything a pipeline
/// run scribbles on that is worth keeping warm between sessions.
///
/// The context/workspace split is the pipeline's ownership model. A
/// `PipelineContext` is deeply immutable and shared read-only by any number
/// of concurrent runs; a `SessionWorkspace` is all the mutable state of one
/// run — the ASP chunk-task list and per-task results, per-channel
/// detection staging, and an arena for per-session transients — and is
/// therefore single-owner: one workspace per session in flight
/// (runtime::WorkspacePool hands each engine worker an exclusive lease).
/// The ASP fan-out's helper threads touch only their own task's result
/// slot, and only while the owning session waits for them. Buffer
/// contents carry no information between sessions; only capacity is
/// retained, so a warmed workspace makes the steady-state batch path
/// allocation-free while results stay bit-identical to a fresh one — and
/// to the context-free path, which simply builds a call-local workspace.
///
/// Chunk scratch (the band-passed window and the detector's per-chunk
/// buffers, ~4 MiB at the batch chunk) is not here: it belongs to the
/// thread that runs the chunk pass (core::ThreadScratchLease), for batch
/// and streaming sessions alike. A workspace therefore never holds a
/// chunk's working set — the per-chunk members of its detector slots stay
/// empty — and a session that is open but idle costs only its staging.

namespace hyperear::core {

/// Per-channel detection staging of the ASP stage: the stitch's candidate
/// list and the detections of one microphone. The pipeline leaves the
/// detector's per-chunk members (fft through prefix, pass) empty.
struct ChannelWorkspace {
  /// Band-passed whole channel. The pipeline no longer fills it (chunk
  /// tasks band-pass their own windows); it stays for callers that replay
  /// the stage call by call with `dsp::filter_same_into`.
  std::vector<double> filtered;
  dsp::DetectorWorkspace detector;         ///< stitch and pass-2 staging
  std::vector<dsp::Detection> detections;  ///< detector output staging
};

/// One task of the ASP fan-out: band-pass one detector chunk of one
/// channel and run the detector's chunk-local pass over it.
struct AspChunkTask {
  std::size_t channel = 0;
  dsp::ChunkSpan span;
};

/// Reusable per-worker state for the canonical pipeline entry points
/// (`core::try_localize`, `core::preprocess_audio`). Default-constructed it
/// owns nothing; the first session grows every buffer to the session's
/// working-set size and subsequent sessions of similar length allocate
/// nothing. Non-copyable by composition (the arena is pinned), which also
/// rules out accidental by-value sharing.
class SessionWorkspace {
 public:
  static constexpr std::size_t kChannels = 2;

  [[nodiscard]] ChannelWorkspace& channel(std::size_t index) {
    HE_EXPECTS(index < kChannels);
    return channels_[index];
  }

  /// The ASP stage's task list, channel-major in schedule order.
  [[nodiscard]] std::vector<AspChunkTask>& asp_tasks() { return asp_tasks_; }
  /// Per-task chunk-pass results, parallel to `asp_tasks()`.
  [[nodiscard]] std::vector<dsp::ChunkPass>& chunk_passes() { return chunk_passes_; }

  /// Bump allocator for per-session transients (e.g. the SFO fit's scratch
  /// series): allocation is a pointer bump, and `reset` recycles the whole
  /// region for the next session without returning memory to the heap.
  [[nodiscard]] MonotonicArena& arena() { return arena_; }

  /// Start-of-session rewind: recycles the arena. Called by the pipeline
  /// itself — callers only reset explicitly to reclaim nothing-in-flight
  /// state in tests. Channel buffers need no reset; every element is
  /// overwritten before it is read.
  void reset() { arena_.reset(); }

 private:
  std::array<ChannelWorkspace, kChannels> channels_;
  std::vector<AspChunkTask> asp_tasks_;
  std::vector<dsp::ChunkPass> chunk_passes_;
  MonotonicArena arena_;
};

}  // namespace hyperear::core
