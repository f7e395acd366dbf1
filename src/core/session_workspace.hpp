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
/// run — the ASP chunk- and gate-pass results, per-channel detector streams
/// and detection staging, and an arena for per-session transients — and is
/// therefore single-owner: one workspace per session in flight
/// (runtime::WorkspacePool hands each engine worker an exclusive lease).
/// The ASP fan-out's helper threads touch only their own task's result
/// slot, and only while the owning session waits for them. Buffer
/// contents carry no information between sessions; only capacity is
/// retained, so a warmed workspace makes the steady-state batch path
/// allocation-free while results stay bit-identical to a fresh one — and
/// to the context-free path, which simply builds a call-local workspace.
///
/// Chunk scratch (the detector's per-chunk buffers, ~0.5 MiB at the
/// one-pair chunk) is not here: it belongs to the thread that runs the
/// chunk pass (core::ThreadScratchLease), for batch and streaming sessions
/// alike. A workspace therefore never holds a chunk's working set — the
/// per-chunk members of its detector slots stay empty — and a session that
/// is open but idle costs only its staging.

namespace hyperear::core {

/// Per-channel detection state of the ASP stage: the detector stream's
/// cursor, the stitch's candidate list and the detections of one
/// microphone. The pipeline leaves the detector's per-chunk members (fft
/// through prefix, pass) empty.
struct ChannelWorkspace {
  /// Band-passed whole channel. The pipeline never fills it (ASP runs no
  /// band-pass); it exists only for perfbench's probe, which still times a
  /// band-pass row with `dsp::filter_same_into` and
  /// `PipelineContext::bandpass_convolver`, until that row is retired.
  std::vector<double> filtered;
  /// The channel's detector cursor: a batch run stitches a whole session
  /// through it, a StreamingSession one chunk per push.
  dsp::DetectorStream stream;
  dsp::DetectorWorkspace detector;         ///< stitch and pass-2 staging
  std::vector<dsp::Detection> detections;  ///< detector output staging
};

/// The ASP stage's deterministic work counts for one session, recorded by
/// `detail::end_asp`: the same on the batch and streaming paths.
struct AspWork {
  /// Correlation lags scanned, summed over both channels: the lags of every
  /// chunk, and of every gate window (the gate lags and their neighbours).
  std::size_t correlated_lags = 0;
  std::size_t gates = 0;   ///< beacon gates run (each covers both channels)
  bool fallback = false;   ///< the head gave no schedule: full search after it
  std::size_t tasks = 0;         ///< executor tasks run (batch telemetry only)
  std::size_t helped_tasks = 0;  ///< of them, tasks a helper thread ran
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

  /// The chunk-pass results of one round of the ASP schedule, one per
  /// (channel, chunk) task, channel-major in schedule order. Grown to the
  /// largest round, never shrunk, so warm sessions reuse their capacity.
  [[nodiscard]] std::vector<dsp::ChunkPass>& chunk_passes() { return chunk_passes_; }

  /// The gate results of one round of the ASP schedule, one per beacon
  /// gate in schedule order; grown like `chunk_passes`.
  [[nodiscard]] std::vector<dsp::GatePass>& gate_passes() { return gate_passes_; }

  /// This session's ASP work counts, zeroed by `reset`.
  [[nodiscard]] AspWork& asp_work() { return asp_work_; }

  /// Bump allocator for per-session transients (e.g. the SFO fit's scratch
  /// series): allocation is a pointer bump, and `reset` recycles the whole
  /// region for the next session without returning memory to the heap.
  [[nodiscard]] MonotonicArena& arena() { return arena_; }

  /// Start-of-session rewind: recycles the arena and zeroes the work
  /// counts. Called by the pipeline itself — callers only reset explicitly
  /// to reclaim nothing-in-flight state in tests. Channel buffers need no
  /// reset; every element is overwritten before it is read.
  void reset() {
    arena_.reset();
    asp_work_ = {};
  }

 private:
  std::array<ChannelWorkspace, kChannels> channels_;
  std::vector<dsp::ChunkPass> chunk_passes_;
  std::vector<dsp::GatePass> gate_passes_;
  AspWork asp_work_;
  MonotonicArena arena_;
};

}  // namespace hyperear::core
