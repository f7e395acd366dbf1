#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/expected.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/sdf.hpp"
#include "core/session_workspace.hpp"
#include "dsp/matched_filter.hpp"

/// @file streaming_session.hpp
/// Incremental (chunked) ingest for one localization session.
///
/// The batch pipeline (`core::try_localize`) wants the whole recording up
/// front; a phone streaming audio to a service delivers it in arbitrary
/// slices. `StreamingSession` accepts those slices as they arrive, runs the
/// matched-filter detector ONLINE over a bounded lookback window, and
/// surfaces incremental events (first beacon heard, SDF zero crossings,
/// protocol-phase transitions) while the user is still sliding.
/// `finalize()` then completes the pipeline (SFO fit, MSP, TTL/PLE) and
/// returns a fix that is BIT-IDENTICAL to `core::try_localize` on the
/// concatenated audio — for every chunking — because every stage either
/// runs the batch code verbatim (`detail::localize_from_asp`, `finish_asp`)
/// or a streaming spelling proven equivalent instruction-for-instruction
/// (the detector's stream_begin/chunk/end protocol).
/// tests/test_streaming.cpp holds the property test.
///
/// Memory: a session holds per channel a ring of raw samples reserved once
/// at its bound — one streaming chunk (`streaming_pairs()` OLS pairs: 14180
/// samples by default) plus one ingest slice (4096 samples), about 143 KiB
/// per channel — plus the stitch's staging in its workspace (the echo
/// maxima its deferred candidates still need, and the candidates). `push`
/// appends and detects in bounded slices, so the bound holds for a push of
/// any size, and `retained_samples()` (high-water mark:
/// `peak_retained_samples()`) is a constant independent of how long the
/// user records. The detector's per-chunk working set is not the session's:
/// each push leases the calling thread's core::ChunkScratch, so an idle
/// open session costs no chunk scratch at all.
///
/// Ownership follows the pipeline's context/workspace split: the optional
/// `PipelineContext` is shared immutable plans; the `SessionWorkspace`
/// (caller-leased or session-owned) is single-owner stitch and pass-2
/// staging. A StreamingSession is therefore single-owner too — one thread
/// at a time (runtime::Engine serializes each live session onto its
/// drain task).

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::core {

/// Protocol phase of the measurement, advanced as the detector frontier
/// passes the session prior's time marks (calibration head, stature
/// change). Purely informational — the solve never reads it.
enum class StreamPhase : std::uint8_t {
  calibrating,  ///< static head (SFO material)
  sliding_1,    ///< first-stature slides
  sliding_2,    ///< second-stature slides (two-stature sessions only)
  solving,      ///< finalize() running the back half
  done,         ///< finalize() returned
};

[[nodiscard]] const char* to_string(StreamPhase phase);

/// One incremental event. The event SEQUENCE (kinds, channels, times,
/// payloads, order) is invariant to how the audio was chunked: events
/// derived from detector output are keyed to the detector's streaming
/// chunk schedule, and phase transitions are interleaved by their time
/// mark, not by which push happened to cross it.
struct StreamEvent {
  enum class Kind : std::uint8_t {
    /// First chirp candidate on a channel — the beacon is audible.
    beacon_acquired,
    /// The provisional inter-mic TDoA trace crossed zero (the SDF "you are
    /// now pointing at it" cue). Derived from pass-1 detector candidates,
    /// so it fires DURING the roll, before the global min-spacing pass.
    sdf_zero_cross,
    /// Entered a new protocol phase (`phase` below).
    phase_change,
    /// finalize() produced its result (`fix_valid`, `confidence`).
    fix,
  };

  Kind kind = Kind::beacon_acquired;
  std::size_t channel = 0;  ///< beacon_acquired: which microphone (0/1)
  double time_s = 0.0;      ///< event time in recording seconds
  StreamPhase phase = StreamPhase::calibrating;  ///< phase_change payload
  bool fix_valid = false;                        ///< fix payload
  double confidence = 0.0;                       ///< fix payload, in [0, 1]

  [[nodiscard]] friend bool operator==(const StreamEvent&,
                                       const StreamEvent&) = default;
};

/// Incremental front end of the localization pipeline for ONE session.
///
/// Usage:
///   StreamingSession s(meta, config);           // meta.audio empty
///   while (audio arrives) s.push(mic1, mic2);   // arbitrary slice sizes
///   auto fix = s.finalize(&metrics, obs);       // == try_localize(batch)
///
/// `meta` carries everything but the audio samples (prior, IMU, scenario
/// config, audio sample rate); its audio channels must be empty — samples
/// arrive through `push`. Events accumulate in `events()`; a caller
/// consuming them live can track its own cursor into the vector.
class StreamingSession {
 public:
  /// `context`: optional shared plans (must match `config.asp` + the
  /// session's chirp + rate to be used; a mismatched or null context means
  /// session-local plans, exactly like the batch path). `workspace`:
  /// optional caller-leased scratch (null: the session owns a private
  /// one); must outlive the session. Plan-construction failure is NOT
  /// thrown here — it is remembered and classified as an asp-stage error
  /// by `finalize`, exactly where the batch path would fail.
  explicit StreamingSession(sim::Session meta, PipelineConfig config = {},
                            std::shared_ptr<const PipelineContext> context = nullptr,
                            SessionWorkspace* workspace = nullptr,
                            SdfOptions sdf = {});

  StreamingSession(const StreamingSession&) = delete;
  StreamingSession& operator=(const StreamingSession&) = delete;

  /// Ingest one stereo slice (equal lengths; empty is a no-op). Detects,
  /// and appends events for, everything that became final. Invalid
  /// after `finalize`.
  void push(std::span<const double> mic1, std::span<const double> mic2);

  /// End of audio: flush the detector tail, assemble the AspResult, and
  /// run the pipeline's back half. Return value, error
  /// classification, StageMetrics shape, and registry/trace telemetry all
  /// match `core::try_localize(session_with_full_audio, config, ...)`.
  /// Appends the terminal phase_change/fix events. Call at most once.
  [[nodiscard]] Expected<LocalizationResult, PipelineError> finalize(
      StageMetrics* metrics = nullptr, const obs::ObsContext* obs = nullptr);

  [[nodiscard]] const std::vector<StreamEvent>& events() const { return events_; }
  [[nodiscard]] StreamPhase phase() const { return phase_; }
  [[nodiscard]] std::size_t samples_ingested() const { return total_; }
  /// Audio samples currently held across both channels (the detector
  /// window) — the streaming memory footprint.
  [[nodiscard]] std::size_t retained_samples() const;
  [[nodiscard]] std::size_t peak_retained_samples() const { return peak_retained_; }
  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const sim::Session& meta() const { return meta_; }

 private:
  struct Channel {
    /// Samples [ring_start, ...); capacity reserved once, at the retention
    /// bound.
    std::vector<double> ring;
    std::size_t ring_start = 0;     ///< recording index of ring[0]
    dsp::DetectorStream stream;     ///< resumable detector cursor
    std::size_t candidates_seen = 0;  ///< consumed prefix of ws candidates
    std::size_t next_lag = 0;         ///< candidates below this lag are consumed
    std::vector<double> arrivals;     ///< provisional arrival times (pass-1 basis)
  };

  /// Samples per channel that `push` appends before it runs the detector
  /// again: the retention bound's in-flight term.
  static constexpr std::size_t kIngestSlice = 4096;

  static void append(Channel& ch, std::span<const double> slice);
  /// Run every streaming-schedule chunk that is certainly full and
  /// non-final; with `drain_all` (the length is known), every remaining
  /// chunk through the final one. Chunk passes run on
  /// `scratch`, the calling thread's; only the stitch touches the session.
  void run_detector(bool drain_all, ChunkScratch& scratch);
  /// Consume newly stitched pass-1 candidates of one channel into events.
  void collect_candidates(std::size_t slot, Channel& ch);
  /// Emit sdf_zero_cross events that can no longer change, or (at
  /// finalize) all remaining ones.
  void scan_zero_crossings(bool final_pass);
  /// Emit phase transitions whose time mark the frontier passed.
  void advance_phase(std::size_t frontier_samples);
  void note_retained();

  sim::Session meta_;
  PipelineConfig config_;
  SdfOptions sdf_;
  std::shared_ptr<const PipelineContext> shared_context_;
  /// The plans in use (shared or session-built); null iff construction
  /// failed (then ctx_error_ holds why).
  const PipelineContext* context_ = nullptr;
  std::optional<PipelineContext> local_context_;
  std::exception_ptr ctx_error_;
  std::unique_ptr<SessionWorkspace> owned_workspace_;
  SessionWorkspace* ws_ = nullptr;

  Channel channels_[2];
  std::size_t total_ = 0;          ///< raw samples pushed per channel
  std::size_t next_chunk_start_ = 0;  ///< shared detector schedule cursor
  double asp_ms_ = 0.0;            ///< detect wall time across pushes

  std::vector<StreamEvent> events_;
  StreamPhase phase_ = StreamPhase::calibrating;
  std::vector<TdoaSample> tdoa_scratch_;  ///< zero-cross pairing scratch
  std::size_t crossing_cursor_ = 1;       ///< next TDoA index to scan
  double slide1_mark_s_ = 0.0;            ///< calibration -> sliding_1 time
  double slide2_mark_s_ = 0.0;            ///< sliding_1 -> sliding_2 time (3D)

  std::size_t peak_retained_ = 0;
  bool finalized_ = false;
};

}  // namespace hyperear::core
