#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "common/expected.hpp"
#include "common/math_util.hpp"
#include "core/pipeline.hpp"

/// @file pipeline_detail.hpp
/// The seams that let the batch pipeline and the incremental ingest path
/// (core/streaming_session.hpp) run one implementation: the ASP stage with
/// its plan and scratch resolution, the one ASP schedule walker
/// (`AspSchedule`: head chunks, then gates or the fallback chunks, which
/// both paths step), the ASP tail after the last stitched chunk or gate,
/// and the session shell around the stages. Not a stable public surface —
/// batch callers use `try_localize` / `preprocess_audio`; these exist so
/// the streamed and batch spellings cannot drift.

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::dsp {
class MatchedFilterDetector;
}

namespace hyperear::core::detail {

/// The plan rule of every ASP spelling: `context` when it was built for
/// exactly `options`, `chirp` and `sample_rate`, otherwise one built into
/// `local` for them (which throws when no plan can be built). Plans built
/// either way are bit-identical.
const PipelineContext& resolve_context(const PipelineContext* context,
                                       const AspOptions& options,
                                       const dsp::ChirpParams& chirp,
                                       double sample_rate,
                                       std::optional<PipelineContext>& local);

/// Throw PreconditionError `preprocess_audio: <channel> sample <i> is not
/// finite` for the first NaN or infinity of `x`, whose first sample is
/// recording index `offset`. One branch-free pass when every sample is
/// finite.
void require_finite(std::span<const double> x, const char* channel, std::size_t offset);

/// One-pair chunks of the full-search head: the fewest whose lags cover
/// max(min_calibration_events, 2) nominal periods (4 chunks, 1.09 s, with
/// the defaults). SIZE_MAX — the whole recording is head — when the
/// nominal period is not a positive period of at least 2 * gate half
/// width + 3 + min-spacing lags, the shortest one whose gates never meet
/// under the min-spacing rule.
[[nodiscard]] std::size_t head_chunks(const dsp::MatchedFilterDetector& detector,
                                      const AspOptions& options, double nominal_period);

/// The ASP stage's one pass schedule (DESIGN.md §9 "Beacon-gated ASP"):
/// the full search over the head's `head_chunks` chunks, then the beacon
/// gates the head's arrivals plan the moment its last chunk is stitched,
/// or the remaining chunks when they plan none (the fallback). Batch
/// `run_asp` steps it once over the whole recording; a `StreamingSession`
/// steps it after every ingest slice and at `finalize`. Constructing it
/// begins both channels' detector streams in `workspace`; `context` and
/// `workspace` must outlive it, and the workspace's AspWork counts what
/// it runs.
class AspSchedule {
 public:
  /// Called after each pass is stitched into both channels, with the
  /// first recording sample the pass did not read, before the schedule
  /// plans anything on the stitched candidates.
  using PassHook = std::function<void(std::size_t frontier)>;

  AspSchedule(const PipelineContext& context, SessionWorkspace& workspace,
              double nominal_period);

  /// Run every ready pass over `mic1` and `mic2`, which hold recording
  /// samples [offset, offset + size) of the `total` received so far, from
  /// `keep()` on. Before the stream has `ended` the schedule is laid over
  /// the `total` samples, and a pass is ready unless it is the last of
  /// that schedule: it is then complete and certainly not the recording's
  /// last, exactly as the schedule over the true length says. Once
  /// `ended`, every remaining pass is ready. Ready passes run in rounds on
  /// `executor` (2 chunk tasks per chunk, a gate task per two gates), their
  /// results staged in the workspace, and each is stitched in schedule
  /// order, followed by `on_pass`.
  void step(std::span<const double> mic1, std::span<const double> mic2,
            std::size_t offset, std::size_t total, bool ended,
            const ChunkExecutor& executor, const PassHook& on_pass = {});

  /// The lowest recording sample any remaining pass reads.
  [[nodiscard]] std::size_t keep() const;
  /// Whether the head planned gates, so every remaining pass is a gate.
  [[nodiscard]] bool gated() const { return line_.has_value(); }

 private:
  /// Fit the gate line to the head's stitched candidates, or fall back.
  void plan();

  const PipelineContext* context_;
  SessionWorkspace* workspace_;
  double nominal_period_;
  std::size_t head_;            ///< head_chunks of the session
  std::size_t next_chunk_ = 0;  ///< next chunk of the detector's schedule
  std::size_t next_gate_ = 0;   ///< next gate of the planned line
  bool planned_ = false;        ///< the head's last chunk was stitched and planned
  /// Once gated: the head's fitted arrival lag against chirp index.
  std::optional<LineFit> line_;
  std::size_t first_gate_ = 0;  ///< chirp index of gate 0
};

/// The one ASP implementation behind both `preprocess_audio` spellings and
/// `try_localize`. Plans come from `resolve_context` with the recording's
/// sample rate, so a plan that cannot be built fails inside the caller's
/// asp stage. A null `workspace` means a call-local one, a null `executor`
/// serial chunk tasks. The AspResult is byte-identical for every
/// combination.
[[nodiscard]] AspResult run_asp(const sim::StereoRecording& recording,
                                const dsp::ChirpParams& chirp, double nominal_period,
                                double calibration_duration, const AspOptions& options,
                                const PipelineContext* context,
                                SessionWorkspace* workspace,
                                const ChunkExecutor* executor,
                                const obs::ObsContext* obs);

/// ASP after each channel's last chunk or gate is stitched into
/// `workspace`: end the channel's detector stream (pass 2, the amplitude
/// gate, detector telemetry), convert its detections to the result's
/// events, fit the SFO (`finish_asp`), and record the session's
/// `AspWork` counts. The batch stage and `StreamingSession::finalize`
/// both end here, so their AspResults are bit-identical.
[[nodiscard]] AspResult end_asp(const PipelineContext& context,
                                SessionWorkspace& workspace, double nominal_period,
                                double calibration_duration,
                                const obs::ObsContext* obs);

/// The session shell shared by `try_localize` and
/// `StreamingSession::finalize`: the root "session" span, config
/// validation, the "asp" span around `asp_stage` with anything it throws
/// classified as an asp-stage error, MSP and the TTL (2D) or PLE (3D)
/// solve chosen by the session prior, the `pipeline.*` registry updates
/// for the outcome, and the StageMetrics sink, written on every path up to
/// the stage that failed. `carried_asp_ms` is ASP wall time spent before
/// the call (a stream's detection during its pushes); the stage's own is
/// added to it.
[[nodiscard]] Expected<LocalizationResult, PipelineError> run_session(
    const sim::Session& session, const PipelineConfig& config, double carried_asp_ms,
    const std::function<AspResult()>& asp_stage, StageMetrics* metrics,
    const obs::ObsContext* obs);

}  // namespace hyperear::core::detail
