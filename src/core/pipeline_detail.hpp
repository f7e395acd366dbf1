#pragma once

#include <cmath>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>

#include "common/expected.hpp"
#include "core/pipeline.hpp"

/// @file pipeline_detail.hpp
/// The seams that let the batch pipeline and the incremental ingest path
/// (core/streaming_session.hpp) run one implementation: the ASP stage with
/// its plan and scratch resolution, the beacon-gated schedule, the ASP tail
/// after the last stitched chunk or gate, and the session shell around the
/// stages. Not a stable public
/// surface — batch callers use `try_localize` / `preprocess_audio`; these
/// exist so the streamed and batch spellings cannot drift.

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

/// Gate lags [lo, hi] of one beacon gate; `final_gate` when hi is the
/// recording's last lag, so the gate has no right neighbour lag.
struct GateSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool final_gate = false;
};

/// Where beacon-gated ASP searches after the head (DESIGN.md §9): the
/// head's mic1 arrivals fitted against their chirp indices (estimate_period's
/// rule), in lags. Gate j is centred on the arrival the line predicts for
/// chirp index first + j and reaches half_width lags to each side, clipped
/// below to `begin` (the head's last lag) and above to the recording.
struct GateSchedule {
  double intercept = 0.0;      ///< fitted arrival lag of chirp index 0
  double slope = 0.0;          ///< fitted beacon period, lags
  std::size_t first = 0;       ///< chirp index of gate 0
  std::size_t begin = 0;       ///< lowest gate lag: the head's last lag
  std::size_t half_width = 0;  ///< MatchedFilterDetector::gate_half_width()

  /// Centre lag of gate j, the fitted arrival of chirp index first + j.
  [[nodiscard]] double centre(std::size_t j) const {
    return std::round(intercept + static_cast<double>(first + j) * slope);
  }
  /// First lag of gate j: whatever the recording's length.
  [[nodiscard]] std::size_t lo(std::size_t j) const;
  /// Gate j of a recording of `lags` correlation lags; nullopt when it
  /// begins past the last lag.
  [[nodiscard]] std::optional<GateSpan> gate(std::size_t j, std::size_t lags) const;
};

/// One-pair chunks of the full-search head: the fewest whose lags cover
/// max(min_calibration_events, 2) nominal periods (4 chunks, 1.09 s, with
/// the defaults). SIZE_MAX — the whole recording is head — when the
/// nominal period is not a positive period of at least 2 * gate half
/// width + 3 + min-spacing lags, the shortest one whose gates never meet
/// under the min-spacing rule.
[[nodiscard]] std::size_t head_chunks(const dsp::MatchedFilterDetector& detector,
                                      const AspOptions& options, double nominal_period);

/// The gate schedule after the head's chunks [0, head_end lags) are
/// stitched into `workspace`: fit the arrivals that stream_end's rules
/// select from channel 0's head candidates. nullopt — the caller falls
/// back to the full search — when fewer than max(min_calibration_events,
/// 2) arrivals were selected, or the fitted period leaves (0.5, 1.5) times
/// the nominal one or is too short to gate.
[[nodiscard]] std::optional<GateSchedule> plan_gates(const PipelineContext& context,
                                                     SessionWorkspace& workspace,
                                                     double nominal_period,
                                                     std::size_t head_end);

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
