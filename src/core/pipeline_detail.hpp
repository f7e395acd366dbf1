#pragma once

#include <functional>
#include <optional>

#include "common/expected.hpp"
#include "core/pipeline.hpp"

/// @file pipeline_detail.hpp
/// The seams that let the batch pipeline and the incremental ingest path
/// (core/streaming_session.hpp) run one implementation: the ASP stage with
/// its plan and scratch resolution, the ASP tail after the last stitched
/// chunk, and the session shell around the stages. Not a stable public
/// surface — batch callers use `try_localize` / `preprocess_audio`; these
/// exist so the streamed and batch spellings cannot drift.

namespace hyperear::obs {
struct ObsContext;
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

/// ASP after each channel's last chunk is stitched into `workspace`: end
/// the channel's detector stream (pass 2, the amplitude gate, detector
/// telemetry), convert its detections to the result's events, then fit
/// the SFO (`finish_asp`). The batch stage and `StreamingSession::finalize`
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
