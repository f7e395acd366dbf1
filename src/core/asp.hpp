#pragma once

#include <vector>

#include "dsp/chirp.hpp"
#include "sim/acoustic_renderer.hpp"

/// @file asp.hpp
/// Acoustic Signal Preprocessing (paper Section III, "ASP"). Two jobs:
///
///  1. detect chirp arrivals at each microphone with sub-sample resolution
///     (matched filter + interpolation). The paper band-passes the
///     recording to the chirp band first; here the matched filter, which
///     correlates against the known 2-6.4 kHz chirp, is the band selection
///     (out-of-band sound such as voice < 2 kHz barely correlates with it;
///     EXPERIMENTS.md measures the FIR's absence down to -9 dB SNR);
///  2. estimate and correct the sampling-frequency offset (SFO) between the
///     speaker's clock and the phone's clock — the augmented TDoA subtracts
///     n * T, so a ppm-level period error scales with the elapsed chirp
///     count and must be measured from the data. The static calibration
///     head of the session provides arrivals whose spacing is exactly the
///     beacon period as seen by the phone clock.

namespace hyperear {
class MonotonicArena;
}

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::dsp {
struct Detection;
}

namespace hyperear::core {

/// One detected chirp arrival at a microphone.
struct ChirpEvent {
  double time_s = 0.0;     ///< arrival of the chirp start, phone-clock seconds
  double score = 0.0;      ///< normalized correlation
  double amplitude = 0.0;  ///< raw matched-filter amplitude (NLoS diagnostics)
  double echo_competition = 0.0;  ///< runner-up arrival ratio (NLoS cue)
};

/// ASP configuration (defaults reproduce the paper's pipeline).
/// Equality-comparable so a `PipelineContext` can tell whether its cached
/// DSP plans were built for these exact options.
struct AspOptions {
  double detector_threshold = 0.22;
  double min_event_spacing_s = 0.12;
  bool sfo_correction = true;
  /// Minimum calibration-head events needed for an SFO estimate.
  std::size_t min_calibration_events = 5;

  [[nodiscard]] friend bool operator==(const AspOptions&, const AspOptions&) = default;
};

/// Output of ASP.
struct AspResult {
  std::vector<ChirpEvent> mic1;
  std::vector<ChirpEvent> mic2;
  double estimated_period = 0.2;  ///< T-hat in phone-clock seconds
  double sfo_ppm = 0.0;           ///< (T-hat / nominal - 1) * 1e6
  bool sfo_estimated = false;     ///< false -> nominal period was used
};

class PipelineContext;
class ChunkExecutor;
class SessionWorkspace;

/// Run ASP on a stereo recording — the canonical spelling. `nominal_period`
/// is the beacon's advertised chirp period; `calibration_duration` the
/// static head of the session used for the SFO fit.
///
/// `context` (core/pipeline_context.hpp) is the immutable plan cache the
/// stage reads: chirp reference, matched-filter spectra. Its AspOptions and
/// ChirpParams are authoritative — the context IS the configuration. A
/// context built for a different sample rate than the recording's triggers
/// a session-local rebuild (same options, right rate), so results never
/// silently depend on a stale cache.
///
/// `workspace` (core/session_workspace.hpp) is the mutable counterpart:
/// the chunk-task list and results, per-channel detection staging and the
/// per-session arena, reset on entry and reusable across sessions. A
/// warmed workspace makes the stage allocation-free in the steady state;
/// results are bit-identical to a fresh one.
///
/// The stage runs as (channel, detector-chunk) tasks — each runs the
/// detector's chunk-local pass over one chunk of raw samples — followed by
/// a serial stitch per channel in chunk order. `executor`
/// (core/parallel.hpp) runs the tasks; null runs them serially on the
/// workspace's scratch. The AspResult is byte-identical for every executor,
/// since the tasks share no mutable state and the stitch is serial.
///
/// `obs` (obs/trace.hpp) optionally receives stage telemetry (detector
/// counters, chunk-task counts, SFO-estimate outcomes) on its registry.
/// Null records nothing; the AspResult is byte-identical either way.
[[nodiscard]] AspResult preprocess_audio(const sim::StereoRecording& recording,
                                         double nominal_period,
                                         double calibration_duration,
                                         const PipelineContext& context,
                                         SessionWorkspace& workspace,
                                         const obs::ObsContext* obs = nullptr,
                                         const ChunkExecutor* executor = nullptr);

/// Context-free wrapper over the canonical spelling (one implementation —
/// this forwards, it does not duplicate): builds a session-local context
/// when `context` is null or was built for different options/chirp/rate,
/// and a call-local workspace, so results never depend on whether a cache
/// was supplied. The chunk tasks run serially.
[[nodiscard]] AspResult preprocess_audio(const sim::StereoRecording& recording,
                                         const dsp::ChirpParams& chirp,
                                         double nominal_period,
                                         double calibration_duration,
                                         const AspOptions& options = {},
                                         const PipelineContext* context = nullptr,
                                         const obs::ObsContext* obs = nullptr);

/// Estimate the beacon period as seen by the phone clock from arrivals of a
/// static interval: robust line fit of arrival time against chirp index
/// (indices recovered by rounding gaps to the nominal period). Throws
/// DetectionError when fewer than `min_events` arrivals are available.
[[nodiscard]] double estimate_period(const std::vector<ChirpEvent>& events,
                                     double nominal_period, double window_end,
                                     std::size_t min_events);

/// Convert raw matched-filter detections to ChirpEvents (clears `out`).
/// The per-channel half of ASP that `preprocess_audio` runs after
/// detection; public so an incremental ingest path (core::StreamingSession)
/// can assemble the same AspResult from streamed detections.
void convert_chirp_events(const std::vector<dsp::Detection>& detections,
                          std::vector<ChirpEvent>& out);

/// The post-detection half of ASP: given `result` with its per-mic event
/// lists already filled, run the SFO estimate over the calibration head
/// (exactly as `preprocess_audio` does — per-mic fits averaged, falling
/// back to the nominal period when neither mic has enough arrivals) and
/// record the stage's SFO telemetry on `obs`. `arena` backs the fit's
/// scratch series. Public for the same reason as `convert_chirp_events`:
/// `preprocess_audio` and the streaming path share it, so a batch and a
/// streamed session produce bit-identical AspResults.
void finish_asp(AspResult& result, double nominal_period, double calibration_duration,
                const AspOptions& options, MonotonicArena& arena,
                const obs::ObsContext* obs = nullptr);

}  // namespace hyperear::core
