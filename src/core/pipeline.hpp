#pragma once

#include <optional>

#include "common/expected.hpp"
#include "core/asp.hpp"
#include "core/ple.hpp"
#include "core/status.hpp"
#include "core/ttl.hpp"
#include "sim/scenario.hpp"

/// @file pipeline.hpp
/// The HyperEar facade: one call from a recorded session (stereo audio +
/// IMU + the user's prior knowledge) to a speaker location on the floor
/// map. Mirrors the six-component architecture of the paper's Fig. 5:
/// ASP -> (SDF) -> MSP -> PDE -> TTL -> PLE.
///
/// The primary entry point is the non-throwing `try_localize`, which
/// returns `Expected<LocalizationResult, PipelineError>`; `localize` is a
/// thin throwing shim kept for single-session callers. Batch callers
/// should use `runtime::BatchEngine` (src/runtime/engine.hpp), which runs
/// many sessions concurrently on a thread pool.

namespace hyperear::core {

/// Every toggle of the pipeline in one place; the ablation bench flips the
/// design-choice booleans documented in DESIGN.md Section 5.
///
/// `ttl` is the single source of truth for the slide-measurement options of
/// BOTH the 2D and 3D flows (the old `PipelineOptions` kept a second copy
/// inside a nested `PleOptions` that a manual `sync()` had to reconcile —
/// that footgun is gone; `ple_options()` composes the 3D options on
/// demand). `try_localize` and the engine validate the config up front and
/// report violations as `ErrorCategory::config` values.
struct PipelineConfig {
  AspOptions asp;
  imu::PreprocessOptions msp;
  TtlOptions ttl;

  /// 3D-only knobs (see PleOptions for semantics). The slide-measurement
  /// options come from `ttl` above.
  double min_stature_change = 0.12;
  imu::SegmentationOptions z_segmentation;

  /// First contract violation found, or nullopt when the config is sound.
  [[nodiscard]] std::optional<PipelineError> validate() const;

  /// Compose the 3D options from the shared `ttl` block — the one place
  /// the duplication the old API exposed still exists, now write-once.
  [[nodiscard]] PleOptions ple_options() const;
};

/// Per-stage observability for one localization attempt. Filled by
/// `try_localize` when the caller passes a sink; aggregated across
/// sessions by `runtime::BatchEngine`. Kept OUT of LocalizationResult so
/// results stay bit-identical across runs and thread counts (wall times
/// are not deterministic; estimates are).
struct StageMetrics {
  double asp_ms = 0.0;    ///< acoustic preprocessing wall time
  double msp_ms = 0.0;    ///< motion preprocessing wall time
  double solve_ms = 0.0;  ///< TTL or PLE wall time
  std::size_t chirps_mic1 = 0;  ///< chirp arrivals detected at mic 1
  std::size_t chirps_mic2 = 0;
  bool sfo_estimated = false;   ///< data-driven period estimate succeeded
  int slides_segmented = 0;     ///< slides found by segmentation
  int slides_accepted = 0;      ///< slides passing the quality gate
};

/// Unified localization output. Exactly one of `ttl`/`ple` is engaged
/// (which one records which flow ran — the old API default-constructed
/// both and relied on a separate `used_3d` flag).
struct LocalizationResult {
  bool valid = false;
  geom::Vec2 estimated_position;  ///< speaker estimate on the floor map
  double range = 0.0;             ///< L (2D) or L* (3D projected)
  int slides_used = 0;

  // Diagnostics.
  double estimated_period = 0.0;
  double sfo_ppm = 0.0;
  std::optional<TtlResult> ttl;  ///< engaged iff the 2D flow ran
  std::optional<PleResult> ple;  ///< engaged iff the 3D flow ran

  [[nodiscard]] bool used_3d() const { return ple.has_value(); }
};

class ChunkExecutor;
class PipelineContext;
class SessionWorkspace;

}  // namespace hyperear::core

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::core {

/// Run the full pipeline on a session without throwing — the canonical
/// entry point. Uses the 3D (two-stature) flow when the session prior says
/// two statures were recorded, the 2D flow otherwise. A session that
/// processes cleanly but yields no accepted slides is a SUCCESS value with
/// `valid == false` (matching the paper's "slide again" outcome); the
/// error alternative is reserved for config violations and stage failures.
///
/// `context` (core/pipeline_context.hpp) carries the immutable DSP plans
/// for `config.asp` + the session's chirp + sample rate — shared read-only
/// across any number of concurrent calls. A context that does not match
/// the session (wrong options, chirp, or rate) is not an error: the ASP
/// stage rebuilds a session-local one, so results never silently depend on
/// a stale cache.
///
/// `workspace` (core/session_workspace.hpp) is this call's mutable scratch
/// — strictly single-owner, reusable across sequential sessions, and the
/// reason the steady-state batch path allocates nearly nothing. Results
/// are bit-identical whatever workspace history is: buffers carry capacity
/// between sessions, never information.
///
/// When `metrics` is non-null it receives the per-stage observability
/// record (also on failure, up to the stage that failed).
///
/// `obs` (obs/trace.hpp) optionally attaches the observability layer: a
/// root "session" span with one child span per stage (asp/msp/ttl/ple) on
/// its tracer, plus stage-latency histograms, outcome counters, and
/// detector telemetry on its registry, all keyed by `obs->session_id`.
/// Null (the default) is the null sink — no clock reads beyond the
/// StageMetrics ones, nothing recorded — and the LocalizationResult is
/// byte-identical with and without it (tests/test_obs.cpp locks this in).
///
/// `executor` (core/parallel.hpp) runs the ASP stage's (channel,
/// detector-chunk) tasks — runtime::BatchEngine passes one that fans them
/// out over its idle workers. Null runs them serially on the workspace's
/// scratch; the result is byte-identical either way.
[[nodiscard]] Expected<LocalizationResult, PipelineError> try_localize(
    const sim::Session& session, const PipelineConfig& config,
    const PipelineContext& context, SessionWorkspace& workspace,
    StageMetrics* metrics = nullptr, const obs::ObsContext* obs = nullptr,
    const ChunkExecutor* executor = nullptr);

/// Context-free wrapper over the canonical spelling (one implementation —
/// this forwards, it does not duplicate): the DSP plans and the workspace
/// are built call-locally, which is exactly what the pre-context pipeline
/// did per session. Right for one-off calls; batch callers should reuse a
/// context and a per-worker workspace (or use `runtime::BatchEngine`,
/// which does both). Results are bit-identical either way.
[[nodiscard]] Expected<LocalizationResult, PipelineError> try_localize(
    const sim::Session& session, const PipelineConfig& config = {},
    StageMetrics* metrics = nullptr, const obs::ObsContext* obs = nullptr);

/// Throwing shim over the context-free `try_localize` for single-session
/// callers: unwraps the success value or rethrows the taxonomy-matched
/// Error subclass.
[[nodiscard]] LocalizationResult localize(const sim::Session& session,
                                          const PipelineConfig& config = {});

/// Scoring helper: projected Euclidean distance between the estimate and
/// the ground-truth speaker position on the floor map (the paper's accuracy
/// metric, Section VII-A). Requires a valid result.
[[nodiscard]] double localization_error(const LocalizationResult& result,
                                        const sim::Session& session);

}  // namespace hyperear::core
