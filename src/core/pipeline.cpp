#include "core/pipeline.hpp"

#include <cmath>

#include "common/error.hpp"
#include "core/pipeline_context.hpp"
#include "core/pipeline_detail.hpp"
#include "core/session_workspace.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hyperear::core {

namespace {

std::optional<PipelineError> config_violation(bool bad, const std::string& what) {
  if (!bad) return std::nullopt;
  return PipelineError{ErrorCategory::config, PipelineStage::config,
                       "PipelineConfig: " + what};
}

/// Stage-latency buckets (ms) shared by the asp/msp/solve histograms.
constexpr double kStageMsBounds[] = {1.0,  2.0,   5.0,   10.0,  20.0,
                                     50.0, 100.0, 200.0, 500.0, 1000.0};

}  // namespace

void detail::record_pipeline_metrics(obs::MetricsRegistry& m, const StageMetrics& stage,
                                     const LocalizationResult* result,
                                     const PipelineError* error) {
  m.counter("pipeline.sessions_total").inc();
  m.histogram("pipeline.asp_ms", kStageMsBounds).observe(stage.asp_ms);
  if (error != nullptr) {
    m.counter(std::string("pipeline.stage_failures.") + to_string(error->stage)).inc();
    return;
  }
  m.histogram("pipeline.msp_ms", kStageMsBounds).observe(stage.msp_ms);
  m.histogram("pipeline.solve_ms", kStageMsBounds).observe(stage.solve_ms);
  m.counter(result->valid ? "pipeline.sessions_valid"
                          : "pipeline.sessions_no_solution")
      .inc();
  if (result->valid) {
    static constexpr double kRangeBounds[] = {1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0};
    m.histogram("pipeline.range_m", kRangeBounds).observe(result->range);
    m.counter(result->used_3d() ? "pipeline.flow_3d_total" : "pipeline.flow_2d_total")
        .inc();
  }
}

Expected<LocalizationResult, PipelineError> detail::localize_from_asp(
    const AspResult& asp, const sim::Session& session, const PipelineConfig& config,
    StageMetrics& stage, const obs::ObsContext* obs,
    const obs::TraceSpan* session_span) {
  obs::MetricsRegistry* registry = obs != nullptr ? obs->metrics : nullptr;
  obs::Tracer* tracer = obs != nullptr ? obs->tracer : nullptr;
  const std::uint64_t sid = obs != nullptr ? obs->session_id : 0;

  const auto fail = [&](const std::exception& e, PipelineStage failed_stage) {
    PipelineError error = error_from_exception(e, failed_stage);
    if (registry != nullptr) {
      record_pipeline_metrics(*registry, stage, nullptr, &error);
    }
    return make_unexpected(std::move(error));
  };

  imu::MotionSignals motion;
  try {
    obs::TraceSpan span(tracer, "msp", sid, session_span);
    const obs::MonotonicTime t0 = obs::monotonic_now();
    motion = imu::preprocess(session.imu, config.msp);
    stage.msp_ms = obs::ms_since(t0);
  } catch (const std::exception& e) {
    return fail(e, PipelineStage::msp);
  }

  const double mic_separation = session.config.phone.mic_separation;
  LocalizationResult result;
  result.estimated_period = asp.estimated_period;
  result.sfo_ppm = asp.sfo_ppm;

  if (session.prior.two_statures) {
    try {
      obs::TraceSpan span(tracer, "ple", sid, session_span);
      const obs::MonotonicTime t0 = obs::monotonic_now();
      result.ple = localize_3d(asp, motion, session.prior, mic_separation,
                               config.ple_options());
      stage.solve_ms = obs::ms_since(t0);
    } catch (const std::exception& e) {
      return fail(e, PipelineStage::ple);
    }
    result.valid = result.ple->valid;
    result.estimated_position = result.ple->estimated_position;
    result.range = result.ple->projected_distance;
    result.slides_used = result.ple->slides_used;
    stage.slides_segmented = static_cast<int>(result.ple->slides.size());
    stage.slides_accepted = result.ple->slides_used;
  } else {
    try {
      obs::TraceSpan span(tracer, "ttl", sid, session_span);
      const obs::MonotonicTime t0 = obs::monotonic_now();
      result.ttl = localize_2d(asp, motion, session.prior, mic_separation, config.ttl);
      stage.solve_ms = obs::ms_since(t0);
    } catch (const std::exception& e) {
      return fail(e, PipelineStage::ttl);
    }
    result.valid = result.ttl->valid;
    result.estimated_position = result.ttl->estimated_position;
    result.range = result.ttl->aggregated_l;
    result.slides_used = result.ttl->accepted_count;
    stage.slides_segmented = static_cast<int>(result.ttl->slides.size());
    stage.slides_accepted = result.ttl->accepted_count;
  }

  if (registry != nullptr) {
    record_pipeline_metrics(*registry, stage, &result, nullptr);
  }
  return result;
}

std::optional<PipelineError> PipelineConfig::validate() const {
  // Every float test is written so that a NaN fails it (a NaN compares
  // false to everything), and the fields the stages convert to counts or
  // divide by must also be finite: a config built from corrupted
  // arithmetic is a config error, never a stage failure or undefined
  // behaviour downstream.
  if (auto e = config_violation(
          !(asp.detector_threshold > 0.0 && asp.detector_threshold < 1.0),
          "asp.detector_threshold must lie in (0, 1)"))
    return e;
  if (auto e = config_violation(
          !(asp.min_event_spacing_s > 0.0 && std::isfinite(asp.min_event_spacing_s)),
          "asp.min_event_spacing_s must be positive and finite"))
    return e;
  if (auto e = config_violation(asp.min_calibration_events < 2,
                                "asp.min_calibration_events must be >= 2"))
    return e;
  if (auto e = config_violation(msp.sma_length == 0, "msp.sma_length must be >= 1"))
    return e;
  if (auto e = config_violation(!(ttl.min_slide_distance >= 0.0),
                                "ttl.min_slide_distance must be non-negative"))
    return e;
  if (auto e = config_violation(!(ttl.max_z_rotation_deg > 0.0),
                                "ttl.max_z_rotation_deg must be positive"))
    return e;
  if (auto e = config_violation(
          !(ttl.chirp_duration_s > 0.0 && std::isfinite(ttl.chirp_duration_s)),
          "ttl.chirp_duration_s must be positive and finite"))
    return e;
  if (auto e = config_violation(!(ttl.lookback_s > 0.0 && std::isfinite(ttl.lookback_s)),
                                "ttl.lookback_s must be positive and finite"))
    return e;
  if (auto e = config_violation(ttl.max_pairs == 0, "ttl.max_pairs must be >= 1"))
    return e;
  if (auto e = config_violation(!(ttl.max_range > 0.0 && std::isfinite(ttl.max_range)),
                                "ttl.max_range must be positive and finite"))
    return e;
  if (auto e = config_violation(
          !(min_stature_change >= 0.0 && std::isfinite(min_stature_change)),
          "min_stature_change must be non-negative and finite"))
    return e;
  return std::nullopt;
}

PleOptions PipelineConfig::ple_options() const {
  PleOptions ple;
  ple.ttl = ttl;
  ple.min_stature_change = min_stature_change;
  ple.z_segmentation = z_segmentation;
  return ple;
}

namespace {

/// The one pipeline implementation. Both public spellings land here; the
/// nullable context/workspace parameters exist so the context-free wrapper
/// builds its session-local state INSIDE the asp-stage try block below —
/// a pathological configuration (absurd sample rate, bad taps) fails plan
/// construction and must be classified as an asp-stage error exactly like
/// it always was, no matter which spelling ran.
Expected<LocalizationResult, PipelineError> try_localize_impl(
    const sim::Session& session, const PipelineConfig& config,
    const PipelineContext* context, SessionWorkspace* workspace,
    StageMetrics* metrics, const obs::ObsContext* obs, const ChunkExecutor* executor) {
  StageMetrics local;
  if (metrics != nullptr) *metrics = local;

  obs::MetricsRegistry* registry =
      obs != nullptr ? obs->metrics : nullptr;
  obs::Tracer* tracer = obs != nullptr ? obs->tracer : nullptr;
  const std::uint64_t sid = obs != nullptr ? obs->session_id : 0;
  obs::TraceSpan session_span(tracer, "session", sid);

  if (std::optional<PipelineError> bad = config.validate()) {
    if (registry != nullptr) {
      detail::record_pipeline_metrics(*registry, local, nullptr, &*bad);
    }
    return make_unexpected(*std::move(bad));
  }

  AspResult asp;
  try {
    obs::TraceSpan span(tracer, "asp", sid, &session_span);
    const obs::MonotonicTime t0 = obs::monotonic_now();
    // A caller-supplied context is only authoritative when it was built for
    // exactly this config + session; otherwise fall through the context-free
    // ASP spelling, which rebuilds session-locally (bit-identical plans).
    const bool context_ok =
        context != nullptr && context->matches(config.asp, session.prior.chirp,
                                               session.audio.sample_rate);
    if (context_ok && workspace != nullptr) {
      asp = preprocess_audio(session.audio, session.prior.nominal_period,
                             session.prior.calibration_duration, *context,
                             *workspace, obs, executor);
    } else {
      asp = preprocess_audio(session.audio, session.prior.chirp,
                             session.prior.nominal_period,
                             session.prior.calibration_duration, config.asp,
                             context_ok ? context : nullptr, obs);
    }
    local.asp_ms = obs::ms_since(t0);
    local.chirps_mic1 = asp.mic1.size();
    local.chirps_mic2 = asp.mic2.size();
    local.sfo_estimated = asp.sfo_estimated;
  } catch (const std::exception& e) {
    if (metrics != nullptr) *metrics = local;
    PipelineError error = error_from_exception(e, PipelineStage::asp);
    if (registry != nullptr) {
      detail::record_pipeline_metrics(*registry, local, nullptr, &error);
    }
    return make_unexpected(std::move(error));
  }

  Expected<LocalizationResult, PipelineError> r =
      detail::localize_from_asp(asp, session, config, local, obs, &session_span);
  if (metrics != nullptr) *metrics = local;
  return r;
}

}  // namespace

Expected<LocalizationResult, PipelineError> try_localize(
    const sim::Session& session, const PipelineConfig& config,
    const PipelineContext& context, SessionWorkspace& workspace,
    StageMetrics* metrics, const obs::ObsContext* obs, const ChunkExecutor* executor) {
  return try_localize_impl(session, config, &context, &workspace, metrics, obs,
                           executor);
}

Expected<LocalizationResult, PipelineError> try_localize(const sim::Session& session,
                                                         const PipelineConfig& config,
                                                         StageMetrics* metrics,
                                                         const obs::ObsContext* obs) {
  return try_localize_impl(session, config, nullptr, nullptr, metrics, obs, nullptr);
}

LocalizationResult localize(const sim::Session& session, const PipelineConfig& config) {
  Expected<LocalizationResult, PipelineError> r = try_localize(session, config);
  if (!r.has_value()) rethrow(r.error());
  return *std::move(r);
}

double localization_error(const LocalizationResult& result, const sim::Session& session) {
  require(result.valid, "localization_error: result is not valid");
  const geom::Vec2 truth = session.truth.speaker_position.xy();
  return distance(result.estimated_position, truth);
}

}  // namespace hyperear::core
