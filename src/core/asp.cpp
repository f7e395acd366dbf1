#include "core/asp.hpp"

#include <cmath>
#include <optional>
#include <string>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/parallel.hpp"
#include "core/pipeline_context.hpp"
#include "core/pipeline_detail.hpp"
#include "core/session_workspace.hpp"
#include "dsp/matched_filter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hyperear::core {

void convert_chirp_events(const std::vector<dsp::Detection>& detections,
                          std::vector<ChirpEvent>& out) {
  out.clear();
  out.reserve(detections.size());
  for (const dsp::Detection& d : detections) {
    out.push_back({d.time_s, d.score, d.amplitude});
  }
}

namespace {

/// `estimate_period` with caller-owned scratch: the arrival-time and index
/// series live in the session arena, so the steady-state batch path fits
/// the SFO line without touching the heap. The public spelling wraps this
/// with a call-local arena; the fit itself is identical.
double estimate_period_with_arena(const std::vector<ChirpEvent>& events,
                                  double nominal_period, double window_end,
                                  std::size_t min_events, MonotonicArena& arena) {
  require(nominal_period > 0.0, "estimate_period: bad nominal period");
  ArenaVector<double> times{ArenaAllocator<double>{arena}};
  for (const ChirpEvent& e : events) {
    if (e.time_s <= window_end) times.push_back(e.time_s);
  }
  if (times.size() < min_events) {
    throw DetectionError("estimate_period: not enough calibration arrivals");
  }
  // Recover integer chirp indices by rounding gaps to the nominal period;
  // missed detections produce index gaps, which the fit tolerates.
  ArenaVector<double> idx{ArenaAllocator<double>{arena}};
  idx.resize(times.size());
  idx[0] = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    idx[i] = idx[i - 1] + std::round((times[i] - times[i - 1]) / nominal_period);
  }
  const LineFit fit = fit_line_robust(idx, times);
  require(fit.slope > 0.5 * nominal_period && fit.slope < 1.5 * nominal_period,
          "estimate_period: implausible period estimate");
  return fit.slope;
}

}  // namespace

const PipelineContext& detail::resolve_context(const PipelineContext* context,
                                               const AspOptions& options,
                                               const dsp::ChirpParams& chirp,
                                               double sample_rate,
                                               std::optional<PipelineContext>& local) {
  if (context != nullptr && context->matches(options, chirp, sample_rate)) return *context;
  return local.emplace(options, chirp, sample_rate);
}

AspResult detail::run_asp(const sim::StereoRecording& recording,
                          const dsp::ChirpParams& chirp_params, double nominal_period,
                          double calibration_duration, const AspOptions& options,
                          const PipelineContext* context, SessionWorkspace* workspace,
                          const ChunkExecutor* executor, const obs::ObsContext* obs) {
  if (recording.mic1.size() != recording.mic2.size()) {
    throw PreconditionError("preprocess_audio: mic1 has " +
                            std::to_string(recording.mic1.size()) + " samples, mic2 has " +
                            std::to_string(recording.mic2.size()));
  }
  require(!recording.mic1.empty(), "preprocess_audio: empty recording");
  std::optional<PipelineContext> local_context;
  context = &resolve_context(context, options, chirp_params, recording.sample_rate,
                             local_context);
  // Same rule for the scratch: a call-local workspace behaves exactly like
  // a warmed one (buffer contents carry no information between sessions),
  // it just pays the allocations the steady-state path avoids.
  std::optional<SessionWorkspace> local_workspace;
  if (workspace == nullptr) {
    local_workspace.emplace();
    workspace = &*local_workspace;
  }
  workspace->reset();

  // Task t runs the detector's chunk-local pass over chunk t % chunks of
  // channel t / chunks into its own result slot. Tasks read shared
  // immutable plans and the recording and write only their slot and their
  // executor-provided scratch, so they may run in any order on any threads.
  const dsp::MatchedFilterDetector& detector = context->detector();
  const std::size_t n = recording.mic1.size();
  const std::size_t pairs = detector.chunk_pairs();
  const std::size_t chunks = detector.chunk_count(n, pairs);
  const std::size_t tasks = SessionWorkspace::kChannels * chunks;
  workspace->chunk_passes().resize(tasks);
  std::vector<dsp::ChunkPass>& passes = workspace->chunk_passes();
  const auto run_task = [&](std::size_t t, ChunkScratch& scratch) {
    const std::vector<double>& mic = t < chunks ? recording.mic1 : recording.mic2;
    const dsp::ChunkSpan span = detector.chunk_span(t % chunks, n, pairs);
    detector.chunk_pass(std::span<const double>(mic).subspan(span.start, span.size),
                        span.start, span.final_chunk, scratch.detector, passes[t]);
  };
  const SerialChunkExecutor serial;
  const ChunkExecutor& exec = executor != nullptr ? *executor : serial;
  const std::size_t helped = exec.run(tasks, run_task);
  if (obs != nullptr && obs->metrics != nullptr) {
    obs->metrics->counter("asp.chunk_tasks_total").inc(static_cast<double>(tasks));
    obs->metrics->counter("asp.chunk_tasks_helped_total").inc(static_cast<double>(helped));
  }

  // Serial stitch per channel, in chunk order: the cross-chunk rules and
  // the global passes see exactly what one thread streaming the chunks
  // would have produced.
  for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
    ChannelWorkspace& ch = workspace->channel(slot);
    detector.stream_begin(ch.stream, ch.detector);
    for (std::size_t k = 0; k < chunks; ++k) {
      detector.stitch(passes[slot * chunks + k], ch.stream, ch.detector);
    }
  }
  return detail::end_asp(*context, *workspace, nominal_period, calibration_duration,
                         obs);
}

AspResult detail::end_asp(const PipelineContext& context, SessionWorkspace& workspace,
                          double nominal_period, double calibration_duration,
                          const obs::ObsContext* obs) {
  AspResult result;
  for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
    ChannelWorkspace& ch = workspace.channel(slot);
    context.detector().stream_end(ch.stream, ch.detector, ch.detections, obs);
    convert_chirp_events(ch.detections, slot == 0 ? result.mic1 : result.mic2);
  }
  finish_asp(result, nominal_period, calibration_duration, context.asp_options(),
             workspace.arena(), obs);
  return result;
}

void finish_asp(AspResult& result, double nominal_period, double calibration_duration,
                const AspOptions& options, MonotonicArena& arena,
                const obs::ObsContext* obs) {
  result.estimated_period = nominal_period;
  result.sfo_ppm = 0.0;
  result.sfo_estimated = false;
  if (options.sfo_correction) {
    // Average the per-mic estimates when both are available (the two mics
    // share the phone clock, so their true periods are identical).
    double sum = 0.0;
    int count = 0;
    for (const auto* events : {&result.mic1, &result.mic2}) {
      try {
        sum += estimate_period_with_arena(*events, nominal_period,
                                          calibration_duration,
                                          options.min_calibration_events, arena);
        ++count;
      } catch (const DetectionError&) {
        // fall through; the other mic may still provide an estimate
      }
    }
    if (count > 0) {
      result.estimated_period = sum / count;
      result.sfo_ppm = (result.estimated_period / nominal_period - 1.0) * 1e6;
      result.sfo_estimated = true;
    }
  }
  if (obs != nullptr && obs->metrics != nullptr) {
    obs::MetricsRegistry& m = *obs->metrics;
    m.counter(result.sfo_estimated ? "asp.sfo_estimated_total"
                                   : "asp.sfo_fallback_total")
        .inc();
    static constexpr double kPpmBounds[] = {-100.0, -50.0, -20.0, -10.0, 0.0,
                                            10.0,   20.0,  50.0,  100.0};
    if (result.sfo_estimated) {
      m.histogram("asp.sfo_ppm", kPpmBounds).observe(result.sfo_ppm);
    }
  }
}

double estimate_period(const std::vector<ChirpEvent>& events, double nominal_period,
                       double window_end, std::size_t min_events) {
  MonotonicArena arena;
  return estimate_period_with_arena(events, nominal_period, window_end, min_events,
                                    arena);
}

AspResult preprocess_audio(const sim::StereoRecording& recording,
                           double nominal_period, double calibration_duration,
                           const PipelineContext& context, SessionWorkspace& workspace,
                           const obs::ObsContext* obs, const ChunkExecutor* executor) {
  return detail::run_asp(recording, context.chirp_params(), nominal_period,
                         calibration_duration, context.asp_options(), &context,
                         &workspace, executor, obs);
}

AspResult preprocess_audio(const sim::StereoRecording& recording,
                           const dsp::ChirpParams& chirp_params, double nominal_period,
                           double calibration_duration, const AspOptions& options,
                           const PipelineContext* context, const obs::ObsContext* obs) {
  return detail::run_asp(recording, chirp_params, nominal_period, calibration_duration,
                         options, context, nullptr, nullptr, obs);
}

}  // namespace hyperear::core
