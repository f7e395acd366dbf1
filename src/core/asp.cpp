#include "core/asp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// estimate_period's line: arrival time against chirp index, the indices
/// recovered by rounding gaps to the nominal period (missed detections
/// produce index gaps, which the robust fit tolerates). nullopt when fewer
/// than `min_events` arrivals are given. The index series and the fit's
/// scratch live in the session arena.
std::optional<LineFit> fit_arrival_line(std::span<const double> times,
                                        double nominal_period, std::size_t min_events,
                                        MonotonicArena& arena) {
  if (times.size() < std::max<std::size_t>(min_events, 2)) return std::nullopt;
  ArenaVector<double> idx{ArenaAllocator<double>{arena}};
  idx.resize(times.size());
  idx[0] = 0.0;
  for (std::size_t i = 1; i < times.size(); ++i) {
    idx[i] = idx[i - 1] + std::round((times[i] - times[i - 1]) / nominal_period);
  }
  ArenaVector<double> scratch{ArenaAllocator<double>{arena}};
  scratch.resize(4 * times.size());
  return fit_line_robust(idx, times, scratch);
}

/// Whether a fitted period is one estimate_period accepts.
bool plausible_period(double period, double nominal_period) {
  return period > 0.5 * nominal_period && period < 1.5 * nominal_period;
}

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
  const std::optional<LineFit> fit =
      fit_arrival_line(times, nominal_period, min_events, arena);
  if (!fit) throw DetectionError("estimate_period: not enough calibration arrivals");
  require(plausible_period(fit->slope, nominal_period),
          "estimate_period: implausible period estimate");
  return fit->slope;
}

/// Beacon gates per batch task, so a gate task costs about what a head
/// chunk task does: a gate correlates both channels in one transform pair
/// of half the chunk transform's size and scans 2 x 1891 lags, about 45 %
/// of one channel's one-pair chunk (74 against 162 us on a 4-core Xeon VM,
/// GCC 12 RelWithDebInfo).
constexpr std::size_t kGatesPerTask = 2;

}  // namespace

const PipelineContext& detail::resolve_context(const PipelineContext* context,
                                               const AspOptions& options,
                                               const dsp::ChirpParams& chirp,
                                               double sample_rate,
                                               std::optional<PipelineContext>& local) {
  if (context != nullptr && context->matches(options, chirp, sample_rate)) return *context;
  return local.emplace(options, chirp, sample_rate);
}

void detail::require_finite(std::span<const double> x, const char* channel,
                            std::size_t offset) {
  // x - x is 0 for a finite sample and NaN for an infinity or a NaN, so
  // four running sums of it stay 0 exactly when every sample is finite:
  // one branch-free pass the compiler vectorizes. Only a channel that
  // fails pays for the scan that names the sample.
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t body = x.size() - x.size() % 4;
  for (std::size_t i = 0; i < body; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) acc[j] += x[i + j] - x[i + j];
  }
  for (std::size_t i = body; i < x.size(); ++i) acc[0] += x[i] - x[i];
  if (acc[0] + acc[1] + acc[2] + acc[3] == 0.0) return;
  const auto bad =
      std::find_if(x.begin(), x.end(), [](double v) { return !std::isfinite(v); });
  const auto index = offset + static_cast<std::size_t>(bad - x.begin());
  throw PreconditionError("preprocess_audio: " + std::string(channel) + " sample " +
                          std::to_string(index) + " is not finite");
}

std::size_t detail::GateSchedule::lo(std::size_t j) const {
  return static_cast<std::size_t>(
      std::max(centre(j) - static_cast<double>(half_width), static_cast<double>(begin)));
}

std::optional<detail::GateSpan> detail::GateSchedule::gate(std::size_t j,
                                                           std::size_t lags) const {
  const std::size_t low = lo(j);
  if (lags == 0 || low > lags - 1) return std::nullopt;
  const std::size_t high = static_cast<std::size_t>(centre(j)) + half_width;
  return GateSpan{low, std::min(high, lags - 1), high >= lags - 1};
}

std::size_t detail::head_chunks(const dsp::MatchedFilterDetector& detector,
                                const AspOptions& options, double nominal_period) {
  const double period = nominal_period * detector.config().sample_rate;
  const double gateable = static_cast<double>(2 * detector.gate_half_width() + 3 +
                                              detector.min_spacing_lags());
  if (!(period >= gateable) || !std::isfinite(period)) {
    return std::numeric_limits<std::size_t>::max();
  }
  const double need =
      static_cast<double>(std::max<std::size_t>(options.min_calibration_events, 2));
  const double chunk_lags =
      static_cast<double>(detector.chunk_pairs() * detector.pair_lags());
  const double chunks = std::ceil(need * period / chunk_lags);
  return chunks < 0x1p52 ? static_cast<std::size_t>(chunks)
                         : std::numeric_limits<std::size_t>::max();
}

std::optional<detail::GateSchedule> detail::plan_gates(const PipelineContext& context,
                                                       SessionWorkspace& workspace,
                                                       double nominal_period,
                                                       std::size_t head_end) {
  const dsp::MatchedFilterDetector& detector = context.detector();
  const double fs = detector.config().sample_rate;
  ChannelWorkspace& ch = workspace.channel(0);
  // stream_end's rules over the head's candidates, which the gates'
  // stitch appends to; the staging is rewritten by end_asp.
  detector.select(ch.detector, ch.detections);
  MonotonicArena& arena = workspace.arena();
  ArenaVector<double> times{ArenaAllocator<double>{arena}};
  for (const dsp::Detection& d : ch.detections) times.push_back(d.time_s);
  const std::optional<LineFit> fit = fit_arrival_line(
      times, nominal_period, context.asp_options().min_calibration_events, arena);
  if (!fit || !plausible_period(fit->slope, nominal_period)) return std::nullopt;
  GateSchedule s;
  s.intercept = fit->intercept * fs;
  s.slope = fit->slope * fs;
  s.begin = head_end - 1;
  s.half_width = detector.gate_half_width();
  const std::size_t gateable = 2 * s.half_width + 3 + detector.min_spacing_lags();
  if (!(s.slope >= static_cast<double>(gateable))) return std::nullopt;
  // Gate 0 is the first whose upper edge reaches the head's last lag.
  while (s.centre(0) + static_cast<double>(s.half_width) < static_cast<double>(s.begin)) {
    ++s.first;
  }
  return s;
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
  require_finite(recording.mic1, "mic1", 0);
  require_finite(recording.mic2, "mic2", 0);
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

  // Tasks read shared immutable plans and the recording and write only
  // their own result slots and their executor-provided scratch, so they may
  // run in any order on any threads; every stitch is serial, in lag order.
  const dsp::MatchedFilterDetector& detector = context->detector();
  const std::size_t n = recording.mic1.size();
  const std::size_t pairs = detector.chunk_pairs();
  const std::size_t chunks = detector.chunk_count(n, pairs);
  const std::size_t head =
      std::min(chunks, head_chunks(detector, context->asp_options(), nominal_period));
  workspace->chunk_passes().resize(SessionWorkspace::kChannels * chunks);
  std::vector<dsp::ChunkPass>& passes = workspace->chunk_passes();
  AspWork& work = workspace->asp_work();
  const SerialChunkExecutor serial;
  const ChunkExecutor& exec = executor != nullptr ? *executor : serial;
  std::size_t tasks = 0;
  std::size_t helped = 0;
  const auto mic = [&](std::size_t slot) -> std::span<const double> {
    return slot == 0 ? recording.mic1 : recording.mic2;
  };

  // Full search of chunks [first, last) of both channels: task t runs the
  // chunk-local pass over chunk first + t % count of channel t / count,
  // then each channel stitches them in chunk order.
  const auto search_chunks = [&](std::size_t first, std::size_t last) {
    const std::size_t count = last - first;
    if (count == 0) return;
    const auto run_task = [&](std::size_t t, ChunkScratch& scratch) {
      const std::size_t slot = t / count;
      const std::size_t k = first + t % count;
      const dsp::ChunkSpan span = detector.chunk_span(k, n, pairs);
      detector.chunk_pass(mic(slot).subspan(span.start, span.size), span.start,
                          span.final_chunk, scratch.detector, passes[slot * chunks + k]);
    };
    helped += exec.run(SessionWorkspace::kChannels * count, run_task);
    tasks += SessionWorkspace::kChannels * count;
    for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
      ChannelWorkspace& ch = workspace->channel(slot);
      for (std::size_t k = first; k < last; ++k) {
        detector.stitch(passes[slot * chunks + k], ch.stream, ch.detector);
        work.correlated_lags += passes[slot * chunks + k].lags;
      }
    }
  };

  // Beacon gates of `schedule` over the rest of the recording: task t runs
  // gates [t * kGatesPerTask, ...) of both channels, then each channel
  // stitches them in gate order.
  const auto search_gates = [&](const GateSchedule& schedule) {
    const std::size_t lags = n - detector.reference().size() + 1;
    std::size_t count = 0;
    while (schedule.gate(count, lags)) ++count;
    if (workspace->gate_passes().size() < count) workspace->gate_passes().resize(count);
    std::vector<dsp::GatePass>& gates = workspace->gate_passes();
    const auto run_task = [&](std::size_t t, ChunkScratch& scratch) {
      const std::size_t last = std::min(count, (t + 1) * kGatesPerTask);
      for (std::size_t j = t * kGatesPerTask; j < last; ++j) {
        const GateSpan g = *schedule.gate(j, lags);
        detector.gate_pass(recording.mic1, recording.mic2, 0, g.lo, g.hi, g.final_gate,
                           scratch.detector, gates[j]);
      }
    };
    const std::size_t gate_tasks = (count + kGatesPerTask - 1) / kGatesPerTask;
    helped += exec.run(gate_tasks, run_task);
    tasks += gate_tasks;
    for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
      ChannelWorkspace& ch = workspace->channel(slot);
      for (std::size_t j = 0; j < count; ++j) {
        detector.stitch_gate(gates[j], slot, ch.stream, ch.detector);
        work.correlated_lags += gates[j].window_lags;
      }
    }
    work.gates = count;
  };

  for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
    ChannelWorkspace& ch = workspace->channel(slot);
    detector.stream_begin(ch.stream, ch.detector);
  }
  // Round one, the head: the full search over its chunks. Round two, when
  // the recording goes on past it: the gates the head's arrivals schedule,
  // or the full search of the remaining chunks when they schedule none.
  search_chunks(0, head);
  if (head < chunks) {
    const std::size_t head_end = head * pairs * detector.pair_lags();
    const std::optional<GateSchedule> schedule =
        plan_gates(*context, *workspace, nominal_period, head_end);
    if (schedule) {
      search_gates(*schedule);
    } else {
      work.fallback = true;
      search_chunks(head, chunks);
    }
  }
  if (obs != nullptr && obs->metrics != nullptr) {
    obs->metrics->counter("asp.chunk_tasks_total").inc(static_cast<double>(tasks));
    obs->metrics->counter("asp.chunk_tasks_helped_total").inc(static_cast<double>(helped));
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
  if (obs != nullptr && obs->metrics != nullptr) {
    const AspWork& work = workspace.asp_work();
    obs::MetricsRegistry& m = *obs->metrics;
    m.counter("asp.correlated_lags_total").inc(static_cast<double>(work.correlated_lags));
    m.counter("asp.gates_total").inc(static_cast<double>(work.gates));
    m.counter("asp.acquisition_fallback_total").inc(work.fallback ? 1.0 : 0.0);
  }
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
