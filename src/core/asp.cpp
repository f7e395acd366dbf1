#include "core/asp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
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

/// Gate lags [lo, hi] of one beacon gate; `final_gate` when hi is the
/// recording's last lag, so the gate has no right neighbour lag.
struct GateSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
  bool final_gate = false;
};

/// Where beacon-gated ASP searches after the head (DESIGN.md §9): gate j is
/// centred on the arrival lag `line` predicts for chirp index first + j
/// and reaches half_width lags to each side, clipped below to `begin` (the
/// head's last lag) and above to the recording.
struct GateSchedule {
  LineFit line;                ///< fitted arrival lag against chirp index
  std::size_t first = 0;       ///< chirp index of gate 0
  std::size_t begin = 0;       ///< lowest gate lag: the head's last lag
  std::size_t half_width = 0;  ///< MatchedFilterDetector::gate_half_width()

  /// Centre lag of gate j, the fitted arrival of chirp index first + j.
  [[nodiscard]] double centre(std::size_t j) const {
    return std::round(line.intercept + static_cast<double>(first + j) * line.slope);
  }
  /// First lag of gate j: whatever the recording's length.
  [[nodiscard]] std::size_t lo(std::size_t j) const {
    return static_cast<std::size_t>(std::max(centre(j) - static_cast<double>(half_width),
                                             static_cast<double>(begin)));
  }
  /// Gate j of a recording of `lags` correlation lags; nullopt when it
  /// begins past the last lag.
  [[nodiscard]] std::optional<GateSpan> gate(std::size_t j, std::size_t lags) const {
    const std::size_t low = lo(j);
    if (lags == 0 || low > lags - 1) return std::nullopt;
    const std::size_t high = static_cast<std::size_t>(centre(j)) + half_width;
    return GateSpan{low, std::min(high, lags - 1), high >= lags - 1};
  }
};

/// The gates of the head of `head` chunks, whose line and first gate the
/// plan fitted.
GateSchedule gate_schedule(const dsp::MatchedFilterDetector& detector,
                           const LineFit& line, std::size_t first, std::size_t head) {
  const std::size_t head_end = head * detector.chunk_pairs() * detector.pair_lags();
  return {line, first, head_end - 1, detector.gate_half_width()};
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

detail::AspSchedule::AspSchedule(const PipelineContext& context,
                                 SessionWorkspace& workspace, double nominal_period)
    : context_(&context),
      workspace_(&workspace),
      nominal_period_(nominal_period),
      head_(head_chunks(context.detector(), context.asp_options(), nominal_period)) {
  for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
    ChannelWorkspace& ch = workspace.channel(slot);
    context.detector().stream_begin(ch.stream, ch.detector);
  }
}

void detail::AspSchedule::step(std::span<const double> mic1, std::span<const double> mic2,
                               std::size_t offset, std::size_t total, bool ended,
                               const ChunkExecutor& executor, const PassHook& on_pass) {
  // Tasks read shared immutable plans and the samples and write only their
  // own result slots and their executor-provided scratch, so they may run
  // in any order on any threads; every stitch is serial, in lag order. The
  // executor gets each task by reference, so its Task does not allocate.
  const dsp::MatchedFilterDetector& detector = context_->detector();
  const std::size_t pairs = detector.chunk_pairs();
  const std::size_t m = detector.reference().size();
  const std::size_t chunks = detector.chunk_count(total, pairs);
  const std::size_t lags = total >= m ? total - m + 1 : 0;
  SessionWorkspace& ws = *workspace_;
  AspWork& work = ws.asp_work();
  const std::array<std::span<const double>, 2> mic{mic1, mic2};

  // Chunks [next_chunk_, last) of both channels: task t passes chunk
  // next_chunk_ + t % count of channel t / count.
  const auto chunk_round = [&](std::size_t last) {
    const std::size_t first = next_chunk_;
    const std::size_t count = last - first;
    const std::size_t n = SessionWorkspace::kChannels * count;
    if (ws.chunk_passes().size() < n) ws.chunk_passes().resize(n);
    std::vector<dsp::ChunkPass>& passes = ws.chunk_passes();
    const auto task = [&](std::size_t t, ChunkScratch& scratch) {
      const dsp::ChunkSpan span = detector.chunk_span(first + t % count, total, pairs);
      detector.chunk_pass(mic[t / count].subspan(span.start - offset, span.size),
                          span.start, span.final_chunk, scratch.detector, passes[t]);
    };
    work.helped_tasks += executor.run(n, std::cref(task));
    work.tasks += n;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
        ChannelWorkspace& ch = ws.channel(slot);
        detector.stitch(passes[slot * count + i], ch.stream, ch.detector);
        work.correlated_lags += passes[slot * count + i].lags;
      }
      if (on_pass) on_pass(passes[i].start + passes[i].lags + m - 1);
    }
    next_chunk_ = last;
  };

  // Gates [next_gate_, last): task t runs kGatesPerTask of them over both
  // channels.
  const auto gate_round = [&](const GateSchedule& gates, std::size_t last) {
    const std::size_t first = next_gate_;
    const std::size_t count = last - first;
    if (ws.gate_passes().size() < count) ws.gate_passes().resize(count);
    std::vector<dsp::GatePass>& passes = ws.gate_passes();
    const std::size_t n = (count + kGatesPerTask - 1) / kGatesPerTask;
    const auto task = [&](std::size_t t, ChunkScratch& scratch) {
      const std::size_t end = std::min(count, (t + 1) * kGatesPerTask);
      for (std::size_t i = t * kGatesPerTask; i < end; ++i) {
        const GateSpan g = *gates.gate(first + i, lags);
        detector.gate_pass(mic1, mic2, offset, g.lo, g.hi, g.final_gate, scratch.detector,
                           passes[i]);
      }
    };
    work.helped_tasks += executor.run(n, std::cref(task));
    work.tasks += n;
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t slot = 0; slot < SessionWorkspace::kChannels; ++slot) {
        ChannelWorkspace& ch = ws.channel(slot);
        detector.stitch_gate(passes[i], slot, ch.stream, ch.detector);
      }
      work.correlated_lags += SessionWorkspace::kChannels * passes[i].window_lags;
      ++work.gates;
      if (on_pass) on_pass(passes[i].lo - 1 + passes[i].window_lags + m - 1);
    }
    next_gate_ = last;
  };

  // Round one, the head's ready chunks; when they end it and the recording
  // goes on, plan. Round two, the ready gates of the plan, or the ready
  // chunks after a fallback.
  for (;;) {
    if (line_) {
      const GateSchedule gates = gate_schedule(detector, *line_, first_gate_, head_);
      std::size_t last = next_gate_;
      for (std::optional<GateSpan> g = gates.gate(last, lags);
           g && (ended || !g->final_gate); g = gates.gate(last, lags)) {
        ++last;
      }
      if (last > next_gate_) gate_round(gates, last);
      return;
    }
    const std::size_t limit = planned_ ? chunks : std::min(chunks, head_);
    std::size_t last = next_chunk_;
    while (last < limit &&
           (ended || !detector.chunk_span(last, total, pairs).final_chunk)) {
      ++last;
    }
    if (last > next_chunk_) chunk_round(last);
    if (planned_ || next_chunk_ != head_ || head_ >= chunks) return;
    plan();
  }
}

void detail::AspSchedule::plan() {
  planned_ = true;
  const dsp::MatchedFilterDetector& detector = context_->detector();
  const double fs = detector.config().sample_rate;
  ChannelWorkspace& ch = workspace_->channel(0);
  // stream_end's rules over the head's candidates, which the gates'
  // stitch appends to; the staging is rewritten by end_asp.
  detector.select(ch.detector, ch.detections);
  MonotonicArena& arena = workspace_->arena();
  ArenaVector<double> times{ArenaAllocator<double>{arena}};
  for (const dsp::Detection& d : ch.detections) times.push_back(d.time_s);
  const std::optional<LineFit> fit = fit_arrival_line(
      times, nominal_period_, context_->asp_options().min_calibration_events, arena);
  const std::size_t gateable =
      2 * detector.gate_half_width() + 3 + detector.min_spacing_lags();
  if (!fit || !plausible_period(fit->slope, nominal_period_) ||
      !(fit->slope * fs >= static_cast<double>(gateable))) {
    workspace_->asp_work().fallback = true;
    return;
  }
  const LineFit line{fit->intercept * fs, fit->slope * fs, fit->rms_residual};
  GateSchedule gates = gate_schedule(detector, line, 0, head_);
  // Gate 0 is the first whose upper edge reaches the head's last lag.
  while (gates.centre(0) + static_cast<double>(gates.half_width) <
         static_cast<double>(gates.begin)) {
    ++gates.first;
  }
  line_ = gates.line;
  first_gate_ = gates.first;
}

std::size_t detail::AspSchedule::keep() const {
  // Until gated, the next chunk's start: the detector stream's cursor.
  if (!line_) return workspace_->channel(0).stream.next_start;
  return gate_schedule(context_->detector(), *line_, first_gate_, head_).lo(next_gate_) - 1;
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
  // The whole recording is one step: the head's chunk tasks, then the gate
  // tasks or the fallback's chunk tasks.
  const SerialChunkExecutor serial;
  AspSchedule(*context, *workspace, nominal_period)
      .step(recording.mic1, recording.mic2, 0, recording.mic1.size(), true,
            executor != nullptr ? *executor : serial);
  if (obs != nullptr && obs->metrics != nullptr) {
    const AspWork& work = workspace->asp_work();
    obs->metrics->counter("asp.chunk_tasks_total").inc(static_cast<double>(work.tasks));
    obs->metrics->counter("asp.chunk_tasks_helped_total")
        .inc(static_cast<double>(work.helped_tasks));
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
