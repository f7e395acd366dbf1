#include "probe.hpp"

#include <algorithm>
#include <chrono>

#include "core/asp.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "dsp/fir.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace obs = hyperear::obs;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

}  // namespace

ProbeResult run_probe(const Pool& pool, std::size_t max_sessions) {
  std::vector<std::size_t> picks(pool.first_of_plan.begin(), pool.first_of_plan.end());
  for (std::size_t i = 0; i < pool.entries.size() && picks.size() < max_sessions; ++i) {
    if (std::find(picks.begin(), picks.end(), i) == picks.end()) picks.push_back(i);
  }
  const core::PipelineConfig config;
  ProbeResult r;
  for (const std::size_t index : picks) {
    const sim::Session& s = pool.entries[index].session;
    Clock::time_point t = Clock::now();
    const core::PipelineContext ctx(config, s.prior.chirp, s.audio.sample_rate);
    r.context_build_ms.push_back(ms_since(t));

    // Warm the workspace as an engine worker's would be, then replay the
    // ASP stage call by call.
    core::SessionWorkspace ws;
    (void)core::try_localize(s, config, ctx, ws);
    ws.reset();
    obs::MetricsRegistry registry;
    const obs::ObsContext counters{&registry, nullptr, 0};
    core::AspResult asp;
    for (std::size_t slot = 0; slot < core::SessionWorkspace::kChannels; ++slot) {
      core::ChannelWorkspace& ch = ws.channel(slot);
      const std::vector<double>& mic = slot == 0 ? s.audio.mic1 : s.audio.mic2;
      t = Clock::now();
      dsp::filter_same_into(mic, *ctx.bandpass_convolver(), ch.filtered, ch.detector.fft);
      r.bandpass_ms += ms_since(t);
      t = Clock::now();
      ctx.detector().detect_into(ch.filtered, ch.detector, ch.detections, &counters);
      r.detect_ms += ms_since(t);
      core::convert_chirp_events(ch.detections, slot == 0 ? asp.mic1 : asp.mic2);
    }
    t = Clock::now();
    core::finish_asp(asp, s.prior.nominal_period, s.prior.calibration_duration,
                     ctx.asp_options(), ws.arena());
    r.sfo_us.push_back(1000.0 * ms_since(t));
    r.candidates += registry.counter("detector.candidates_total").value();
    r.detections += registry.counter("detector.detections_total").value();

    // The pipeline's own spans around one full run.
    obs::Tracer tracer;
    const obs::ObsContext traced{nullptr, &tracer, 1};
    (void)core::try_localize(s, config, ctx, ws, nullptr, &traced);
    std::vector<Span> spans;
    for (const obs::SpanRecord& rec : tracer.snapshot()) {
      spans.push_back({rec.id, rec.parent, rec.session, rec.name, rec.start_ms,
                       rec.start_ms + rec.duration_ms});
    }
    const std::vector<double> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "asp") r.asp_self_ms += self[i];
      if (spans[i].name == "session") r.session_span_ms += spans[i].end_ms - spans[i].start_ms;
    }
    r.samples += static_cast<double>(s.audio.mic1.size());
  }
  return r;
}

}  // namespace perfbench
