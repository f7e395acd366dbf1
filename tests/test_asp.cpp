#include "core/asp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/pipeline_detail.hpp"
#include "core/session_workspace.hpp"
#include "core/streaming_session.hpp"
#include "dsp/matched_filter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/ols.hpp"
#include "sim/scenario.hpp"

namespace hyperear::core {
namespace {

sim::ScenarioConfig fast_config() {
  sim::ScenarioConfig c;
  c.speaker_distance = 3.0;
  c.slides_per_stature = 1;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  return c;
}

TEST(Asp, DetectsAllChirpsInSession) {
  Rng rng(151);
  const sim::Session s = sim::make_localization_session(fast_config(), rng);
  const AspResult asp = preprocess_audio(s.audio, s.prior.chirp, 0.2,
                                         s.prior.calibration_duration);
  const double duration = static_cast<double>(s.audio.mic1.size()) / s.audio.sample_rate;
  const auto expected = static_cast<std::size_t>(duration / 0.2);
  EXPECT_NEAR(static_cast<double>(asp.mic1.size()), static_cast<double>(expected), 2.0);
  EXPECT_NEAR(static_cast<double>(asp.mic2.size()), static_cast<double>(expected), 2.0);
}

TEST(Asp, SfoEstimateMatchesTrueRelativeOffset) {
  Rng rng(152);
  sim::ScenarioConfig c = fast_config();
  c.speaker_clock_ppm_sigma = 40.0;
  c.phone_clock_ppm_sigma = 30.0;
  const sim::Session s = sim::make_localization_session(c, rng);
  const AspResult asp = preprocess_audio(s.audio, s.prior.chirp, 0.2,
                                         s.prior.calibration_duration);
  ASSERT_TRUE(asp.sfo_estimated);
  // The observable offset is the speaker period scaled by the phone clock:
  // T_obs = T_spk_true * (1 + ppm_phone).
  const double t_obs = s.truth.speaker_true_period *
                       (1.0 + s.config.phone.adc.clock_offset_ppm * 1e-6);
  const double true_rel_ppm = (t_obs / 0.2 - 1.0) * 1e6;
  EXPECT_NEAR(asp.sfo_ppm, true_rel_ppm, 3.0);
}

TEST(Asp, DisablingSfoKeepsNominalPeriod) {
  Rng rng(153);
  const sim::Session s = sim::make_localization_session(fast_config(), rng);
  AspOptions opts;
  opts.sfo_correction = false;
  const AspResult asp =
      preprocess_audio(s.audio, s.prior.chirp, 0.2, s.prior.calibration_duration, opts);
  EXPECT_FALSE(asp.sfo_estimated);
  EXPECT_DOUBLE_EQ(asp.estimated_period, 0.2);
  EXPECT_DOUBLE_EQ(asp.sfo_ppm, 0.0);
}

TEST(Asp, BandpassRemovesVoiceNoiseEffect) {
  // In a chatting room the detector still finds every chirp: the voice
  // noise lies below the chirp band, and the matched filter correlates
  // only against the chirp.
  Rng rng(154);
  sim::ScenarioConfig c = fast_config();
  c.environment = sim::meeting_room_chatting();
  const sim::Session s = sim::make_localization_session(c, rng);
  const AspResult with_bp = preprocess_audio(s.audio, s.prior.chirp, 0.2,
                                             s.prior.calibration_duration);
  const double duration = static_cast<double>(s.audio.mic1.size()) / s.audio.sample_rate;
  const auto expected = static_cast<std::size_t>(duration / 0.2);
  EXPECT_NEAR(static_cast<double>(with_bp.mic1.size()), static_cast<double>(expected), 2.0);
}

TEST(Asp, BandpassPrefilterReproducesTheOldInPipelineFilter) {
  // ASP used to band-pass each detector chunk with a 255-tap FIR over the
  // chirp band +- 200 Hz; every chunk window was an exact slice of the
  // whole-channel filter. So filtering the recording up front and running
  // today's filter-free pipeline must give the fix the old default gave,
  // bit for bit: the range below was recorded from the pipeline with the
  // filter still inside ASP. bench_ablation_design's band-pass rows rely
  // on this.
  Rng rng(155);
  sim::ScenarioConfig c = fast_config();
  c.environment = sim::meeting_room_chatting();
  sim::Session s = sim::make_localization_session(c, rng);
  const dsp::OlsConvolver kernel(dsp::design_bandpass(s.prior.chirp.freq_low_hz - 200.0,
                                                      s.prior.chirp.freq_high_hz + 200.0,
                                                      s.audio.sample_rate, 255));
  dsp::Workspace ws;
  const sim::StereoRecording raw = s.audio;
  dsp::filter_same_into(raw.mic1, kernel, s.audio.mic1, ws);
  dsp::filter_same_into(raw.mic2, kernel, s.audio.mic2, ws);
  const auto fix = try_localize(s, PipelineConfig{});
  ASSERT_TRUE(fix.has_value());
  ASSERT_TRUE(fix->valid);
  EXPECT_EQ(fix->range, 0x1.908d815707ab6p+1);
}

TEST(EstimatePeriod, ExactOnCleanArrivals) {
  std::vector<ChirpEvent> events;
  const double t = 0.2000042;  // 21 ppm
  for (int i = 0; i < 15; ++i) events.push_back({0.37 + i * t, 0.9});
  const double est = estimate_period(events, 0.2, 10.0, 5);
  EXPECT_NEAR(est, t, 1e-9);
}

TEST(EstimatePeriod, TolerantOfMissedDetections) {
  std::vector<ChirpEvent> events;
  const double t = 0.1999958;
  for (int i = 0; i < 20; ++i) {
    if (i == 7 || i == 13) continue;  // two missed chirps
    events.push_back({0.1 + i * t, 0.9});
  }
  const double est = estimate_period(events, 0.2, 10.0, 5);
  EXPECT_NEAR(est, t, 1e-8);
}

TEST(EstimatePeriod, RobustToOneOutlier) {
  std::vector<ChirpEvent> events;
  const double t = 0.2;
  for (int i = 0; i < 16; ++i) events.push_back({0.1 + i * t, 0.9});
  events[5].time_s += 0.004;  // gross timing outlier (echo lock)
  const double est = estimate_period(events, 0.2, 10.0, 5);
  EXPECT_NEAR(est, t, 2e-7);
}

TEST(EstimatePeriod, TooFewEventsThrow) {
  std::vector<ChirpEvent> events{{0.1, 0.9}, {0.3, 0.9}};
  EXPECT_THROW((void)estimate_period(events, 0.2, 10.0, 5), DetectionError);
}

TEST(EstimatePeriod, WindowRestrictsEvents) {
  std::vector<ChirpEvent> events;
  for (int i = 0; i < 30; ++i) events.push_back({0.1 + i * 0.2, 0.9});
  // Corrupt everything after 3 s; a 3 s window must ignore it.
  for (auto& e : events) {
    if (e.time_s > 3.0) e.time_s += 0.05;
  }
  const double est = estimate_period(events, 0.2, 3.0, 5);
  EXPECT_NEAR(est, 0.2, 1e-9);
}

TEST(Asp, BadRecordingThrows) {
  sim::StereoRecording rec;
  rec.mic1 = {1.0, 2.0};
  rec.mic2 = {1.0};
  EXPECT_THROW((void)preprocess_audio(rec, dsp::ChirpParams{}, 0.2, 2.0), PreconditionError);
}

/// The message a rejected recording raises.
std::string rejection(const sim::StereoRecording& rec) {
  try {
    (void)preprocess_audio(rec, dsp::ChirpParams{}, 0.2, 2.0);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Asp, ChannelLengthMismatchNamesBothLengths) {
  sim::StereoRecording rec;
  rec.mic1 = {1.0, 2.0};
  rec.mic2 = {1.0};
  EXPECT_EQ(rejection(rec), "preprocess_audio: mic1 has 2 samples, mic2 has 1");
  rec.mic1.clear();
  EXPECT_EQ(rejection(rec), "preprocess_audio: mic1 has 0 samples, mic2 has 1");
}

TEST(Asp, EmptyRecordingIsNamedOnBothPaths) {
  EXPECT_EQ(rejection(sim::StereoRecording{}), "preprocess_audio: empty recording");
  // A stream that never received a sample fails with the same text.
  StreamingSession empty{sim::Session{}};
  const auto streamed = empty.finalize();
  ASSERT_FALSE(streamed.has_value());
  EXPECT_EQ(streamed.error().message, "preprocess_audio: empty recording");
}

// --------------------------------------------------------------------------
// Beacon-gated ASP: the service stage searches a full-search head and then
// only the gates its arrivals schedule; the full search (`detect_into` +
// `finish_asp`) is the oracle.

/// The full-search oracle of the ASP stage over `audio`.
AspResult full_search(const sim::StereoRecording& audio, const PipelineContext& context,
                      double nominal_period, double calibration_duration) {
  AspResult r;
  dsp::DetectorWorkspace ws;
  std::vector<dsp::Detection> detections;
  context.detector().detect_into(audio.mic1, ws, detections);
  convert_chirp_events(detections, r.mic1);
  context.detector().detect_into(audio.mic2, ws, detections);
  convert_chirp_events(detections, r.mic2);
  MonotonicArena arena;
  finish_asp(r, nominal_period, calibration_duration, context.asp_options(), arena);
  return r;
}

/// The service stage's result and its work counters.
struct GatedRun {
  AspResult asp;
  double correlated_lags = 0.0;
  double gates = 0.0;
  double fallback = 0.0;
};

GatedRun gated(const sim::StereoRecording& audio, const PipelineContext& context,
               double nominal_period, double calibration_duration) {
  SessionWorkspace workspace;
  obs::MetricsRegistry registry;
  const obs::ObsContext obs{&registry, nullptr, 1};
  GatedRun run;
  run.asp = preprocess_audio(audio, nominal_period, calibration_duration, context,
                             workspace, &obs);
  run.correlated_lags = registry.counter("asp.correlated_lags_total").value();
  run.gates = registry.counter("asp.gates_total").value();
  run.fallback = registry.counter("asp.acquisition_fallback_total").value();
  return run;
}

/// Same arrivals: equal counts and grid lags, times within 1e-9 s, scores
/// and amplitudes within 1e-9 relative, and the SFO fit that follows.
void expect_matches_oracle(const AspResult& got, const AspResult& want, double fs) {
  for (const auto& [g, w] :
       {std::pair{&got.mic1, &want.mic1}, std::pair{&got.mic2, &want.mic2}}) {
    ASSERT_EQ(g->size(), w->size());
    for (std::size_t i = 0; i < g->size(); ++i) {
      const ChirpEvent& a = (*g)[i];
      const ChirpEvent& b = (*w)[i];
      EXPECT_EQ(std::lround(a.time_s * fs), std::lround(b.time_s * fs)) << "event " << i;
      EXPECT_LE(std::abs(a.time_s - b.time_s), 1e-9) << "event " << i;
      EXPECT_LE(std::abs(a.score - b.score), 1e-9 * b.score) << "event " << i;
      EXPECT_LE(std::abs(a.amplitude - b.amplitude), 1e-9 * b.amplitude) << "event " << i;
    }
  }
  EXPECT_EQ(got.sfo_estimated, want.sfo_estimated);
  EXPECT_NEAR(got.estimated_period, want.estimated_period, 1e-12);
}

/// Bit-equal arrivals and SFO fit.
void expect_bit_equal(const AspResult& got, const AspResult& want) {
  for (const auto& [g, w] :
       {std::pair{&got.mic1, &want.mic1}, std::pair{&got.mic2, &want.mic2}}) {
    ASSERT_EQ(g->size(), w->size());
    for (std::size_t i = 0; i < g->size(); ++i) {
      EXPECT_EQ((*g)[i].time_s, (*w)[i].time_s) << "event " << i;
      EXPECT_EQ((*g)[i].score, (*w)[i].score) << "event " << i;
      EXPECT_EQ((*g)[i].amplitude, (*w)[i].amplitude) << "event " << i;
    }
  }
  EXPECT_EQ(got.estimated_period, want.estimated_period);
  EXPECT_EQ(got.sfo_ppm, want.sfo_ppm);
}

/// A default-length session (five slides per stature).
sim::Session gate_session(std::uint64_t seed, const sim::Environment& env, bool hand,
                          bool three_d) {
  sim::ScenarioConfig c;
  c.environment = env;
  c.speaker_distance = 7.0;
  c.jitter = hand ? sim::hand_jitter() : sim::ruler_jitter();
  c.two_statures = three_d;
  Rng rng(seed);
  return sim::make_localization_session(c, rng);
}

TEST(GatedAsp, DetectionsMatchTheFullSearchOnTheSessionMatrix) {
  // One session per environment, 2D with the ruler and by hand, and 3D.
  struct Case {
    sim::Environment env;
    bool hand;
    bool three_d;
  };
  const Case cases[] = {
      {sim::meeting_room_quiet(), false, false},
      {sim::meeting_room_chatting(), true, false},
      {sim::mall_off_peak(), false, false},
      {sim::mall_busy_hour(), true, false},
      {sim::meeting_room_quiet(), false, true},
      {sim::mall_busy_hour(), true, true},
  };
  std::uint64_t seed = 1200;
  for (const Case& c : cases) {
    SCOPED_TRACE(seed);
    const sim::Session s = gate_session(seed++, c.env, c.hand, c.three_d);
    const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
    const GatedRun run =
        gated(s.audio, context, s.prior.nominal_period, s.prior.calibration_duration);
    EXPECT_GT(run.gates, 50.0);
    EXPECT_EQ(run.fallback, 0.0);
    expect_matches_oracle(run.asp,
                          full_search(s.audio, context, s.prior.nominal_period,
                                      s.prior.calibration_duration),
                          s.audio.sample_rate);
  }
}

TEST(GatedAsp, WorkCountersPinnedOnOneSession) {
  // The counts are deterministic; the gated stage scans more than 3x fewer
  // correlation lags than the full search of the same recording.
  const sim::Session s = gate_session(1300, sim::meeting_room_quiet(), false, false);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  const GatedRun run =
      gated(s.audio, context, s.prior.nominal_period, s.prior.calibration_duration);
  const std::size_t m = context.detector().reference().size();
  const double full_lags = 2.0 * static_cast<double>(s.audio.mic1.size() - m + 1);
  EXPECT_EQ(s.audio.mic1.size(), 595341u);
  EXPECT_EQ(run.gates, 62.0);
  // Per channel: four 11976-lag head chunks, 61 gate windows of 2G + 3 =
  // 1891 lags, and the last gate, clipped at the recording's end to 364.
  EXPECT_EQ(run.correlated_lags, 2.0 * (4 * 11976 + 61 * 1891 + 364));
  EXPECT_EQ(run.fallback, 0.0);
  EXPECT_LT(3.0 * run.correlated_lags, full_lags);
}

TEST(GatedAsp, RecordingShorterThanTheHeadIsTheFullSearch) {
  Rng rng(1310);
  sim::Session s = sim::make_localization_session(fast_config(), rng);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  const dsp::MatchedFilterDetector& det = context.detector();
  const std::size_t head =
      detail::head_chunks(det, context.asp_options(), s.prior.nominal_period);
  ASSERT_EQ(head, 4u);
  // Three and a half head chunks of samples.
  const std::size_t n = det.chunk_samples(1) * 7 / 2;
  s.audio.mic1.resize(n);
  s.audio.mic2.resize(n);
  const GatedRun run = gated(s.audio, context, 0.2, 0.5);
  EXPECT_EQ(run.gates, 0.0);
  EXPECT_EQ(run.fallback, 0.0);
  EXPECT_FALSE(run.asp.mic1.empty());
  expect_bit_equal(run.asp, full_search(s.audio, context, 0.2, 0.5));
}

TEST(GatedAsp, HeadWithoutAChirpFallsBackToTheFullSearch) {
  // The first 1.2 s are silent, so the 1.09 s head selects no arrival and
  // the rest of the recording runs today's chunk schedule, bit for bit.
  Rng rng(1320);
  sim::Session s = sim::make_localization_session(fast_config(), rng);
  const auto silent = static_cast<std::ptrdiff_t>(1.2 * s.audio.sample_rate);
  std::fill(s.audio.mic1.begin(), s.audio.mic1.begin() + silent, 0.0);
  std::fill(s.audio.mic2.begin(), s.audio.mic2.begin() + silent, 0.0);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  const GatedRun run =
      gated(s.audio, context, s.prior.nominal_period, s.prior.calibration_duration);
  EXPECT_EQ(run.fallback, 1.0);
  EXPECT_EQ(run.gates, 0.0);
  EXPECT_GE(run.asp.mic1.size(), 15u);
  expect_bit_equal(run.asp, full_search(s.audio, context, s.prior.nominal_period,
                                        s.prior.calibration_duration));
}

TEST(GatedAsp, PeriodTooShortToGateRunsTheFullSearch) {
  // 0.15 s is 6615 lags, under 2G + 3 + min-spacing = 7184: gates could
  // meet under the min-spacing rule, so the whole recording is head.
  Rng rng(1330);
  const sim::Session s = sim::make_localization_session(fast_config(), rng);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  const dsp::MatchedFilterDetector& det = context.detector();
  EXPECT_EQ(2 * det.gate_half_width() + 3 + det.min_spacing_lags(), 7183u);
  EXPECT_EQ(detail::head_chunks(det, context.asp_options(), 0.15),
            std::numeric_limits<std::size_t>::max());
  const GatedRun run = gated(s.audio, context, 0.15, s.prior.calibration_duration);
  EXPECT_EQ(run.gates, 0.0);
  EXPECT_EQ(run.fallback, 0.0);
  expect_bit_equal(run.asp,
                   full_search(s.audio, context, 0.15, s.prior.calibration_duration));
}

TEST(GatedAsp, GateClippedAtTheRecordingEndMatchesTheFullSearch) {
  // Cut the recording 0, 1 and 200 lags after an arrival's grid lag: the
  // gate around it reaches past the last lag and is clipped there, and an
  // arrival on the very last lag is tested one-sided, as the full search's
  // final chunk tests it.
  Rng rng(1340);
  const sim::Session s = sim::make_localization_session(fast_config(), rng);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  const double fs = s.audio.sample_rate;
  const AspResult whole = full_search(s.audio, context, s.prior.nominal_period,
                                      s.prior.calibration_duration);
  ASSERT_GT(whole.mic1.size(), 20u);
  const auto lag = static_cast<std::size_t>(std::lround(whole.mic1[20].time_s * fs));
  const std::size_t m = context.detector().reference().size();
  for (const std::size_t after : {0u, 1u, 200u}) {
    SCOPED_TRACE(after);
    sim::StereoRecording cut = s.audio;
    cut.mic1.resize(lag + after + m);
    cut.mic2.resize(lag + after + m);
    const GatedRun run =
        gated(cut, context, s.prior.nominal_period, s.prior.calibration_duration);
    EXPECT_GT(run.gates, 10.0);
    EXPECT_EQ(run.fallback, 0.0);
    const AspResult want = full_search(cut, context, s.prior.nominal_period,
                                       s.prior.calibration_duration);
    expect_matches_oracle(run.asp, want, fs);
    EXPECT_EQ(std::lround(want.mic1.back().time_s * fs), static_cast<long>(lag));
  }
}

TEST(GatedAsp, WrongPeriodPriorsAreAbsorbedByTheHeadFit) {
  // The schedule is fitted, not taken from the prior: 1 % and 100 ppm
  // wrong priors gate where the chirps really land.
  Rng rng(1350);
  const sim::Session s = sim::make_localization_session(fast_config(), rng);
  const PipelineContext context(PipelineConfig{}, s.prior.chirp, s.audio.sample_rate);
  for (const double prior : {0.202, 0.2 * (1.0 + 100e-6)}) {
    SCOPED_TRACE(prior);
    const GatedRun run = gated(s.audio, context, prior, s.prior.calibration_duration);
    EXPECT_GT(run.gates, 20.0);
    EXPECT_EQ(run.fallback, 0.0);
    const AspResult want =
        full_search(s.audio, context, prior, s.prior.calibration_duration);
    expect_matches_oracle(run.asp, want, s.audio.sample_rate);
  }
}

// --------------------------------------------------------------------------
// Non-finite samples are refused at the door, wherever they lie: gating
// would otherwise ignore one outside every gate, and one inside a gate
// would poison both channels' shared transform.

/// A session and a sample index halfway between two late arrivals, so
/// outside every gate.
struct PoisonCase {
  sim::Session session;
  std::size_t between_gates = 0;
};

PoisonCase poison_case() {
  Rng rng(1360);
  PoisonCase p{sim::make_localization_session(fast_config(), rng), 0};
  const AspResult asp = preprocess_audio(p.session.audio, p.session.prior.chirp,
                                         p.session.prior.nominal_period,
                                         p.session.prior.calibration_duration);
  const double mid = 0.5 * (asp.mic1[20].time_s + asp.mic1[21].time_s);
  p.between_gates = static_cast<std::size_t>(mid * p.session.audio.sample_rate);
  return p;
}

/// What pushing `session`'s audio in slices of `slice` samples raises.
std::string stream_rejection(const sim::Session& session, std::size_t slice) {
  sim::Session meta = session;
  meta.audio.mic1.clear();
  meta.audio.mic2.clear();
  StreamingSession stream(meta);
  const std::span<const double> mic1(session.audio.mic1);
  const std::span<const double> mic2(session.audio.mic2);
  try {
    for (std::size_t pos = 0; pos < mic1.size(); pos += slice) {
      const std::size_t len = std::min(slice, mic1.size() - pos);
      stream.push(mic1.subspan(pos, len), mic2.subspan(pos, len));
    }
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "accepted";
}

std::string batch_rejection(const sim::Session& session) {
  try {
    (void)preprocess_audio(session.audio, session.prior.chirp,
                           session.prior.nominal_period,
                           session.prior.calibration_duration);
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(GatedAsp, BatchRefusesANanInMic1OutsideEveryGate) {
  PoisonCase p = poison_case();
  p.session.audio.mic1[p.between_gates] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(batch_rejection(p.session), "preprocess_audio: mic1 sample " +
                                            std::to_string(p.between_gates) +
                                            " is not finite");
  // The pipeline classifies it as an asp-stage precondition with that text.
  const auto fix = try_localize(p.session, {});
  ASSERT_FALSE(fix.has_value());
  EXPECT_EQ(fix.error().stage, PipelineStage::asp);
  EXPECT_EQ(fix.error().message, batch_rejection(p.session));
}

TEST(GatedAsp, BatchRefusesAnInfinityInMic2AndNamesMic1First) {
  PoisonCase p = poison_case();
  const std::size_t late = p.session.audio.mic2.size() - 3;
  p.session.audio.mic2[late] = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(batch_rejection(p.session),
            "preprocess_audio: mic2 sample " + std::to_string(late) + " is not finite");
  // Both channels bad: mic1 is named, whichever index comes first.
  p.session.audio.mic1[p.between_gates] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(batch_rejection(p.session), "preprocess_audio: mic1 sample " +
                                            std::to_string(p.between_gates) +
                                            " is not finite");
}

TEST(GatedAsp, StreamRefusesANanInMic1WithTheBatchText) {
  PoisonCase p = poison_case();
  p.session.audio.mic1[p.between_gates] = std::numeric_limits<double>::quiet_NaN();
  const std::string batch = batch_rejection(p.session);
  EXPECT_EQ(stream_rejection(p.session, 4410), batch);
  EXPECT_EQ(stream_rejection(p.session, p.session.audio.mic1.size()), batch);
}

TEST(GatedAsp, StreamRefusesAnInfinityInMic2WithTheBatchText) {
  PoisonCase p = poison_case();
  const std::size_t late = p.session.audio.mic2.size() - 3;
  p.session.audio.mic2[late] = std::numeric_limits<double>::infinity();
  const std::string batch = batch_rejection(p.session);
  EXPECT_EQ(batch,
            "preprocess_audio: mic2 sample " + std::to_string(late) + " is not finite");
  EXPECT_EQ(stream_rejection(p.session, 4410), batch);
  // One push of both bad channels reports in batch order.
  p.session.audio.mic1[p.between_gates] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(stream_rejection(p.session, p.session.audio.mic1.size()),
            batch_rejection(p.session));
}

}  // namespace
}  // namespace hyperear::core
