#include "core/asp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "core/pipeline.hpp"
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

}  // namespace
}  // namespace hyperear::core
