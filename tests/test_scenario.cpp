#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/error.hpp"

namespace hyperear::sim {
namespace {

ScenarioConfig fast_config() {
  ScenarioConfig c;
  c.speaker_distance = 3.0;
  c.slides_per_stature = 2;
  c.calibration_duration = 2.0;
  c.hold_duration = 0.6;
  c.jitter = ruler_jitter();
  return c;
}

TEST(Scenario, SessionShapesConsistent) {
  Rng rng(131);
  const Session s = make_localization_session(fast_config(), rng);
  EXPECT_EQ(s.audio.mic1.size(), s.audio.mic2.size());
  EXPECT_GT(s.audio.mic1.size(), 44100u);  // several seconds of audio
  // IMU and audio cover the same wall-clock span (within a sample).
  const double audio_dur = static_cast<double>(s.audio.mic1.size()) / s.audio.sample_rate;
  const double imu_dur = static_cast<double>(s.imu.size()) / s.imu.sample_rate;
  EXPECT_NEAR(audio_dur, imu_dur, 0.05);
}

TEST(Scenario, GroundTruthGeometry) {
  Rng rng(132);
  ScenarioConfig c = fast_config();
  c.speaker_distance = 3.0;
  const Session s = make_localization_session(c, rng);
  const double range =
      distance(s.truth.speaker_position.xy(), s.truth.phone_start_position.xy());
  EXPECT_NEAR(range, 3.0, 1e-9);
  EXPECT_EQ(s.truth.slides.size(), 2u);
  EXPECT_DOUBLE_EQ(s.truth.speaker_position.z, c.speaker_height);
}

TEST(Scenario, PriorContainsNoTruthLeak) {
  Rng rng(133);
  const Session s = make_localization_session(fast_config(), rng);
  // The prior's start position is legitimate knowledge (the user's own
  // location); believed yaw equals the true slide yaw because the user
  // physically ended SDF there.
  EXPECT_DOUBLE_EQ(s.prior.phone_start_position.x, s.truth.phone_start_position.x);
  EXPECT_DOUBLE_EQ(s.prior.believed_yaw, s.truth.in_direction_yaw);
  EXPECT_DOUBLE_EQ(s.prior.nominal_period, 0.2);
}

TEST(Scenario, ClockOffsetsDrawnPerSession) {
  Rng rng(134);
  const Session a = make_localization_session(fast_config(), rng);
  const Session b = make_localization_session(fast_config(), rng);
  EXPECT_NE(a.truth.speaker_true_period, b.truth.speaker_true_period);
  EXPECT_NE(a.config.phone.adc.clock_offset_ppm, b.config.phone.adc.clock_offset_ppm);
}

TEST(Scenario, PlacementRandomizedButRangePreserved) {
  Rng rng(135);
  ScenarioConfig c = fast_config();
  const Session a = make_localization_session(c, rng);
  const Session b = make_localization_session(c, rng);
  EXPECT_NE(a.truth.phone_start_position.x, b.truth.phone_start_position.x);
  const double ra = distance(a.truth.speaker_position.xy(), a.truth.phone_start_position.xy());
  const double rb = distance(b.truth.speaker_position.xy(), b.truth.phone_start_position.xy());
  EXPECT_NEAR(ra, rb, 1e-9);
}

TEST(Scenario, FixedPlacementWhenRequested) {
  ScenarioConfig c = fast_config();
  c.randomize_placement = false;
  Rng r1(136), r2(137);
  const Session a = make_localization_session(c, r1);
  const Session b = make_localization_session(c, r2);
  EXPECT_DOUBLE_EQ(a.truth.phone_start_position.x, b.truth.phone_start_position.x);
  EXPECT_DOUBLE_EQ(a.truth.phone_start_position.y, b.truth.phone_start_position.y);
}

TEST(Scenario, TwoStatureTimelineAnnotated) {
  Rng rng(138);
  ScenarioConfig c = fast_config();
  c.two_statures = true;
  const Session s = make_localization_session(c, rng);
  EXPECT_GT(s.truth.stature_change_start, 0.0);
  EXPECT_GT(s.truth.stature_change_end, s.truth.stature_change_start);
  EXPECT_EQ(s.truth.slides.size(), 4u);  // 2 per stature
  EXPECT_TRUE(s.prior.two_statures);
  // Slides after the stature change happen at the raised height.
  EXPECT_NEAR(s.truth.slides.back().from.z, c.phone_height + c.stature_change, 1e-9);
}

TEST(Scenario, DeterministicGivenSeed) {
  Rng r1(139), r2(139);
  const Session a = make_localization_session(fast_config(), r1);
  const Session b = make_localization_session(fast_config(), r2);
  EXPECT_EQ(a.audio.mic1, b.audio.mic1);
  EXPECT_EQ(a.imu.accel_y, b.imu.accel_y);
}

/// FNV-1a over the bytes of a sample buffer.
std::uint64_t fnv1a(std::span<const double> samples) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : samples) {
    unsigned char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(Scenario, SimulatedAudioBitsArePinned) {
  // The exact bits of two seeded sessions: one in the quiet meeting room,
  // one in the busy mall. Both calibrate their noise floor through
  // dsp::band_power, so a change to the FFT or the periodogram that moves
  // a single sample of either microphone fails here.
  struct Pinned {
    Environment environment;
    std::uint64_t seed;
    std::uint64_t mic1;
    std::uint64_t mic2;
  };
  const Pinned cases[] = {
      {meeting_room_quiet(), 151, 0x2461c404d7233828ULL, 0x9ae26cbc5dc87413ULL},
      {mall_busy_hour(), 152, 0x36d68903c906f77fULL, 0x7f84e3219a63e80bULL},
  };
  for (const Pinned& p : cases) {
    ScenarioConfig c = fast_config();
    c.environment = p.environment;
    Rng rng(p.seed);
    const Session s = make_localization_session(c, rng);
    EXPECT_EQ(fnv1a(s.audio.mic1), p.mic1) << p.environment.name;
    EXPECT_EQ(fnv1a(s.audio.mic2), p.mic2) << p.environment.name;
  }
}

TEST(Scenario, RotationSweepSession) {
  Rng rng(140);
  ScenarioConfig c = fast_config();
  const Session s = make_rotation_sweep_session(c, 0.0, 3.14, 4.0, rng);
  EXPECT_TRUE(s.truth.slides.empty());
  EXPECT_GT(s.audio.mic1.size(), static_cast<std::size_t>(5.5 * 44100));
}

TEST(Scenario, ImpossibleGeometryThrows) {
  Rng rng(141);
  ScenarioConfig c = fast_config();
  c.speaker_distance = 100.0;  // larger than the meeting room
  EXPECT_THROW((void)make_localization_session(c, rng), PreconditionError);
  c = fast_config();
  c.slides_per_stature = 0;
  EXPECT_THROW((void)make_localization_session(c, rng), PreconditionError);
}

}  // namespace
}  // namespace hyperear::sim
