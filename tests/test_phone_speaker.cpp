#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/microphone.hpp"
#include "sim/phone.hpp"
#include "sim/speaker.hpp"

namespace hyperear::sim {
namespace {

TEST(PhoneSpec, PresetsMatchPaper) {
  const PhoneSpec s4 = galaxy_s4();
  EXPECT_DOUBLE_EQ(s4.mic_separation, 0.1366);
  EXPECT_EQ(s4.name, "Galaxy S4");
  const PhoneSpec n3 = galaxy_note3();
  EXPECT_DOUBLE_EQ(n3.mic_separation, 0.1512);
  EXPECT_DOUBLE_EQ(s4.adc.sample_rate, 44100.0);
  EXPECT_EQ(s4.adc.bits, 16);
}

TEST(PhoneSpec, MicPositionsAlongBodyY) {
  const PhoneSpec s4 = galaxy_s4();
  const geom::Vec3 m1 = s4.mic1_body();
  const geom::Vec3 m2 = s4.mic2_body();
  EXPECT_DOUBLE_EQ(m1.x, 0.0);
  EXPECT_DOUBLE_EQ(m1.y, s4.mic_separation / 2.0);
  EXPECT_DOUBLE_EQ(m2.y, -s4.mic_separation / 2.0);
  EXPECT_DOUBLE_EQ(distance(m1, m2), s4.mic_separation);
}

TEST(Speaker, EmissionScheduleWithClockOffset) {
  SpeakerSpec spec;
  spec.period_s = 0.2;
  spec.clock_offset_ppm = 50.0;
  spec.start_offset_s = 0.1;
  const Speaker spk(spec, {1.0, 2.0, 0.5});
  EXPECT_NEAR(spk.true_period(), 0.2 * (1.0 + 50e-6), 1e-12);
  EXPECT_NEAR(spk.emission_time(0), 0.1, 1e-12);
  EXPECT_NEAR(spk.emission_time(10), 0.1 + 10.0 * spk.true_period(), 1e-12);
  EXPECT_THROW((void)spk.emission_time(-1), PreconditionError);
}

TEST(Speaker, FirstChirpAfter) {
  SpeakerSpec spec;
  spec.start_offset_s = 0.05;
  const Speaker spk(spec, {1, 1, 1});
  EXPECT_EQ(spk.first_chirp_after(0.0), 0);
  EXPECT_EQ(spk.first_chirp_after(0.06), 1);
  EXPECT_EQ(spk.first_chirp_after(0.05 + 5 * spk.true_period()), 5);
}

TEST(Speaker, WaveformActiveOnlyDuringChirps) {
  SpeakerSpec spec;
  spec.start_offset_s = 0.1;
  const Speaker spk(spec, {1, 1, 1});
  EXPECT_DOUBLE_EQ(spk.waveform(0.05), 0.0);                          // before first chirp
  EXPECT_NE(spk.waveform(0.11), 0.0);                                 // inside chirp 0
  EXPECT_DOUBLE_EQ(spk.waveform(0.1 + spec.chirp.duration_s + 0.01), 0.0);  // gap
  EXPECT_NE(spk.waveform(0.1 + spk.true_period() + 0.01), 0.0);       // inside chirp 1
}

TEST(Speaker, PeriodMustExceedChirp) {
  SpeakerSpec spec;
  spec.period_s = 0.04;  // shorter than the 50 ms chirp
  EXPECT_THROW(Speaker(spec, {1, 1, 1}), PreconditionError);
}

TEST(Adc, QuantizationSnapsToGrid) {
  AdcSpec adc;
  adc.bits = 8;
  adc.full_scale = 1.0;
  std::vector<double> s{0.1234, -0.5678, 0.9999, -1.5};
  quantize_inplace(s, adc);
  const double step = 1.0 / 128.0;
  for (double v : s) {
    EXPECT_NEAR(v / step, std::round(v / step), 1e-9);
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0 - step + 1e-12);
  }
}

TEST(Adc, QuantizationErrorBounded) {
  AdcSpec adc;  // 16 bits
  std::vector<double> s{0.123456789};
  const double orig = s[0];
  quantize_inplace(s, adc);
  EXPECT_NEAR(s[0], orig, 1.0 / 65536.0);
}

TEST(Adc, SelfNoiseAddsPower) {
  AdcSpec adc;
  adc.self_noise_rms = 0.01;
  Rng rng(91);
  std::vector<double> s(10000, 0.0);
  add_self_noise_inplace(s, adc, rng);
  double e = 0.0;
  for (double v : s) e += v * v;
  EXPECT_NEAR(std::sqrt(e / static_cast<double>(s.size())), 0.01, 0.001);
}

TEST(Adc, SkewedClockInstants) {
  AdcSpec adc;
  adc.clock_offset_ppm = 100.0;
  EXPECT_NEAR(effective_sample_rate(adc), 44100.0 * 1.0001, 1e-6);
  // Sample 44100 is taken slightly before one nominal second.
  EXPECT_LT(44100.0 / effective_sample_rate(adc), 1.0);
  EXPECT_EQ(sample_count(adc, 1.0), 44104u);
}

}  // namespace
}  // namespace hyperear::sim
