#include "sim/acoustic_renderer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/ols.hpp"
#include "dsp/spectrum.hpp"
#include "support/oracles.hpp"

namespace hyperear::sim {
namespace {

/// Valid-mode correlation of x against `ref`: the full convolution with
/// the reversed reference from lag 0 on.
std::vector<double> correlate(std::span<const double> x, const std::vector<double>& ref) {
  const dsp::OlsConvolver reversed(std::vector<double>(ref.rbegin(), ref.rend()));
  dsp::Workspace ws;
  std::vector<double> out(x.size() - ref.size() + 1);
  reversed.convolve_into(x, ref.size() - 1, out.size(), out.data(), ws);
  return out;
}

Environment anechoic() {
  Environment env = meeting_room_quiet();
  env.room.max_order = 0;  // direct path only
  return env;
}

Trajectory static_phone(const geom::Vec3& pos, double duration, Rng& rng) {
  TrajectoryBuilder b(pos, 0.0);
  b.hold(duration);
  return b.build(ruler_jitter(), rng);
}

TEST(Renderer, ArrivalDelayMatchesGeometry) {
  Rng rng(121);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  spec.start_offset_s = 0.1;
  // Speaker 3.43 m along +x from the phone: delay exactly 10 ms.
  const geom::Vec3 phone_pos{5.0, 6.5, 1.3};
  const Speaker speaker(spec, {5.0 + 3.43, 6.5, 1.3});
  const Trajectory traj = static_phone(phone_pos, 1.0, rng);
  RenderOptions opts;
  opts.add_noise = false;
  opts.quantize = false;
  Environment env = anechoic();
  const StereoRecording rec = render_audio(speaker, phone, env, traj, 1.0, rng, opts);

  // Matched filter localizes the arrival.
  const dsp::Chirp chirp(spec.chirp);
  const std::vector<double> ref = chirp.reference(44100.0);
  const std::vector<double> corr = correlate(rec.mic1, ref);
  const double arrival = static_cast<double>(argmax(corr)) / 44100.0;
  // Mics are offset from the phone center by D/2 perpendicular to the LoS,
  // which adds < 0.1 ms; the emission + propagation delay dominates.
  EXPECT_NEAR(arrival, 0.1 + 0.01, 5e-4);
}

TEST(Renderer, InterMicTdoaSignConvention) {
  // Speaker placed along body +y (toward Mic1): Mic1 hears chirps EARLIER.
  Rng rng(122);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  const geom::Vec3 phone_pos{8.0, 5.0, 1.3};
  const Speaker speaker(spec, {8.0, 5.0 + 4.0, 1.3});  // +y world = +y body at yaw 0
  const Trajectory traj = static_phone(phone_pos, 1.0, rng);
  RenderOptions opts;
  opts.add_noise = false;
  Environment env = anechoic();
  const StereoRecording rec = render_audio(speaker, phone, env, traj, 1.0, rng, opts);
  const dsp::Chirp chirp(spec.chirp);
  const std::vector<double> ref = chirp.reference(44100.0);
  // Restrict to the FIRST chirp so both mics measure the same arrival
  // (later chirps have near-identical correlation heights and the global
  // argmax could pick different instances per mic).
  const std::size_t window = static_cast<std::size_t>(0.3 * 44100.0);
  const std::vector<double> c1 = correlate({rec.mic1.data(), window}, ref);
  const std::vector<double> c2 = correlate({rec.mic2.data(), window}, ref);
  const auto p1 = argmax(c1);
  const auto p2 = argmax(c2);
  // TDoA ~ D / S ~ 0.4 ms ~ 17.6 samples.
  EXPECT_GT(static_cast<double>(p2) - static_cast<double>(p1), 12.0);
  EXPECT_LT(static_cast<double>(p2) - static_cast<double>(p1), 22.0);
}

TEST(Renderer, AmplitudeFollowsInverseDistance) {
  Rng rng(123);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  RenderOptions opts;
  opts.add_noise = false;
  Environment env = anechoic();
  double rms_near, rms_far;
  {
    Rng r2 = rng.split();
    const Speaker speaker(spec, {7.0, 6.5, 1.3});
    const Trajectory traj = static_phone({5.0, 6.5, 1.3}, 1.0, rng);  // 2 m
    const StereoRecording rec = render_audio(speaker, phone, env, traj, 1.0, r2, opts);
    rms_near = rms(rec.mic1);
  }
  {
    Rng r2 = rng.split();
    const Speaker speaker(spec, {11.0, 6.5, 1.3});
    const Trajectory traj = static_phone({5.0, 6.5, 1.3}, 1.0, rng);  // 6 m
    const StereoRecording rec = render_audio(speaker, phone, env, traj, 1.0, r2, opts);
    rms_far = rms(rec.mic1);
  }
  EXPECT_NEAR(rms_near / rms_far, 3.0, 0.2);
}

TEST(Renderer, MultipathAddsEnergyAfterDirect) {
  Rng rng(124);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  RenderOptions opts;
  opts.add_noise = false;
  Environment reverberant = meeting_room_quiet();
  Environment dry = anechoic();
  const geom::Vec3 phone_pos{5.0, 6.5, 1.3};
  const Speaker speaker(spec, {10.0, 6.5, 1.3});
  Rng ra(5), rb(5);
  const StereoRecording wet_rec = render_audio(
      speaker, phone, reverberant, static_phone(phone_pos, 1.0, ra), 1.0, ra, opts);
  const StereoRecording dry_rec =
      render_audio(speaker, phone, dry, static_phone(phone_pos, 1.0, rb), 1.0, rb, opts);
  EXPECT_GT(dsp::signal_power(wet_rec.mic1), 1.2 * dsp::signal_power(dry_rec.mic1));
}

TEST(Renderer, SnrCalibrationApproximatelyHolds) {
  Rng rng(125);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  spec.start_offset_s = 0.19;  // leave a noise-only head before chirp 0
  Environment env = anechoic();
  env.snr_db = 10.0;
  const geom::Vec3 phone_pos{5.0, 6.5, 1.3};
  const Speaker speaker(spec, {9.0, 6.5, 1.3});
  const Trajectory traj = static_phone(phone_pos, 2.0, rng);
  const StereoRecording rec = render_audio(speaker, phone, env, traj, 2.0, rng);
  // Noise-only head vs. the chirp body.
  const std::size_t head = static_cast<std::size_t>(0.15 * 44100.0);
  const double noise_power = dsp::signal_power({rec.mic1.data(), head});
  const double amp = 0.5 / 4.0;  // source amplitude over distance
  const dsp::Chirp chirp(spec.chirp);
  const double sig_power = amp * amp * dsp::signal_power(chirp.sample(44100.0));
  EXPECT_NEAR(oracle::power_to_db(sig_power / noise_power), 10.0, 1.5);
}

TEST(Renderer, SfoShiftsArrivalsOverTime) {
  // With a +100 ppm speaker clock, the k-th inter-chirp gap grows by
  // 100 ppm; over 50 chirps the cumulative shift is ~1 ms.
  Rng rng(126);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  spec.clock_offset_ppm = 100.0;
  RenderOptions opts;
  opts.add_noise = false;
  Environment env = anechoic();
  const Speaker speaker(spec, {9.0, 6.5, 1.3});
  const Trajectory traj = static_phone({5.0, 6.5, 1.3}, 10.5, rng);
  const StereoRecording rec = render_audio(speaker, phone, env, traj, 10.5, rng, opts);
  const dsp::Chirp chirp(spec.chirp);
  const std::vector<double> ref = chirp.reference(44100.0);
  // Locate the first and the 50th chirp by windowed correlation.
  const std::vector<double> corr = correlate(rec.mic1, ref);
  const std::size_t first = argmax({corr.data(), static_cast<std::size_t>(0.25 * 44100)});
  const std::size_t w50 = static_cast<std::size_t>((0.2 * 50 - 0.05) * 44100);
  const std::size_t win = static_cast<std::size_t>(0.2 * 44100);
  const std::size_t fifty = w50 + argmax({corr.data() + w50, win});
  const double gap = (static_cast<double>(fifty) - static_cast<double>(first)) / 44100.0;
  EXPECT_NEAR(gap, 50 * 0.2 * (1.0 + 100e-6), 2e-4);
  EXPECT_GT(gap, 50 * 0.2 + 5e-4);  // visibly longer than nominal
}

TEST(Renderer, QuantizationBoundsSamples) {
  Rng rng(127);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  Environment env = meeting_room_quiet();
  const Speaker speaker(spec, {6.0, 6.5, 1.3});
  const Trajectory traj = static_phone({5.0, 6.5, 1.3}, 0.5, rng);
  const StereoRecording rec = render_audio(speaker, phone, env, traj, 0.5, rng);
  const double step = 1.0 / 32768.0;
  for (std::size_t i = 0; i < 200; ++i) {
    const double v = rec.mic1[i];
    EXPECT_NEAR(v / step, std::round(v / step), 1e-6);
  }
}

TEST(Renderer, BadArgsThrow) {
  Rng rng(128);
  const PhoneSpec phone = galaxy_s4();
  SpeakerSpec spec;
  Environment env = anechoic();
  const Speaker speaker(spec, {6.0, 6.5, 1.3});
  const Trajectory traj = static_phone({5.0, 6.5, 1.3}, 0.5, rng);
  EXPECT_THROW((void)render_audio(speaker, phone, env, traj, 0.0, rng), PreconditionError);
}

}  // namespace
}  // namespace hyperear::sim
