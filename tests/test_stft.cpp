#include "dsp/stft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/chirp.hpp"

namespace hyperear::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(2.0 * kPi * freq * static_cast<double>(i) / fs);
  return x;
}

TEST(Stft, FrameCountMatchesHop) {
  const std::vector<double> x(10000, 0.0);
  StftOptions opts;
  opts.frame = 1024;
  opts.hop = 512;
  const Spectrogram s = stft(x, 44100.0, opts);
  EXPECT_EQ(s.frames(), (10000 - 1024) / 512 + 1);
  EXPECT_EQ(s.bins(), 513u);
}

TEST(Stft, TonePeaksInCorrectBin) {
  const double fs = 44100.0;
  const std::vector<double> x = tone(4000.0, fs, 44100);
  const Spectrogram s = stft(x, fs);
  for (std::size_t t = 2; t < s.frames(); t += 17) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < s.bins(); ++k) {
      if (s.magnitude[t][k] > s.magnitude[t][best]) best = k;
    }
    EXPECT_NEAR(s.freq_of(best), 4000.0, 2.0 * s.bin_hz) << "frame " << t;
  }
}

TEST(Stft, TimeOfIncreasesByHop) {
  const std::vector<double> x(8192, 0.0);
  StftOptions opts;
  opts.frame = 1024;
  opts.hop = 256;
  const Spectrogram s = stft(x, 44100.0, opts);
  EXPECT_NEAR(s.time_of(1) - s.time_of(0), 256.0 / 44100.0, 1e-12);
  EXPECT_NEAR(s.time_of(0), 512.0 / 44100.0, 1e-12);
}

TEST(Stft, TimeOfCentersNonPowerOfTwoFrame) {
  // Regression: time_of recovered the frame length from the bin count,
  // which gives the padded FFT length (1024), not the 1000-sample frame,
  // and reported every centre 12 samples late.
  const std::vector<double> x(8192, 0.0);
  StftOptions opts;
  opts.frame = 1000;
  opts.hop = 250;
  const Spectrogram s = stft(x, 44100.0, opts);
  EXPECT_EQ(s.bins(), 513u);
  EXPECT_NEAR(s.time_of(0), 500.0 / 44100.0, 1e-12);
  EXPECT_NEAR(s.time_of(3), (3.0 * 250.0 + 500.0) / 44100.0, 1e-12);
}

TEST(Stft, Preconditions) {
  const std::vector<double> x(100, 0.0);
  StftOptions opts;
  opts.frame = 1024;
  EXPECT_THROW((void)stft(x, 44100.0, opts), PreconditionError);
  opts.frame = 64;
  opts.hop = 0;
  EXPECT_THROW((void)stft(x, 44100.0, opts), PreconditionError);
  opts.hop = 128;  // hop > frame
  EXPECT_THROW((void)stft(x, 44100.0, opts), PreconditionError);
}

TEST(BandEnergyTrack, LocatesBurst) {
  const double fs = 44100.0;
  std::vector<double> x(44100, 0.0);
  // A 3 kHz burst in the middle second half.
  const std::vector<double> t = tone(3000.0, fs, 44100);
  for (std::size_t i = 22050; i < 33000; ++i) x[i] = t[i];
  const Spectrogram s = stft(x, fs);
  const std::vector<double> track = band_energy_track(s, 2500.0, 3500.0);
  // Energy during the burst dwarfs energy before it.
  const std::size_t burst_frame = static_cast<std::size_t>(25000 / s.hop);
  const std::size_t quiet_frame = static_cast<std::size_t>(5000 / s.hop);
  EXPECT_GT(track[burst_frame], 100.0 * (track[quiet_frame] + 1e-12));
}

TEST(PeakFrequencyTrack, FollowsChirpSweep) {
  // The beacon chirp's instantaneous frequency must trace up then down.
  const double fs = 44100.0;
  const Chirp chirp{ChirpParams{}};
  std::vector<double> x(static_cast<std::size_t>(0.08 * fs), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = chirp.value(static_cast<double>(i) / fs);
  StftOptions opts;
  opts.frame = 256;
  opts.hop = 64;
  const Spectrogram s = stft(x, fs, opts);
  const std::vector<double> track = peak_frequency_track(s, 1500.0, 7000.0);
  // Compare the tracked frequency with the analytic trajectory at a few
  // mid-sweep frames.
  int checked = 0;
  for (std::size_t t = 0; t < s.frames(); ++t) {
    const double time = s.time_of(t);
    if (time < 0.008 || time > 0.042) continue;
    EXPECT_NEAR(track[t], chirp.instantaneous_frequency(time), 500.0) << time;
    ++checked;
  }
  EXPECT_GE(checked, 10);
}

}  // namespace
}  // namespace hyperear::dsp
