#include "dsp/chirp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"
#include "dsp/ols.hpp"
#include "dsp/spectrum.hpp"

namespace hyperear::dsp {
namespace {

ChirpParams paper_params() {
  // 2-6.4 kHz linear up/down chirp (paper Sections IV-A, VII-E).
  return {};
}

TEST(Chirp, FrequencySweepUpThenDown) {
  const Chirp c(paper_params());
  EXPECT_NEAR(c.instantaneous_frequency(0.0), 2000.0, 1e-9);
  EXPECT_NEAR(c.instantaneous_frequency(0.025), 6400.0, 1e-9);
  EXPECT_NEAR(c.instantaneous_frequency(0.05), 2000.0, 1e-9);
  // Monotone up on the first half.
  EXPECT_LT(c.instantaneous_frequency(0.01), c.instantaneous_frequency(0.02));
  // Monotone down on the second half.
  EXPECT_GT(c.instantaneous_frequency(0.03), c.instantaneous_frequency(0.04));
}

TEST(Chirp, ZeroOutsideSupport) {
  const Chirp c(paper_params());
  EXPECT_DOUBLE_EQ(c.value(-0.001), 0.0);
  EXPECT_DOUBLE_EQ(c.value(0.051), 0.0);
}

TEST(Chirp, AmplitudeBounded) {
  ChirpParams p = paper_params();
  p.amplitude = 0.7;
  const Chirp c(p);
  for (double t = 0.0; t <= p.duration_s; t += 1e-4) {
    EXPECT_LE(std::abs(c.value(t)), 0.7 + 1e-12);
  }
}

TEST(Chirp, SampleLengthAndContent) {
  const Chirp c(paper_params());
  const std::vector<double> s = c.sample(44100.0);
  EXPECT_EQ(s.size(), 2205u);  // 50 ms at 44.1 kHz
  EXPECT_DOUBLE_EQ(s[0], c.value(0.0));
  EXPECT_DOUBLE_EQ(s[100], c.value(100.0 / 44100.0));
}

TEST(Chirp, EnergyInBand) {
  const Chirp c(paper_params());
  const std::vector<double> s = c.sample(44100.0);
  const double total = band_power(s, 44100.0, 50.0, 22000.0);
  const double in_band = band_power(s, 44100.0, 1800.0, 6600.0);
  EXPECT_GT(in_band / total, 0.95);
}

TEST(Chirp, AutocorrelationPeaksAtZeroLag) {
  // "for its good auto correlation property" (Section IV-A).
  const Chirp c(paper_params());
  const std::vector<double> ref = c.reference(44100.0);
  // Full correlation, lags -(n - 1) .. n - 1: the full convolution with the
  // reversed reference.
  const OlsConvolver reversed(std::vector<double>(ref.rbegin(), ref.rend()));
  std::vector<double> corr(2 * ref.size() - 1);
  Workspace ws;
  reversed.convolve_into(ref, 0, corr.size(), corr.data(), ws);
  const std::size_t peak = argmax(corr);
  EXPECT_EQ(peak, ref.size() - 1);  // zero lag
  // Strongest sidelobe well below the main peak.
  double max_side = 0.0;
  for (std::size_t i = 0; i < corr.size(); ++i) {
    const auto lag =
        static_cast<long long>(i) - static_cast<long long>(ref.size() - 1);
    if (std::abs(lag) > 20) max_side = std::max(max_side, std::abs(corr[i]));
  }
  EXPECT_LT(max_side, 0.5 * corr[peak]);
}

TEST(Chirp, ReferenceHasUnitEnergy) {
  const Chirp c(paper_params());
  const std::vector<double> ref = c.reference(44100.0);
  double e = 0.0;
  for (double v : ref) e += v * v;
  EXPECT_NEAR(e, 1.0, 1e-9);
}

TEST(Chirp, EdgeTaperAppliedAnalytically) {
  ChirpParams p = paper_params();
  p.edge_fade_fraction = 0.1;
  const Chirp c(p);
  // Near the very edges the envelope is small.
  EXPECT_LT(std::abs(c.value(1e-4)), 0.05);
  EXPECT_LT(std::abs(c.value(p.duration_s - 1e-4)), 0.05);
}

TEST(Chirp, InvalidParamsThrow) {
  ChirpParams p = paper_params();
  p.freq_high_hz = 1000.0;  // below freq_low
  EXPECT_THROW(Chirp{p}, PreconditionError);
  p = paper_params();
  p.duration_s = 0.0;
  EXPECT_THROW(Chirp{p}, PreconditionError);
  p = paper_params();
  p.edge_fade_fraction = 0.6;
  EXPECT_THROW(Chirp{p}, PreconditionError);
}

TEST(Chirp, SampleBelowNyquistThrows) {
  const Chirp c(paper_params());
  EXPECT_THROW((void)c.sample(8000.0), PreconditionError);
}

TEST(Chirp, PhaseContinuousAtTurnaround) {
  // No jump in the waveform where the sweep reverses.
  const Chirp c(paper_params());
  const double mid = 0.025;
  const double before = c.value(mid - 1e-6);
  const double after = c.value(mid + 1e-6);
  EXPECT_NEAR(before, after, 0.1);  // ~2*pi*f_high*2e-6 of phase slope
}

}  // namespace
}  // namespace hyperear::dsp
