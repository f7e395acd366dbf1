#include "dsp/fir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {
namespace {

TEST(FirDesign, LowpassPassesDcBlocksHigh) {
  const double fs = 44100.0;
  const std::vector<double> h = design_lowpass(2000.0, fs, 201);
  EXPECT_NEAR(fir_magnitude_at(h, 0.0, fs), 1.0, 1e-9);
  EXPECT_NEAR(fir_magnitude_at(h, 500.0, fs), 1.0, 0.02);
  EXPECT_LT(fir_magnitude_at(h, 8000.0, fs), 0.01);
}

TEST(FirDesign, BandpassForChirpBand) {
  // The ASP band: 2-6.4 kHz (paper Section VII-E).
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  EXPECT_NEAR(fir_magnitude_at(h, 4000.0, fs), 1.0, 0.03);
  // Human voice below 2 kHz is attenuated (the paper's noise argument).
  EXPECT_LT(fir_magnitude_at(h, 800.0, fs), 0.02);
  EXPECT_LT(fir_magnitude_at(h, 12000.0, fs), 0.02);
}

TEST(FirDesign, ArgumentValidation) {
  EXPECT_THROW((void)design_lowpass(0.0, 44100.0, 101), PreconditionError);
  EXPECT_THROW((void)design_lowpass(30000.0, 44100.0, 101), PreconditionError);
  EXPECT_THROW((void)design_lowpass(1000.0, 44100.0, 100), PreconditionError);  // even taps
  EXPECT_THROW((void)design_bandpass(5000.0, 2000.0, 44100.0, 101), PreconditionError);
}

TEST(FilterSame, PreservesLengthAndAlignment) {
  // A symmetric filter applied to a delta returns the (centered) kernel.
  const std::vector<double> h = design_lowpass(4000.0, 44100.0, 31);
  std::vector<double> delta(101, 0.0);
  delta[50] = 1.0;
  const std::vector<double> y = filter_same(delta, h);
  ASSERT_EQ(y.size(), delta.size());
  // Peak of the impulse response stays at the impulse location (no group
  // delay shift) for a linear-phase kernel.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 50u);
}

TEST(FilterSame, SinusoidInPassbandSurvives) {
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(2.0 * kPi * 4000.0 * static_cast<double>(i) / fs);
  const std::vector<double> y = filter_same(x, h);
  // Compare RMS in the steady-state middle.
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) {
    ex += x[i] * x[i];
    ey += y[i] * y[i];
  }
  EXPECT_NEAR(std::sqrt(ey / ex), 1.0, 0.03);
}

TEST(FilterSame, OutOfBandToneSuppressed) {
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(2.0 * kPi * 500.0 * static_cast<double>(i) / fs);
  const std::vector<double> y = filter_same(x, h);
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) {
    ex += x[i] * x[i];
    ey += y[i] * y[i];
  }
  EXPECT_LT(std::sqrt(ey / ex), 0.02);
}

TEST(FilterSame, FftAndDirectPathsAgree) {
  // Small input -> direct path; verify against the FFT path by using a
  // large input with the same prefix content.
  const std::vector<double> h = design_lowpass(5000.0, 44100.0, 21);
  std::vector<double> small(64);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = std::sin(0.3 * static_cast<double>(i));
  std::vector<double> large(4096, 0.0);
  for (std::size_t i = 0; i < small.size(); ++i) large[i] = small[i];
  const std::vector<double> ys = filter_same(small, h);
  const std::vector<double> yl = filter_same(large, h);
  // Away from the tail boundary the outputs must agree.
  for (std::size_t i = 0; i + 11 < small.size(); ++i) {
    EXPECT_NEAR(ys[i], yl[i], 1e-9) << i;
  }
}

}  // namespace
}  // namespace hyperear::dsp
