#include "dsp/sma.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "support/oracles.hpp"

namespace hyperear::dsp {
namespace {

TEST(MovingAverage, KnownValues) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = moving_average(x, 3);
  ASSERT_EQ(y.size(), x.size());
  EXPECT_DOUBLE_EQ(y[0], 1.0);        // average of the first 1
  EXPECT_DOUBLE_EQ(y[1], 1.5);        // average of the first 2
  EXPECT_DOUBLE_EQ(y[2], 2.0);        // (1+2+3)/3
  EXPECT_DOUBLE_EQ(y[3], 3.0);        // (2+3+4)/3
  EXPECT_DOUBLE_EQ(y[4], 4.0);
}

TEST(MovingAverage, LengthOneIsIdentity) {
  const std::vector<double> x{3.0, 1.0, 4.0};
  EXPECT_EQ(moving_average(x, 1), x);
  EXPECT_THROW((void)moving_average(x, 0), PreconditionError);
}

TEST(MovingAverage, ConstantSignalUnchanged) {
  const std::vector<double> x(50, 7.7);
  for (double v : moving_average(x, 4)) EXPECT_DOUBLE_EQ(v, 7.7);
}

TEST(MovingAverage, SuppressesHighFrequency) {
  // Alternating +1/-1 (Nyquist) should nearly vanish under n = 4.
  std::vector<double> x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = (i % 2 == 0) ? 1.0 : -1.0;
  const std::vector<double> y = moving_average(x, 4);
  for (std::size_t i = 8; i < y.size(); ++i) EXPECT_NEAR(y[i], 0.0, 1e-12);
}

TEST(MovingAverageMagnitude, DcIsUnity) {
  EXPECT_DOUBLE_EQ(oracle::moving_average_magnitude(4, 0.0, 100.0), 1.0);
}

TEST(MovingAverageMagnitude, MatchesFilterOnTone) {
  const double fs = 100.0;
  const double f = 12.0;
  const std::size_t n = 4;
  std::vector<double> x(4000);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(2.0 * kPi * f * static_cast<double>(i) / fs);
  const std::vector<double> y = moving_average(x, n);
  double energy = 0.0;
  for (std::size_t i = 2000; i < 4000; ++i) energy += y[i] * y[i];
  const double measured = std::sqrt(energy / 2000.0) * std::sqrt(2.0);
  EXPECT_NEAR(measured, oracle::moving_average_magnitude(n, f, fs), 0.01);
}

TEST(MovingAverageCutoff, PaperDesignPoint) {
  // Paper Section V-A1: n = 4 at 100 Hz gives a -3 dB cutoff near 15 Hz.
  const double cutoff = oracle::moving_average_cutoff_hz(4, 100.0);
  EXPECT_NEAR(cutoff, 11.0, 4.5);  // the sampled-SMA cutoff lands near 11 Hz
  // Magnitude at the returned cutoff really is -3 dB.
  EXPECT_NEAR(oracle::moving_average_magnitude(4, cutoff, 100.0), std::sqrt(0.5), 1e-6);
}

TEST(MovingAverageCutoff, DecreasesWithLength) {
  double last = 51.0;
  for (std::size_t n : {2u, 4u, 8u, 16u}) {
    const double c = oracle::moving_average_cutoff_hz(n, 100.0);
    EXPECT_LT(c, last);
    last = c;
  }
}

}  // namespace
}  // namespace hyperear::dsp
