#include "dsp/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n, double amp = 1.0) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = amp * std::sin(2.0 * kPi * freq * static_cast<double>(i) / fs);
  return x;
}

TEST(Periodogram, ToneLandsInCorrectBin) {
  const double fs = 8000.0;
  const std::vector<double> x = tone(1000.0, fs, 4096);
  const Periodogram pg = periodogram(x, fs);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < pg.power.size(); ++k) {
    if (pg.power[k] > pg.power[peak]) peak = k;
  }
  EXPECT_NEAR(static_cast<double>(peak) * pg.bin_hz, 1000.0, 2.0 * pg.bin_hz);
}

TEST(Periodogram, PowerSumsToSignalPower) {
  Rng rng(51);
  std::vector<double> x(4096);
  for (auto& v : x) v = rng.gaussian(0.0, 0.5);
  const Periodogram pg = periodogram(x, 8000.0);
  double total = 0.0;
  for (double p : pg.power) total += p;
  EXPECT_NEAR(total, signal_power(x), 0.15 * signal_power(x));
}

TEST(SignalPower, KnownValue) {
  const std::vector<double> x{1.0, -1.0, 1.0, -1.0};
  EXPECT_DOUBLE_EQ(signal_power(x), 1.0);
  EXPECT_THROW((void)signal_power(std::vector<double>{}), PreconditionError);
}

TEST(BandPower, ToneCapturedInItsBand) {
  const double fs = 8000.0;
  const std::vector<double> x = tone(1000.0, fs, 8192);
  const double in_band = band_power(x, fs, 900.0, 1100.0);
  const double out_band = band_power(x, fs, 2000.0, 3000.0);
  EXPECT_NEAR(in_band, 0.5, 0.05);  // sine power = amp^2/2
  EXPECT_LT(out_band, 0.01);
}

TEST(BandPower, SplitsTwoTones) {
  const double fs = 8000.0;
  std::vector<double> x = tone(500.0, fs, 8192, 1.0);
  const std::vector<double> hi = tone(2500.0, fs, 8192, 2.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += hi[i];
  const double low = band_power(x, fs, 300.0, 700.0);
  const double high = band_power(x, fs, 2300.0, 2700.0);
  EXPECT_NEAR(high / low, 4.0, 0.5);
}

TEST(BandPower, InvalidBandThrows) {
  const std::vector<double> x(64, 1.0);
  EXPECT_THROW((void)band_power(x, 8000.0, 3000.0, 1000.0), PreconditionError);
  EXPECT_THROW((void)band_power(x, 8000.0, 1000.0, 5000.0), PreconditionError);
}

}  // namespace
}  // namespace hyperear::dsp
