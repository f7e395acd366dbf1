#include "dsp/biquad.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "support/oracles.hpp"

namespace hyperear::dsp {
namespace {

std::vector<double> tone(double freq, double fs, std::size_t n) {
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(2.0 * kPi * freq * static_cast<double>(i) / fs);
  return x;
}

/// Magnitude response of a biquad from its impulse response, which these
/// filters' poles decay below double precision well within 2^14 samples.
double magnitude_at(Biquad filter, double freq_hz, double sample_rate) {
  std::vector<double> impulse(std::size_t{1} << 14, 0.0);
  impulse[0] = 1.0;
  return oracle::fir_magnitude_at(filter.filter(impulse), freq_hz, sample_rate);
}

double steady_rms(const std::vector<double>& x) {
  double e = 0.0;
  const std::size_t lo = x.size() / 2;
  for (std::size_t i = lo; i < x.size(); ++i) e += x[i] * x[i];
  return std::sqrt(e / double(x.size() - lo));
}

TEST(Biquad, LowpassMagnitudeResponse) {
  const Biquad lp = Biquad::lowpass(1000.0, 44100.0, 0.7071);
  EXPECT_NEAR(magnitude_at(lp, 1.0, 44100.0), 1.0, 1e-3);
  EXPECT_NEAR(magnitude_at(lp, 1000.0, 44100.0), std::sqrt(0.5), 0.02);
  EXPECT_LT(magnitude_at(lp, 10000.0, 44100.0), 0.02);
}

TEST(Biquad, HighpassMagnitudeResponse) {
  const Biquad hp = Biquad::highpass(1000.0, 44100.0, 0.7071);
  EXPECT_LT(magnitude_at(hp, 10.0, 44100.0), 1e-3);
  EXPECT_NEAR(magnitude_at(hp, 10000.0, 44100.0), 1.0, 0.01);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  const Biquad bp = Biquad::bandpass(3000.0, 44100.0, 2.0);
  const double at_center = magnitude_at(bp, 3000.0, 44100.0);
  EXPECT_NEAR(at_center, 1.0, 0.02);
  EXPECT_LT(magnitude_at(bp, 500.0, 44100.0), 0.3);
  EXPECT_LT(magnitude_at(bp, 12000.0, 44100.0), 0.3);
}

TEST(Biquad, FilterMatchesMagnitudePrediction) {
  const double fs = 44100.0;
  Biquad lp = Biquad::lowpass(2000.0, fs, 0.7071);
  const std::vector<double> y = lp.filter(tone(500.0, fs, 8192));
  EXPECT_NEAR(steady_rms(y) * std::sqrt(2.0), magnitude_at(lp, 500.0, fs), 0.02);
}

TEST(Biquad, ResetClearsState) {
  Biquad lp = Biquad::lowpass(1000.0, 44100.0, 0.7071);
  (void)lp.process(1.0);
  (void)lp.process(1.0);
  lp.reset();
  // After reset the filter behaves as if freshly constructed.
  Biquad fresh = Biquad::lowpass(1000.0, 44100.0, 0.7071);
  EXPECT_DOUBLE_EQ(lp.process(0.5), fresh.process(0.5));
}

TEST(Biquad, InvalidArgsThrow) {
  EXPECT_THROW((void)Biquad::lowpass(0.0, 44100.0, 0.7), PreconditionError);
  EXPECT_THROW((void)Biquad::lowpass(30000.0, 44100.0, 0.7), PreconditionError);
  EXPECT_THROW((void)Biquad::lowpass(100.0, 44100.0, 0.0), PreconditionError);
}

TEST(Butterworth, OrderMustBeEven) {
  EXPECT_THROW(ButterworthCascade(ButterworthCascade::Kind::kLowpass, 3, 100.0, 1000.0),
               PreconditionError);
  EXPECT_NO_THROW(ButterworthCascade(ButterworthCascade::Kind::kLowpass, 4, 100.0, 1000.0));
}

TEST(Butterworth, SteeperThanSingleBiquad) {
  const double fs = 44100.0;
  ButterworthCascade lp4(ButterworthCascade::Kind::kLowpass, 4, 1000.0, fs);
  Biquad lp2 = Biquad::lowpass(1000.0, fs, 0.7071);
  const std::vector<double> x = tone(4000.0, fs, 8192);
  ButterworthCascade lp4_copy = lp4;
  const double r4 = steady_rms(lp4_copy.filter(x));
  const double r2 = steady_rms(lp2.filter(x));
  EXPECT_LT(r4, r2 * 0.2);
}

TEST(Butterworth, FiltfiltPreservesPassbandPhase) {
  // Zero-phase filtering keeps a slow signal aligned: peak location should
  // not shift.
  const double fs = 100.0;
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = (static_cast<double>(i) - 200.0) / 25.0;
    x[i] = std::exp(-t * t);
  }
  ButterworthCascade lp(ButterworthCascade::Kind::kLowpass, 2, 5.0, fs);
  const std::vector<double> y = lp.filtfilt(x);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_NEAR(static_cast<double>(peak), 200.0, 1.5);
}

TEST(Butterworth, FiltfiltDoublesAttenuation) {
  const double fs = 44100.0;
  const std::vector<double> x = tone(8000.0, fs, 8192);
  ButterworthCascade lp(ButterworthCascade::Kind::kLowpass, 2, 1000.0, fs);
  ButterworthCascade lp2(ButterworthCascade::Kind::kLowpass, 2, 1000.0, fs);
  const double single = steady_rms(lp.filter(x));
  const double twice = steady_rms(lp2.filtfilt(x));
  EXPECT_LT(twice, single);
}

}  // namespace
}  // namespace hyperear::dsp
