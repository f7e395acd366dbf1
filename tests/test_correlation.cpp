#include "dsp/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dsp/fft.hpp"
#include "dsp/ols.hpp"
#include "support/oracles.hpp"

namespace hyperear::dsp {
namespace {

std::vector<double> correlate_direct(std::span<const double> x,
                                     std::span<const double> h) {
  std::vector<double> out;
  correlate_valid_direct_into(x, h, out);
  return out;
}

/// Full-convolution window [offset, offset + count) of x with the reversed
/// template, through overlap-save: offset h.size() - 1 and the valid
/// length give valid-mode correlation, offset 0 and the full length give
/// lags -(h.size() - 1) .. x.size() - 1.
std::vector<double> correlate_ols(std::span<const double> x, std::span<const double> h,
                                  std::size_t offset, std::size_t count) {
  const OlsConvolver reversed(std::vector<double>(h.rbegin(), h.rend()));
  Workspace ws;
  std::vector<double> out(count);
  reversed.convolve_into(x, offset, count, out.data(), ws);
  return out;
}

std::vector<double> correlate_ols(std::span<const double> x, std::span<const double> h) {
  return correlate_ols(x, h, h.size() - 1, x.size() - h.size() + 1);
}

/// Normalized correlation as the detector's reference computes it: the
/// overlap-save correlation divided by the floored sliding denominator.
std::vector<double> correlate_normalized(std::span<const double> x,
                                         std::span<const double> h) {
  double h_energy = 0.0;
  for (double v : h) h_energy += v * v;
  return oracle::normalize_correlation(correlate_ols(x, h), x, h.size(),
                                       std::sqrt(h_energy));
}

TEST(CorrelateValid, KnownSmallExample) {
  const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> h{1.0, 1.0};
  const std::vector<double> c = correlate_direct(x, h);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_DOUBLE_EQ(c[0], 3.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
  EXPECT_DOUBLE_EQ(c[2], 7.0);
}

TEST(CorrelateValid, PeakAtTemplateLocation) {
  Rng rng(31);
  std::vector<double> h(64);
  for (auto& v : h) v = rng.gaussian();
  std::vector<double> x(512, 0.0);
  const std::size_t offset = 200;
  for (std::size_t i = 0; i < h.size(); ++i) x[offset + i] = h[i];
  EXPECT_EQ(argmax(correlate_direct(x, h)), offset);
  EXPECT_EQ(argmax(correlate_ols(x, h)), offset);
}

TEST(CorrelateValid, FftAndDirectAgree) {
  Rng rng(32);
  std::vector<double> x(2048), h(256);
  for (auto& v : x) v = rng.gaussian();
  for (auto& v : h) v = rng.gaussian();
  const std::vector<double> fast = correlate_ols(x, h);
  // Direct computation on a few random lags.
  for (std::size_t k : {0u, 100u, 777u, 1792u}) {
    double direct = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) direct += x[k + j] * h[j];
    EXPECT_NEAR(fast[k], direct, 1e-8);
  }
}

TEST(CorrelateValid, TemplateLongerThanSignalThrows) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> h{1.0, 2.0, 3.0};
  std::vector<double> out;
  EXPECT_THROW(correlate_valid_direct_into(x, h, out), PreconditionError);
}

TEST(CorrelateNormalized, PerfectMatchScoresOne) {
  Rng rng(33);
  std::vector<double> h(128);
  for (auto& v : h) v = rng.gaussian();
  std::vector<double> x(1024, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) x[300 + i] = 2.5 * h[i];  // scaled copy
  // Add a small noise floor so window energies are realistic.
  for (auto& v : x) v += rng.gaussian(0.0, 1e-3);
  const std::vector<double> c = correlate_normalized(x, h);
  const std::size_t peak = argmax(c);
  EXPECT_NEAR(static_cast<double>(peak), 300.0, 1.0);
  EXPECT_GT(c[peak], 0.99);
  EXPECT_LE(c[peak], 1.0 + 1e-6);
}

TEST(CorrelateNormalized, BoundedEvenInSilence) {
  // Regression test: quiet stretches must not amplify FFT round-off into
  // spurious super-unity peaks.
  std::vector<double> h(128);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] = std::sin(0.3 * static_cast<double>(i));
  std::vector<double> x(4096, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) x[100 + i] = h[i];
  const std::vector<double> c = correlate_normalized(x, h);
  for (double v : c) EXPECT_LE(std::abs(v), 1.0 + 1e-6);
  EXPECT_NEAR(static_cast<double>(argmax(c)), 100.0, 1.0);
}

TEST(CorrelateNormalized, AmplitudeInvariance) {
  Rng rng(34);
  std::vector<double> h(64);
  for (auto& v : h) v = rng.gaussian();
  std::vector<double> x(512, 0.0);
  for (std::size_t i = 0; i < h.size(); ++i) x[100 + i] = h[i];
  for (auto& v : x) v += rng.gaussian(0.0, 0.01);
  std::vector<double> x_loud = x;
  for (auto& v : x_loud) v *= 37.0;
  const std::vector<double> c1 = correlate_normalized(x, h);
  const std::vector<double> c2 = correlate_normalized(x_loud, h);
  EXPECT_NEAR(max_value(c1), max_value(c2), 1e-9);
}

TEST(CorrelateFull, AutocorrelationSymmetric) {
  Rng rng(35);
  std::vector<double> x(100);
  for (auto& v : x) v = rng.gaussian();
  const std::vector<double> c = correlate_ols(x, x, 0, 2 * x.size() - 1);
  ASSERT_EQ(c.size(), 199u);
  for (std::size_t k = 0; k < 99; ++k) {
    EXPECT_NEAR(c[k], c[c.size() - 1 - k], 1e-8);
  }
  EXPECT_EQ(argmax(c), 99u);
}

}  // namespace
}  // namespace hyperear::dsp
