#include "common/math_util.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hyperear {
namespace {

TEST(WrapAngle, TwoPiRange) {
  EXPECT_NEAR(wrap_angle_2pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle_2pi(2.0 * kPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_angle_2pi(-kPi / 2.0), 1.5 * kPi, 1e-12);
  EXPECT_NEAR(wrap_angle_2pi(5.0 * kPi), kPi, 1e-12);
}

TEST(WrapAngle, ManyTurnsStaysInRange) {
  for (int k = -20; k <= 20; ++k) {
    const double a = 0.7 + 2.0 * kPi * k;
    EXPECT_NEAR(wrap_angle_2pi(a), 0.7, 1e-9) << "k=" << k;
  }
}

TEST(Clamp, Basics) {
  EXPECT_EQ(clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_EQ(clamp(-5.0, 0.0, 10.0), 0.0);
  EXPECT_EQ(clamp(15.0, 0.0, 10.0), 10.0);
  EXPECT_THROW((void)clamp(0.0, 10.0, 0.0), PreconditionError);
}

TEST(Lerp, EndpointsAndMiddle) {
  EXPECT_EQ(lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_EQ(lerp(2.0, 4.0, 1.0), 4.0);
  EXPECT_EQ(lerp(2.0, 4.0, 0.5), 3.0);
}

TEST(NextPow2, Values) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(IsPow2, Values) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(CumulativeTrapezoid, ConstantIntegratesLinearly) {
  const std::vector<double> ones(11, 1.0);
  const std::vector<double> integral = cumulative_trapezoid(ones, 0.1);
  ASSERT_EQ(integral.size(), ones.size());
  EXPECT_NEAR(integral.front(), 0.0, 1e-15);
  EXPECT_NEAR(integral.back(), 1.0, 1e-12);
  EXPECT_NEAR(integral[5], 0.5, 1e-12);
}

TEST(CumulativeTrapezoid, LinearIntegratesQuadratically) {
  std::vector<double> ramp(101);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = static_cast<double>(i) * 0.01;
  const std::vector<double> integral = cumulative_trapezoid(ramp, 0.01);
  EXPECT_NEAR(integral.back(), 0.5, 1e-6);  // integral of t over [0,1]
}

TEST(Trapezoid, MatchesCumulative) {
  const std::vector<double> y{0.0, 1.0, 4.0, 9.0, 16.0};
  const double total = trapezoid(y, 0.5);
  const std::vector<double> cumulative = cumulative_trapezoid(y, 0.5);
  EXPECT_NEAR(total, cumulative.back(), 1e-12);
}

TEST(SampleLinear, InterpolatesAndChecksBounds) {
  const std::vector<double> y{0.0, 10.0, 20.0};
  EXPECT_NEAR(sample_linear(y, 0.5), 5.0, 1e-12);
  EXPECT_NEAR(sample_linear(y, 2.0), 20.0, 1e-12);
  EXPECT_THROW((void)sample_linear(y, -0.1), PreconditionError);
  EXPECT_THROW((void)sample_linear(y, 2.1), PreconditionError);
}

TEST(FitLine, ExactLine) {
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> y{1.0, 3.0, 5.0, 7.0};
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.rms_residual, 0.0, 1e-12);
}

TEST(FitLine, RejectsDegenerateInput) {
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> y{0.0, 1.0};
  EXPECT_THROW((void)fit_line(x, y), PreconditionError);
  EXPECT_THROW((void)fit_line(std::vector<double>{1.0}, std::vector<double>{1.0}),
               PreconditionError);
}

TEST(FitLineRobust, IgnoresOutlier) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(0.5 * i + 2.0);
  }
  y[7] += 25.0;  // gross outlier
  const LineFit plain = fit_line(x, y);
  const LineFit robust = fit_line_robust(x, y);
  EXPECT_GT(std::abs(plain.slope - 0.5), std::abs(robust.slope - 0.5));
  EXPECT_NEAR(robust.slope, 0.5, 1e-9);
  EXPECT_NEAR(robust.intercept, 2.0, 1e-9);
}

TEST(DbConversions, RoundTrip) {
  EXPECT_NEAR(db_to_power(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_power(3.0), 1.995, 1e-2);
  EXPECT_NEAR(power_to_db(db_to_power(7.3)), 7.3, 1e-9);
}

TEST(DegRad, RoundTrip) {
  EXPECT_NEAR(deg2rad(180.0), kPi, 1e-12);
  EXPECT_NEAR(rad2deg(kPi / 2.0), 90.0, 1e-12);
  EXPECT_NEAR(rad2deg(deg2rad(33.3)), 33.3, 1e-12);
}

}  // namespace
}  // namespace hyperear
