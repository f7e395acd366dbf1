#include "geom/least_squares.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "geom/hyperbola.hpp"
#include "geom/triangulation.hpp"
#include "geom/vec2.hpp"
#include "support/oracles.hpp"

namespace hyperear::geom {
namespace {

/// Whether levenberg_marquardt accepts `F` over N parameters.
template <class F, std::size_t N>
concept Solvable = requires(const F& f, const std::array<double, N>& p) {
  levenberg_marquardt(f, p);
};

TEST(LevenbergMarquardt, SolvesLinearSystem) {
  // r(p) = A p - b with a well-conditioned A.
  const auto residuals = [](const std::array<double, 2>& p) {
    return std::array<double, 2>{2.0 * p[0] + p[1] - 5.0, p[0] - 3.0 * p[1] + 4.0};
  };
  const LmResult<2> r = levenberg_marquardt(residuals, std::array<double, 2>{0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.parameters[0], 11.0 / 7.0, 1e-8);
  EXPECT_NEAR(r.parameters[1], 13.0 / 7.0, 1e-8);
  EXPECT_NEAR(r.cost, 0.0, 1e-12);
}

TEST(LevenbergMarquardt, RosenbrockValley) {
  // Classic curved-valley test: residuals (1-x, 10(y-x^2)).
  const auto residuals = [](const std::array<double, 2>& p) {
    return std::array<double, 2>{1.0 - p[0], 10.0 * (p[1] - p[0] * p[0])};
  };
  const LmResult<2> r = levenberg_marquardt(residuals, std::array<double, 2>{-1.2, 1.0});
  EXPECT_NEAR(r.parameters[0], 1.0, 1e-5);
  EXPECT_NEAR(r.parameters[1], 1.0, 1e-5);
}

TEST(LevenbergMarquardt, OverdeterminedLeastSquares) {
  // Fit y = a*x to noisy data; LM should find the least-squares slope.
  Rng rng(11);
  std::array<double, 50> xs{}, ys{};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = 0.1 * static_cast<double>(i);
    ys[i] = 3.0 * xs[i] + rng.gaussian(0.0, 0.01);
  }
  const auto residuals = [&](const std::array<double, 1>& p) {
    std::array<double, 50> r{};
    for (std::size_t i = 0; i < xs.size(); ++i) r[i] = p[0] * xs[i] - ys[i];
    return r;
  };
  const LmResult<1> r = levenberg_marquardt(residuals, std::array<double, 1>{0.0});
  EXPECT_NEAR(r.parameters[0], 3.0, 0.01);
}

TEST(LevenbergMarquardt, CircleIntersection) {
  // Distances to two anchor points: classic 2D trilateration residuals.
  const Vec2 truth{1.5, 2.5};
  const Vec2 a1{0.0, 0.0}, a2{4.0, 0.0};
  const double d1 = distance(truth, a1);
  const double d2 = distance(truth, a2);
  const auto residuals = [&](const std::array<double, 2>& p) {
    const Vec2 pt{p[0], p[1]};
    return std::array<double, 2>{distance(pt, a1) - d1, distance(pt, a2) - d2};
  };
  const LmResult<2> r = levenberg_marquardt(residuals, std::array<double, 2>{1.0, 1.0});
  EXPECT_NEAR(r.parameters[0], truth.x, 1e-6);
  EXPECT_NEAR(r.parameters[1], truth.y, 1e-6);
}

TEST(LevenbergMarquardt, EmptyParametersAreRejectedAtCompileTime) {
  const auto residuals = [](const auto&) { return std::array<double, 1>{0.0}; };
  static_assert(Solvable<decltype(residuals), 1>);
  static_assert(!Solvable<decltype(residuals), 0>);
}

TEST(LevenbergMarquardt, EmptyResidualsAreRejectedAtCompileTime) {
  const auto none = [](const std::array<double, 1>&) { return std::array<double, 0>{}; };
  const auto one = [](const std::array<double, 1>& p) { return std::array<double, 1>{p[0]}; };
  static_assert(!Solvable<decltype(none), 1>);
  static_assert(Solvable<decltype(one), 1>);
}

TEST(LevenbergMarquardt, RespectsIterationLimit) {
  const auto residuals = [](const std::array<double, 2>& p) {
    return std::array<double, 2>{1.0 - p[0], 10.0 * (p[1] - p[0] * p[0])};
  };
  LmOptions opts;
  opts.max_iterations = 2;
  const LmResult<2> r =
      levenberg_marquardt(residuals, std::array<double, 2>{-1.2, 1.0}, opts);
  EXPECT_LE(r.iterations, 2);
}

TEST(LevenbergMarquardt, AlreadyAtMinimum) {
  const auto residuals = [](const std::array<double, 1>& p) {
    return std::array<double, 1>{p[0] - 2.0};
  };
  const LmResult<1> r = levenberg_marquardt(residuals, std::array<double, 1>{2.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.cost, 0.0, 1e-15);
}

TEST(LevenbergMarquardt, TwoHyperbolaSolvesEqualTheDynamicOracleBitForBit) {
  // solve_augmented's problem over seeded AugmentedTdoa inputs: apertures
  // and range differences drawn past ±D' (so solve_augmented clamps them
  // to ±0.999 D'), some with an iteration cap that stops the solve before
  // it converges. The fixed-size solver must equal the vector/std::function
  // one in every bit of position, cost, iteration count and verdict.
  Rng rng(20240);
  std::size_t clamped = 0, unconverged = 0;
  constexpr int kInputs = 12000;
  for (int n = 0; n < kInputs; ++n) {
    AugmentedTdoa in;
    in.slide_distance = rng.uniform(0.05, 0.6);
    in.mic_separation = rng.uniform(0.08, 0.2);
    in.range_diff_mic1 = rng.uniform(-1.05, 1.05) * in.slide_distance;
    in.range_diff_mic2 = rng.uniform(-1.05, 1.05) * in.slide_distance;
    const double limit = 0.999 * in.slide_distance;
    const double dd1 = std::clamp(in.range_diff_mic1, -limit, limit);
    const double dd2 = std::clamp(in.range_diff_mic2, -limit, limit);
    if (dd1 != in.range_diff_mic1 || dd2 != in.range_diff_mic2) ++clamped;
    const double dp = in.slide_distance;
    const double d = in.mic_separation;
    const Hyperbola h1({dp / 2.0, 0.0}, {-dp / 2.0, 0.0}, dd1, true);
    const Hyperbola h2({d + dp / 2.0, 0.0}, {d - dp / 2.0, 0.0}, dd2, true);
    const Vec2 guess = far_field_initial_guess(in);
    LmOptions opts;
    opts.max_iterations = n % 4 == 0 ? 1 + n % 7 : 200;

    const auto fixed = [&](const std::array<double, 2>& p) {
      const Vec2 pt{p[0], p[1]};
      return std::array<double, 2>{h1.residual(pt), h2.residual(pt)};
    };
    const oracle::ResidualFn dynamic = [&](const std::vector<double>& p) {
      const Vec2 pt{p[0], p[1]};
      return std::vector<double>{h1.residual(pt), h2.residual(pt)};
    };
    const LmResult<2> got =
        levenberg_marquardt(fixed, std::array<double, 2>{guess.x, guess.y}, opts);
    const oracle::LmResult want = oracle::levenberg_marquardt(dynamic, {guess.x, guess.y}, opts);
    ASSERT_EQ(want.parameters.size(), 2u);
    ASSERT_EQ(got.parameters[0], want.parameters[0]) << "input " << n;
    ASSERT_EQ(got.parameters[1], want.parameters[1]) << "input " << n;
    ASSERT_EQ(got.cost, want.cost) << "input " << n;
    ASSERT_EQ(got.iterations, want.iterations) << "input " << n;
    ASSERT_EQ(got.converged, want.converged) << "input " << n;
    if (!want.converged) ++unconverged;

    if (opts.max_iterations == 200) {
      // intersect's own reading of the solve.
      const TriangulationResult tri = solve_augmented(in);
      ASSERT_EQ(tri.position.x, want.parameters[0]) << "input " << n;
      ASSERT_EQ(tri.position.y, want.parameters[1]) << "input " << n;
      ASSERT_EQ(tri.residual, std::sqrt(want.cost)) << "input " << n;
      ASSERT_EQ(tri.iterations, want.iterations) << "input " << n;
      ASSERT_EQ(tri.converged, want.converged || want.cost < 1e-12) << "input " << n;
    }
  }
  EXPECT_GT(clamped, 100u);
  EXPECT_GT(unconverged, 100u);
}

}  // namespace
}  // namespace hyperear::geom
