#include "geom/triangulation.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "geom/least_squares.hpp"

namespace hyperear::geom {

namespace {

double clamp_range_diff(double dd, double aperture) {
  const double limit = 0.999 * aperture;
  return std::clamp(dd, -limit, limit);
}

}  // namespace

Vec2 far_field_initial_guess(const AugmentedTdoa& in, double max_range) {
  // Degenerate geometry is a caller bug: TTL's pairing loop filters
  // zero-aperture slides before building an AugmentedTdoa. Contracts fail
  // fast in checked builds; the always-on require keeps Release callers
  // honest with a PreconditionError.
  HE_EXPECTS(in.slide_distance > 0.0);
  HE_EXPECTS(in.mic_separation > 0.0);
  HE_ASSERT_FINITE(in.range_diff_mic1);
  HE_ASSERT_FINITE(in.range_diff_mic2);
  require(in.slide_distance > 0.0, "far_field_initial_guess: slide distance must be positive");
  require(in.mic_separation > 0.0, "far_field_initial_guess: mic separation must be positive");
  const double dprime = in.slide_distance;
  const double d = in.mic_separation;
  const double dd1 = clamp_range_diff(in.range_diff_mic1, dprime);
  const double dd2 = clamp_range_diff(in.range_diff_mic2, dprime);
  // Far field: dd1 ~ -D'*x/r, dd2 ~ -D'*(x-D)/r  =>  dd2 - dd1 ~ D'*D/r.
  const double diff = dd2 - dd1;
  double r = diff > 1e-9 ? dprime * d / diff : max_range;
  r = std::clamp(r, 0.05, max_range);
  double x = -dd1 * r / dprime;
  x = std::clamp(x, -r, r);
  const double y2 = r * r - x * x;
  const double y = std::sqrt(std::max(y2, 0.01 * r * r));
  return {x, y};
}

TriangulationResult solve_augmented(const AugmentedTdoa& in) {
  HE_EXPECTS(in.slide_distance > 0.0);
  HE_EXPECTS(in.mic_separation > 0.0);
  HE_ASSERT_FINITE(in.range_diff_mic1);
  HE_ASSERT_FINITE(in.range_diff_mic2);
  require(in.slide_distance > 0.0, "solve_augmented: slide distance must be positive");
  require(in.mic_separation > 0.0, "solve_augmented: mic separation must be positive");
  const double dprime = in.slide_distance;
  const double d = in.mic_separation;
  const double dd1 = clamp_range_diff(in.range_diff_mic1, dprime);
  const double dd2 = clamp_range_diff(in.range_diff_mic2, dprime);

  const Hyperbola h1({dprime / 2.0, 0.0}, {-dprime / 2.0, 0.0}, dd1, true);
  const Hyperbola h2({d + dprime / 2.0, 0.0}, {d - dprime / 2.0, 0.0}, dd2, true);
  return intersect(h1, h2, far_field_initial_guess(in));
}

TriangulationResult intersect(const Hyperbola& h1, const Hyperbola& h2,
                              const Vec2& initial_guess) {
  const auto residuals = [&](const std::array<double, 2>& p) {
    const Vec2 pt{p[0], p[1]};
    return std::array<double, 2>{h1.residual(pt), h2.residual(pt)};
  };
  LmOptions opts;
  opts.max_iterations = 200;
  const LmResult<2> lm = levenberg_marquardt(
      residuals, std::array<double, 2>{initial_guess.x, initial_guess.y}, opts);
  TriangulationResult out;
  out.position = {lm.parameters[0], lm.parameters[1]};
  out.residual = std::sqrt(lm.cost);  // RMS-ish scale of the two residuals
  out.converged = lm.converged || lm.cost < 1e-12;
  out.iterations = lm.iterations;
  // The solver must hand back a realizable point: LM can wander, but a
  // non-finite position means the residual function itself produced NaNs.
  HE_ASSERT_FINITE(out.position.x);
  HE_ASSERT_FINITE(out.position.y);
  return out;
}

}  // namespace hyperear::geom
