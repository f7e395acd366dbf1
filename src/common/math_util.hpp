#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// @file math_util.hpp
/// Small numeric helpers shared by all modules.

namespace hyperear {

/// Wrap an angle to [0, 2*pi).
[[nodiscard]] double wrap_angle_2pi(double rad);

/// Clamp x into [lo, hi]. Requires lo <= hi.
[[nodiscard]] double clamp(double x, double lo, double hi);

/// Linear interpolation between a and b at parameter t in [0, 1].
[[nodiscard]] double lerp(double a, double b, double t);

/// Next power of two >= n (n = 0 maps to 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n > 0).
[[nodiscard]] bool is_pow2(std::size_t n);

/// Trapezoidal cumulative integral of y sampled at uniform spacing dt.
/// Result has the same length as y with result[0] == 0.
[[nodiscard]] std::vector<double> cumulative_trapezoid(std::span<const double> y, double dt);

/// Trapezoidal definite integral of y over uniform spacing dt.
[[nodiscard]] double trapezoid(std::span<const double> y, double dt);

/// Evaluate y at a fractional index by linear interpolation.
/// Requires 0 <= idx <= y.size() - 1.
[[nodiscard]] double sample_linear(std::span<const double> y, double idx);

/// Ordinary least-squares line fit y = a + b*x. Requires x.size() == y.size() >= 2
/// and at least two distinct x values.
struct LineFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Root-mean-square residual of the fit.
  double rms_residual = 0.0;
};
[[nodiscard]] LineFit fit_line(std::span<const double> x, std::span<const double> y);

/// Robust line fit: iteratively re-fit discarding points whose residual
/// exceeds `k` times the residual MAD, for `iters` rounds. Falls back to the
/// plain fit when too few inliers remain. `scratch` is caller storage of at
/// least 4 * x.size() values (the inliers, their residuals and a sort
/// buffer), so the fit itself allocates nothing.
[[nodiscard]] LineFit fit_line_robust(std::span<const double> x, std::span<const double> y,
                                      std::span<double> scratch, double k = 3.0,
                                      int iters = 3);

}  // namespace hyperear
