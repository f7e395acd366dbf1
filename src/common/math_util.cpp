#include "common/math_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace hyperear {

double wrap_angle_2pi(double rad) {
  double r = std::fmod(rad, 2.0 * kPi);
  if (r < 0.0) r += 2.0 * kPi;
  return r;
}

double clamp(double x, double lo, double hi) {
  require(lo <= hi, "clamp: lo must be <= hi");
  return std::min(std::max(x, lo), hi);
}

double lerp(double a, double b, double t) { return a + (b - a) * t; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::vector<double> cumulative_trapezoid(std::span<const double> y, double dt) {
  require(dt > 0.0, "cumulative_trapezoid: dt must be positive");
  std::vector<double> out(y.size(), 0.0);
  for (std::size_t i = 1; i < y.size(); ++i) {
    out[i] = out[i - 1] + 0.5 * (y[i] + y[i - 1]) * dt;
  }
  return out;
}

double trapezoid(std::span<const double> y, double dt) {
  require(dt > 0.0, "trapezoid: dt must be positive");
  double sum = 0.0;
  for (std::size_t i = 1; i < y.size(); ++i) sum += 0.5 * (y[i] + y[i - 1]) * dt;
  return sum;
}

double sample_linear(std::span<const double> y, double idx) {
  require(!y.empty(), "sample_linear: empty input");
  require(idx >= 0.0 && idx <= static_cast<double>(y.size() - 1),
          "sample_linear: index out of range");
  const auto i0 = static_cast<std::size_t>(idx);
  if (i0 + 1 >= y.size()) return y.back();
  const double frac = idx - static_cast<double>(i0);
  return lerp(y[i0], y[i0 + 1], frac);
}

LineFit fit_line(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "fit_line: size mismatch");
  require(x.size() >= 2, "fit_line: need at least two points");
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  require(std::abs(denom) > 1e-30, "fit_line: degenerate x values");
  LineFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = y[i] - (fit.intercept + fit.slope * x[i]);
    ss += r * r;
  }
  fit.rms_residual = std::sqrt(ss / n);
  return fit;
}

LineFit fit_line_robust(std::span<const double> x, std::span<const double> y, double k,
                        int iters) {
  require(x.size() == y.size(), "fit_line_robust: size mismatch");
  LineFit fit = fit_line(x, y);
  std::vector<double> xi(x.begin(), x.end());
  std::vector<double> yi(y.begin(), y.end());
  for (int round = 0; round < iters; ++round) {
    std::vector<double> resid(xi.size());
    for (std::size_t i = 0; i < xi.size(); ++i) {
      resid[i] = std::abs(yi[i] - (fit.intercept + fit.slope * xi[i]));
    }
    const double scale = median_absolute_deviation(resid) * 1.4826;
    if (scale <= 1e-15) break;  // already an (almost) exact fit
    std::vector<double> xk, yk;
    xk.reserve(xi.size());
    yk.reserve(yi.size());
    for (std::size_t i = 0; i < xi.size(); ++i) {
      if (resid[i] <= k * scale) {
        xk.push_back(xi[i]);
        yk.push_back(yi[i]);
      }
    }
    if (xk.size() < 2 || xk.size() == xi.size()) break;
    xi = std::move(xk);
    yi = std::move(yk);
    fit = fit_line(xi, yi);
  }
  return fit;
}

}  // namespace hyperear
