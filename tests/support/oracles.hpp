#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "geom/least_squares.hpp"

/// @file oracles.hpp
/// Reference formulas the tests check the library against. None of them
/// has a caller in the library, so they live here, next to their tests.

namespace hyperear::oracle {

/// Convert a linear power ratio to decibels. Input must be positive.
inline double power_to_db(double ratio) { return 10.0 * std::log10(ratio); }

/// Magnitude response at `freq_hz` of the finite impulse response `h`:
/// |sum_k h[k] e^{-i w k}|. For an FIR, `h` is its taps; a stable IIR is
/// checked through an impulse response long enough to have decayed.
inline double fir_magnitude_at(std::span<const double> h, double freq_hz,
                               double sample_rate) {
  const double omega = 2.0 * kPi * freq_hz / sample_rate;
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < h.size(); ++i) {
    re += h[i] * std::cos(omega * static_cast<double>(i));
    im -= h[i] * std::sin(omega * static_cast<double>(i));
  }
  return std::sqrt(re * re + im * im);
}

/// Magnitude response of the length-n simple moving average at frequency f
/// (sample rate fs), in closed form: |sin(pi f n / fs) / (n sin(pi f / fs))|.
inline double moving_average_magnitude(std::size_t n, double freq_hz,
                                       double sample_rate) {
  if (freq_hz == 0.0) return 1.0;
  const double w = kPi * freq_hz / sample_rate;
  const double num = std::sin(static_cast<double>(n) * w);
  const double den = static_cast<double>(n) * std::sin(w);
  if (std::abs(den) < 1e-30) return 1.0;
  return std::abs(num / den);
}

/// The -3 dB cutoff frequency of the length-n (>= 2) simple moving average
/// at the given sample rate, found by bisection.
inline double moving_average_cutoff_hz(std::size_t n, double sample_rate) {
  const double target = std::sqrt(0.5);
  double lo = 0.0;
  double hi = sample_rate / 2.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (moving_average_magnitude(n, mid, sample_rate) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Sliding normalized cross-correlation from an already-computed
/// valid-mode correlation `corr` of `x` against a template of length
/// `h_size` and L2 norm `h_norm`: corr[k] / norm.denominator(k), as a
/// separate pass. The reference the detector's fused gate is tested
/// against. Requires corr.size() == x.size() - h_size + 1.
inline std::vector<double> normalize_correlation(std::span<const double> corr,
                                                 std::span<const double> x,
                                                 std::size_t h_size, double h_norm) {
  std::vector<double> prefix;
  const dsp::WindowNormalizer norm(x, h_size, h_norm, prefix);
  std::vector<double> out(corr.size());
  for (std::size_t k = 0; k < corr.size(); ++k) out[k] = corr[k] / norm.denominator(k);
  return out;
}

/// Residual callback of the dynamic-size Levenberg–Marquardt oracle.
using ResidualFn = std::function<std::vector<double>(const std::vector<double>&)>;

/// Result of the dynamic-size Levenberg–Marquardt oracle.
struct LmResult {
  std::vector<double> parameters;
  double cost = 0.0;  ///< 0.5 * sum of squared residuals at the solution
  int iterations = 0;
  bool converged = false;
};

namespace lm_detail {

inline double cost_of(const std::vector<double>& r) {
  double c = 0.0;
  for (double v : r) c += v * v;
  return 0.5 * c;
}

/// Solve (A + lambda*diag(A)) x = b for small dense symmetric A via
/// Gaussian elimination with partial pivoting. A is n x n row-major.
inline bool solve_damped(std::vector<double> a, std::vector<double> b, double lambda,
                         std::vector<double>& x) {
  const std::size_t n = b.size();
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] *= (1.0 + lambda);
    if (a[i * n + i] == 0.0) a[i * n + i] = lambda > 0.0 ? lambda : 1e-12;
  }
  // Gaussian elimination with partial pivoting.
  std::vector<std::size_t> piv(n);
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t best = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row * n + col]) > std::abs(a[best * n + col])) best = row;
    }
    if (std::abs(a[best * n + col]) < 1e-300) return false;
    if (best != col) {
      for (std::size_t k = 0; k < n; ++k) std::swap(a[col * n + k], a[best * n + k]);
      std::swap(b[col], b[best]);
    }
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row * n + col] / a[col * n + col];
      for (std::size_t k = col; k < n; ++k) a[row * n + k] -= f * a[col * n + k];
      b[row] -= f * b[col];
    }
  }
  x.assign(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < n; ++k) s -= a[i * n + k] * x[k];
    x[i] = s / a[i * n + i];
  }
  return true;
}

}  // namespace lm_detail

/// The library's Levenberg–Marquardt as it was before its sizes became
/// compile-time: every buffer a heap vector, the residuals behind a
/// std::function. geom::levenberg_marquardt must equal it bit for bit.
inline LmResult levenberg_marquardt(const ResidualFn& residuals, std::vector<double> initial,
                                    const geom::LmOptions& options = {}) {
  require(!initial.empty(), "levenberg_marquardt: empty parameter vector");
  const std::size_t n = initial.size();

  std::vector<double> p = std::move(initial);
  std::vector<double> r = residuals(p);
  require(!r.empty(), "levenberg_marquardt: residual function returned empty vector");
  const std::size_t m = r.size();
  double cost = lm_detail::cost_of(r);
  double lambda = options.initial_lambda;

  LmResult result;
  result.parameters = p;
  result.cost = cost;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Numeric Jacobian (m x n), forward differences.
    std::vector<double> jac(m * n);
    for (std::size_t j = 0; j < n; ++j) {
      const double h = options.jacobian_epsilon * std::max(1.0, std::abs(p[j]));
      std::vector<double> pj = p;
      pj[j] += h;
      const std::vector<double> rj = residuals(pj);
      require(rj.size() == m, "levenberg_marquardt: residual size changed");
      for (std::size_t i = 0; i < m; ++i) jac[i * n + j] = (rj[i] - r[i]) / h;
    }
    // Normal equations: JtJ and Jtr.
    std::vector<double> jtj(n * n, 0.0);
    std::vector<double> jtr(n, 0.0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        jtr[j] += jac[i * n + j] * r[i];
        for (std::size_t k = j; k < n; ++k) jtj[j * n + k] += jac[i * n + j] * jac[i * n + k];
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < j; ++k) jtj[j * n + k] = jtj[k * n + j];
    }
    double max_grad = 0.0;
    for (double g : jtr) max_grad = std::max(max_grad, std::abs(g));
    if (max_grad < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    // Damped step; retry with larger lambda until the cost decreases.
    bool stepped = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
      std::vector<double> rhs(n);
      for (std::size_t j = 0; j < n; ++j) rhs[j] = -jtr[j];
      std::vector<double> step;
      if (!lm_detail::solve_damped(jtj, rhs, lambda, step)) {
        lambda *= options.lambda_up;
        continue;
      }
      double step_norm = 0.0;
      for (double s : step) step_norm += s * s;
      step_norm = std::sqrt(step_norm);
      std::vector<double> p_new = p;
      for (std::size_t j = 0; j < n; ++j) p_new[j] += step[j];
      const std::vector<double> r_new = residuals(p_new);
      const double cost_new = lm_detail::cost_of(r_new);
      if (cost_new < cost) {
        p = std::move(p_new);
        r = r_new;
        cost = cost_new;
        lambda = std::max(lambda * options.lambda_down, 1e-12);
        stepped = true;
        if (step_norm < options.step_tolerance) {
          result.converged = true;
        }
        break;
      }
      lambda *= options.lambda_up;
    }
    result.parameters = p;
    result.cost = cost;
    if (!stepped || result.converged) {
      // No productive step found at any damping, or step became negligible.
      if (!stepped) result.converged = cost < 1e-18 || max_grad < 1e-6;
      break;
    }
  }
  result.parameters = p;
  result.cost = cost;
  return result;
}

/// The library's robust line fit as it was before it took caller scratch:
/// each round copies the inliers and the residuals into fresh vectors.
/// fit_line_robust must equal it bit for bit.
inline LineFit fit_line_robust(std::span<const double> x, std::span<const double> y,
                               double k = 3.0, int iters = 3) {
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

}  // namespace hyperear::oracle
