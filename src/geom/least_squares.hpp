#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <tuple>
#include <type_traits>
#include <utility>

/// @file least_squares.hpp
/// Dense Levenberg–Marquardt for the small nonlinear systems HyperEar solves.
/// The sizes are compile-time: N parameters, M residuals, every buffer a
/// `std::array` on the stack, and the residual functor a template
/// parameter, so a solve never touches the heap. Its one production
/// caller, two-hyperbola intersection (geom::intersect), is a 2-parameter,
/// 2-residual problem that TTL runs up to `max_pairs` times per slide.

namespace hyperear::geom {

/// Options controlling the LM iteration.
struct LmOptions {
  int max_iterations = 100;
  double gradient_tolerance = 1e-12;  ///< stop when max|J^T r| is below this
  double step_tolerance = 1e-12;      ///< stop when the step norm is below this
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.1;
  double jacobian_epsilon = 1e-7;     ///< forward-difference step scale
};

/// Result of an LM solve over N parameters.
template <std::size_t N>
struct LmResult {
  std::array<double, N> parameters{};
  double cost = 0.0;  ///< 0.5 * sum of squared residuals at the solution
  int iterations = 0;
  bool converged = false;
};

/// The number of residuals M a functor returns for N parameters: it maps
/// `const std::array<double, N>&` to a `std::array<double, M>`.
template <class Residuals, std::size_t N>
inline constexpr std::size_t residual_count_v = std::tuple_size_v<
    std::invoke_result_t<const Residuals&, const std::array<double, N>&>>;

namespace lm_detail {

template <std::size_t M>
double cost_of(const std::array<double, M>& r) {
  double c = 0.0;
  for (double v : r) c += v * v;
  return 0.5 * c;
}

/// Solve (A + lambda*diag(A)) x = b for small dense symmetric A via
/// Gaussian elimination with partial pivoting. A is N x N row-major; both
/// arrive by value, as scratch.
template <std::size_t N>
bool solve_damped(std::array<double, N * N> a, std::array<double, N> b, double lambda,
                  std::array<double, N>& x) {
  for (std::size_t i = 0; i < N; ++i) {
    a[i * N + i] *= (1.0 + lambda);
    if (a[i * N + i] == 0.0) a[i * N + i] = lambda > 0.0 ? lambda : 1e-12;
  }
  for (std::size_t col = 0; col < N; ++col) {
    std::size_t best = col;
    for (std::size_t row = col + 1; row < N; ++row) {
      if (std::abs(a[row * N + col]) > std::abs(a[best * N + col])) best = row;
    }
    if (std::abs(a[best * N + col]) < 1e-300) return false;
    if (best != col) {
      for (std::size_t k = 0; k < N; ++k) std::swap(a[col * N + k], a[best * N + k]);
      std::swap(b[col], b[best]);
    }
    for (std::size_t row = col + 1; row < N; ++row) {
      const double f = a[row * N + col] / a[col * N + col];
      for (std::size_t k = col; k < N; ++k) a[row * N + k] -= f * a[col * N + k];
      b[row] -= f * b[col];
    }
  }
  x.fill(0.0);
  for (std::size_t i = N; i-- > 0;) {
    double s = b[i];
    for (std::size_t k = i + 1; k < N; ++k) s -= a[i * N + k] * x[k];
    x[i] = s / a[i * N + i];
  }
  return true;
}

}  // namespace lm_detail

/// Minimize 0.5*||r(p)||^2 from the given initial parameters using numeric
/// forward-difference Jacobians. An empty system (N or M zero) does not
/// compile.
template <class Residuals, std::size_t N>
  requires(N >= 1 && residual_count_v<Residuals, N> >= 1)
[[nodiscard]] LmResult<N> levenberg_marquardt(const Residuals& residuals,
                                              const std::array<double, N>& initial,
                                              const LmOptions& options = {}) {
  constexpr std::size_t M = residual_count_v<Residuals, N>;
  std::array<double, N> p = initial;
  std::array<double, M> r = residuals(p);
  double cost = lm_detail::cost_of(r);
  double lambda = options.initial_lambda;

  LmResult<N> result;
  result.parameters = p;
  result.cost = cost;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Numeric Jacobian (M x N), forward differences.
    std::array<double, M * N> jac{};
    for (std::size_t j = 0; j < N; ++j) {
      const double h = options.jacobian_epsilon * std::max(1.0, std::abs(p[j]));
      std::array<double, N> pj = p;
      pj[j] += h;
      const std::array<double, M> rj = residuals(pj);
      for (std::size_t i = 0; i < M; ++i) jac[i * N + j] = (rj[i] - r[i]) / h;
    }
    // Normal equations: JtJ and Jtr.
    std::array<double, N * N> jtj{};
    std::array<double, N> jtr{};
    for (std::size_t i = 0; i < M; ++i) {
      for (std::size_t j = 0; j < N; ++j) {
        jtr[j] += jac[i * N + j] * r[i];
        for (std::size_t k = j; k < N; ++k) jtj[j * N + k] += jac[i * N + j] * jac[i * N + k];
      }
    }
    for (std::size_t j = 0; j < N; ++j) {
      for (std::size_t k = 0; k < j; ++k) jtj[j * N + k] = jtj[k * N + j];
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
      std::array<double, N> rhs{};
      for (std::size_t j = 0; j < N; ++j) rhs[j] = -jtr[j];
      std::array<double, N> step{};
      if (!lm_detail::solve_damped<N>(jtj, rhs, lambda, step)) {
        lambda *= options.lambda_up;
        continue;
      }
      double step_norm = 0.0;
      for (double s : step) step_norm += s * s;
      step_norm = std::sqrt(step_norm);
      std::array<double, N> p_new = p;
      for (std::size_t j = 0; j < N; ++j) p_new[j] += step[j];
      const std::array<double, M> r_new = residuals(p_new);
      const double cost_new = lm_detail::cost_of(r_new);
      if (cost_new < cost) {
        p = p_new;
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

}  // namespace hyperear::geom
