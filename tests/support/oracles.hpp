#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dsp/correlation.hpp"

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

}  // namespace hyperear::oracle
