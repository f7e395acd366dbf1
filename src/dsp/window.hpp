#pragma once

#include <span>
#include <vector>

/// @file window.hpp
/// Window functions for FIR design, spectral analysis and chirp shaping.

namespace hyperear::dsp {

/// Window families supported by make_window.
enum class WindowType {
  kRectangular,
  kHann,
  kHamming,
  kBlackman,
};

/// Generate a symmetric window of length n (n >= 1).
[[nodiscard]] std::vector<double> make_window(WindowType type, std::size_t n);

/// Multiply a signal by a window in place. Requires matching lengths.
void apply_window(std::span<double> signal, std::span<const double> window);

}  // namespace hyperear::dsp
