#pragma once

#include <span>
#include <vector>

/// @file sma.hpp
/// Simple moving average — the low-pass filter HyperEar applies to inertial
/// signals (paper Section V-A1: an unweighted mean of the previous n = 4
/// samples gives a -3 dB cutoff near 15 Hz at the 100 Hz IMU rate).

namespace hyperear::dsp {

/// Causal simple moving average over the previous `n` samples (including
/// the current one). The first n-1 outputs average the samples available so
/// far. Requires n >= 1.
[[nodiscard]] std::vector<double> moving_average(std::span<const double> x, std::size_t n);

}  // namespace hyperear::dsp
