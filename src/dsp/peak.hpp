#pragma once

#include <span>
#include <vector>

/// @file peak.hpp
/// Peak picking with sub-sample refinement.
///
/// The TDoA resolution of a 44.1 kHz ADC is ~22.7 us (7.78 mm of range).
/// HyperEar's ASP stage interpolates the matched-filter output "to achieve
/// sub-sample resolution" (paper Section III). We fit a parabola through the
/// peak sample and its neighbors — the standard estimator for correlation
/// peaks — which recovers a fractional offset in (-0.5, 0.5).

namespace hyperear::dsp {

/// A located peak.
struct Peak {
  std::size_t index = 0;      ///< integer sample index of the local maximum
  double refined_index = 0.0; ///< sub-sample position after parabolic fit
  double value = 0.0;         ///< interpolated peak height
};

/// Vertex of the parabola through (-1, ym), (0, y0), (+1, yp).
struct ParabolicFit {
  double offset = 0.0;  ///< vertex position relative to the middle sample, in [-0.5, 0.5]
  double value = 0.0;   ///< interpolated height at the vertex
};

/// The three-point fit behind `refine_peak`, for callers whose neighbors
/// do not sit in one array (the matched-filter detector refines a peak on
/// a chunk's first or last lag with the adjacent chunk's value). A flat
/// triple (|ym - 2*y0 + yp| < 1e-30) yields offset 0 and value y0.
[[nodiscard]] ParabolicFit parabolic_fit(double ym, double y0, double yp);

/// Parabolic (three-point) interpolation around index i of y.
/// Returns the fractional offset in (-0.5, 0.5) and the interpolated value.
/// At the array edges the offset is zero. Requires non-empty y, i < y.size().
[[nodiscard]] Peak refine_peak(std::span<const double> y, std::size_t i);

/// Find all local maxima with value >= threshold, enforcing a minimum
/// spacing between accepted peaks (greedy by height). Returned peaks are
/// sorted by index.
[[nodiscard]] std::vector<Peak> find_peaks(std::span<const double> y, double threshold,
                                           std::size_t min_spacing);

}  // namespace hyperear::dsp
