#pragma once

#include <vector>

#include "geom/vec2.hpp"

/// @file hyperbola.hpp
/// Range-difference hyperbolas.
///
/// A TDoA measurement between two receiver positions f1, f2 constrains the
/// source to the locus { P : |P - f1| - |P - f2| = delta }, one branch of a
/// hyperbola with foci f1 and f2 (Section II-B of the paper). This module
/// provides the residual/gradient algebra the solvers use, plus the region-
/// density analysis behind the paper's two key observations (Fig. 4).

namespace hyperear::geom {

/// One branch of a range-difference hyperbola.
class Hyperbola {
 public:
  /// Construct from the two focus points and the signed range difference
  /// delta = |P - f1| - |P - f2|. Requires |delta| < |f1 - f2| (otherwise the
  /// locus is empty or degenerate) unless `allow_degenerate` is set, which
  /// permits |delta| == |f1 - f2| (the locus collapses to a ray).
  Hyperbola(const Vec2& f1, const Vec2& f2, double delta, bool allow_degenerate = false);

  [[nodiscard]] const Vec2& focus1() const { return f1_; }
  [[nodiscard]] const Vec2& focus2() const { return f2_; }
  [[nodiscard]] double delta() const { return delta_; }

  /// Signed residual |P - f1| - |P - f2| - delta; zero on the locus.
  [[nodiscard]] double residual(const Vec2& p) const;

  /// Gradient of the residual with respect to P. Undefined at the foci.
  [[nodiscard]] Vec2 gradient(const Vec2& p) const;

  /// Sample `n` points along the branch within |y-parameter| <= t_max using
  /// the standard (a, b) parameterization in the focal frame. Useful for
  /// plotting and for density studies.
  [[nodiscard]] std::vector<Vec2> sample(std::size_t n, double t_max) const;

 private:
  Vec2 f1_;
  Vec2 f2_;
  double delta_;
};

/// Number of distinguishable hyperbolas for a receiver pair of separation D
/// at sampling rate fs and sound speed S: N = floor(2*D*fs/S) (paper Eq. 2).
[[nodiscard]] int distinguishable_hyperbola_count(double separation, double sample_rate,
                                                  double sound_speed);

/// Local width of a TDoA quantization region at point P for receivers at
/// f1/f2: the spatial distance between adjacent hyperbolas, i.e.
/// (S / fs) / |grad (|P - f1| - |P - f2|)|. Large width == large ambiguity.
/// Returns +inf where the gradient vanishes (on the perpendicular bisector
/// axis at infinity).
[[nodiscard]] double tdoa_region_width(const Vec2& f1, const Vec2& f2, const Vec2& p,
                                       double sample_rate, double sound_speed);

}  // namespace hyperear::geom
