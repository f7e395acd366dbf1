#include "geom/hyperbola.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace hyperear::geom {

Hyperbola::Hyperbola(const Vec2& f1, const Vec2& f2, double delta, bool allow_degenerate)
    : f1_(f1), f2_(f2), delta_(delta) {
  const double c2 = distance(f1, f2);
  require(c2 > 0.0, "Hyperbola: coincident foci");
  if (allow_degenerate) {
    require(std::abs(delta) <= c2 + 1e-12, "Hyperbola: |delta| exceeds focal distance");
  } else {
    require(std::abs(delta) < c2, "Hyperbola: |delta| must be < focal distance");
  }
}

double Hyperbola::residual(const Vec2& p) const {
  return distance(p, f1_) - distance(p, f2_) - delta_;
}

Vec2 Hyperbola::gradient(const Vec2& p) const {
  const Vec2 u1 = (p - f1_).normalized();
  const Vec2 u2 = (p - f2_).normalized();
  return u1 - u2;
}

std::vector<Vec2> Hyperbola::sample(std::size_t n, double t_max) const {
  require(n >= 2, "Hyperbola::sample: need at least two points");
  require(t_max > 0.0, "Hyperbola::sample: t_max must be positive");
  // Focal frame: center at midpoint, +x from f2 toward f1 (so that the
  // branch with |P-f1| - |P-f2| = delta < 0 lies on the +x side of center).
  const Vec2 center = (f1_ + f2_) * 0.5;
  const double c = distance(f1_, f2_) * 0.5;
  const double a = std::abs(delta_) * 0.5;
  std::vector<Vec2> pts;
  pts.reserve(n);
  const Vec2 axis = (f1_ - f2_).normalized();
  const Vec2 perp = axis.perp();
  if (a < 1e-12) {
    // Degenerate: perpendicular bisector line.
    for (std::size_t i = 0; i < n; ++i) {
      const double t = -t_max + 2.0 * t_max * static_cast<double>(i) / static_cast<double>(n - 1);
      pts.push_back(center + perp * t);
    }
    return pts;
  }
  const double b2 = std::max(c * c - a * a, 0.0);
  const double b = std::sqrt(b2);
  // The branch closer to the focus with the *smaller* range: if delta > 0
  // then |P-f1| > |P-f2| and the branch hugs f2 (negative axis side).
  const double side = delta_ > 0.0 ? -1.0 : 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = -t_max + 2.0 * t_max * static_cast<double>(i) / static_cast<double>(n - 1);
    const double x = side * a * std::cosh(t);
    const double y = b * std::sinh(t);
    pts.push_back(center + axis * x + perp * y);
  }
  return pts;
}

int distinguishable_hyperbola_count(double separation, double sample_rate, double sound_speed) {
  require(separation > 0.0 && sample_rate > 0.0 && sound_speed > 0.0,
          "distinguishable_hyperbola_count: arguments must be positive");
  return static_cast<int>(std::floor(2.0 * separation * sample_rate / sound_speed));
}

double tdoa_region_width(const Vec2& f1, const Vec2& f2, const Vec2& p, double sample_rate,
                         double sound_speed) {
  require(sample_rate > 0.0 && sound_speed > 0.0,
          "tdoa_region_width: rates must be positive");
  const Vec2 g = (p - f1).normalized() - (p - f2).normalized();
  const double gn = g.norm();
  const double step = sound_speed / sample_rate;
  if (gn < 1e-12) return std::numeric_limits<double>::infinity();
  return step / gn;
}

}  // namespace hyperear::geom
