#pragma once

#include <cmath>

/// @file vec2.hpp
/// Minimal 2D vector value type used by the planar localization math.

namespace hyperear::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(const Vec2& o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(const Vec2& o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }
  constexpr Vec2 operator-() const { return {-x, -y}; }

  Vec2& operator+=(const Vec2& o) {
    x += o.x;
    y += o.y;
    return *this;
  }
  Vec2& operator-=(const Vec2& o) {
    x -= o.x;
    y -= o.y;
    return *this;
  }
  Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  [[nodiscard]] constexpr double dot(const Vec2& o) const { return x * o.x + y * o.y; }
  /// z-component of the 3D cross product of the embedded vectors.
  [[nodiscard]] constexpr double cross(const Vec2& o) const { return x * o.y - y * o.x; }
  [[nodiscard]] double norm() const { return std::sqrt(x * x + y * y); }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  /// Unit vector in the same direction; the zero vector is returned unchanged.
  [[nodiscard]] Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : *this;
  }
  /// Perpendicular vector rotated +90 degrees.
  [[nodiscard]] constexpr Vec2 perp() const { return {-y, x}; }
  /// Angle of the vector from the +x axis, in (-pi, pi].
  [[nodiscard]] double angle() const { return std::atan2(y, x); }
};

inline constexpr Vec2 operator*(double s, const Vec2& v) { return v * s; }

[[nodiscard]] inline double distance(const Vec2& a, const Vec2& b) { return (a - b).norm(); }

}  // namespace hyperear::geom
