#pragma once

#include "geom/vec2.hpp"
#include "geom/vec3.hpp"

/// @file rotation.hpp
/// 3x3 rotation matrices (world <-> phone body frame).
///
/// Body frame convention (Android-style): +x to the right of the screen,
/// +y toward the top edge (this is the microphone axis on both evaluated
/// phones), +z out of the screen. World frame: x/y on the floor map, z up.

namespace hyperear::geom {

/// Row-major 3x3 rotation matrix.
class Mat3 {
 public:
  /// Identity rotation.
  Mat3();
  /// From row-major coefficients.
  Mat3(double r00, double r01, double r02, double r10, double r11, double r12, double r20,
       double r21, double r22);

  [[nodiscard]] static Mat3 identity();
  /// Rotation of `rad` about the world x axis.
  [[nodiscard]] static Mat3 rot_x(double rad);
  /// Rotation of `rad` about the world y axis.
  [[nodiscard]] static Mat3 rot_y(double rad);
  /// Rotation of `rad` about the world z axis.
  [[nodiscard]] static Mat3 rot_z(double rad);
  /// Intrinsic z-y'-x'' (yaw-pitch-roll) composition.
  [[nodiscard]] static Mat3 from_euler_zyx(double yaw, double pitch, double roll);

  [[nodiscard]] Mat3 operator*(const Mat3& o) const;
  [[nodiscard]] Vec3 operator*(const Vec3& v) const;

  /// Transpose (== inverse for rotation matrices).
  [[nodiscard]] Mat3 transpose() const;

  [[nodiscard]] double at(int row, int col) const { return m_[row][col]; }

  /// Yaw (rotation about z) of the matrix's x-axis image, in (-pi, pi].
  [[nodiscard]] double yaw() const;

 private:
  double m_[3][3];
};

/// Pose of the phone: world position of the phone center plus the body->world
/// rotation.
struct Pose {
  Vec3 position;
  Mat3 orientation;  ///< columns are the body axes expressed in world frame

  /// Map a body-frame point to world coordinates.
  [[nodiscard]] Vec3 to_world(const Vec3& body) const {
    return position + orientation * body;
  }
};

}  // namespace hyperear::geom
