#include "geom/rotation.hpp"

#include <cmath>

namespace hyperear::geom {

Mat3::Mat3()
    : m_{{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}} {}

Mat3::Mat3(double r00, double r01, double r02, double r10, double r11, double r12, double r20,
           double r21, double r22)
    : m_{{r00, r01, r02}, {r10, r11, r12}, {r20, r21, r22}} {}

Mat3 Mat3::identity() { return Mat3(); }

Mat3 Mat3::rot_x(double rad) {
  const double c = std::cos(rad), s = std::sin(rad);
  return {1, 0, 0, 0, c, -s, 0, s, c};
}

Mat3 Mat3::rot_y(double rad) {
  const double c = std::cos(rad), s = std::sin(rad);
  return {c, 0, s, 0, 1, 0, -s, 0, c};
}

Mat3 Mat3::rot_z(double rad) {
  const double c = std::cos(rad), s = std::sin(rad);
  return {c, -s, 0, s, c, 0, 0, 0, 1};
}

Mat3 Mat3::from_euler_zyx(double yaw, double pitch, double roll) {
  return rot_z(yaw) * rot_y(pitch) * rot_x(roll);
}

Mat3 Mat3::operator*(const Mat3& o) const {
  Mat3 r;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double s = 0.0;
      for (int k = 0; k < 3; ++k) s += m_[i][k] * o.m_[k][j];
      r.m_[i][j] = s;
    }
  }
  return r;
}

Vec3 Mat3::operator*(const Vec3& v) const {
  return {m_[0][0] * v.x + m_[0][1] * v.y + m_[0][2] * v.z,
          m_[1][0] * v.x + m_[1][1] * v.y + m_[1][2] * v.z,
          m_[2][0] * v.x + m_[2][1] * v.y + m_[2][2] * v.z};
}

Mat3 Mat3::transpose() const {
  return {m_[0][0], m_[1][0], m_[2][0], m_[0][1], m_[1][1], m_[2][1],
          m_[0][2], m_[1][2], m_[2][2]};
}

double Mat3::yaw() const { return std::atan2(m_[1][0], m_[0][0]); }

}  // namespace hyperear::geom
