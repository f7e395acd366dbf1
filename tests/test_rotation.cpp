#include "geom/rotation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"

namespace hyperear::geom {
namespace {

void expect_vec_near(const Vec3& a, const Vec3& b, double tol = 1e-12) {
  EXPECT_NEAR(a.x, b.x, tol);
  EXPECT_NEAR(a.y, b.y, tol);
  EXPECT_NEAR(a.z, b.z, tol);
}

TEST(Mat3, IdentityLeavesVectors) {
  const Vec3 v{1.0, -2.0, 3.0};
  expect_vec_near(Mat3::identity() * v, v);
}

TEST(Mat3, RotZQuarterTurn) {
  const Vec3 v = Mat3::rot_z(kPi / 2.0) * Vec3{1.0, 0.0, 0.0};
  expect_vec_near(v, {0.0, 1.0, 0.0});
}

TEST(Mat3, RotXQuarterTurn) {
  const Vec3 v = Mat3::rot_x(kPi / 2.0) * Vec3{0.0, 1.0, 0.0};
  expect_vec_near(v, {0.0, 0.0, 1.0});
}

TEST(Mat3, RotYQuarterTurn) {
  const Vec3 v = Mat3::rot_y(kPi / 2.0) * Vec3{0.0, 0.0, 1.0};
  expect_vec_near(v, {1.0, 0.0, 0.0});
}

TEST(Mat3, TransposeIsInverse) {
  const Mat3 r = Mat3::from_euler_zyx(0.4, -0.2, 0.9);
  const Vec3 v{1.0, 2.0, 3.0};
  expect_vec_near(r.transpose() * (r * v), v, 1e-12);
}

TEST(Mat3, CompositionMatchesSequentialApplication) {
  const Mat3 a = Mat3::rot_z(0.3);
  const Mat3 b = Mat3::rot_x(0.7);
  const Vec3 v{0.5, -1.0, 2.0};
  expect_vec_near((a * b) * v, a * (b * v), 1e-12);
}

TEST(Mat3, EulerZyxOrder) {
  // Pure yaw: matches rot_z.
  const Mat3 yaw_only = Mat3::from_euler_zyx(0.6, 0.0, 0.0);
  const Mat3 rz = Mat3::rot_z(0.6);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_NEAR(yaw_only.at(i, j), rz.at(i, j), 1e-12);
  }
}

TEST(Mat3, YawExtraction) {
  for (double psi : {-2.0, -0.5, 0.0, 0.5, 2.5}) {
    const Mat3 r = Mat3::from_euler_zyx(psi, 0.05, -0.03);
    EXPECT_NEAR(r.yaw(), psi, 0.01) << "psi=" << psi;
  }
}

TEST(Pose, RoundTripWorldBody) {
  Pose pose;
  pose.position = {1.0, 2.0, 3.0};
  pose.orientation = Mat3::from_euler_zyx(0.3, 0.1, -0.2);
  const Vec3 body{0.0, 0.07, 0.0};
  const Vec3 world = pose.to_world(body);
  // Map the world *vector* back to body frame.
  const Vec3 back = pose.orientation.transpose() * (world - pose.position);
  expect_vec_near(back, body, 1e-12);
}

TEST(Pose, MicOffsetStaysRigid) {
  Pose pose;
  pose.position = {5.0, 5.0, 1.0};
  pose.orientation = Mat3::rot_z(1.234);
  const Vec3 mic1{0.0, 0.07, 0.0};
  const Vec3 mic2{0.0, -0.07, 0.0};
  const double d = distance(pose.to_world(mic1), pose.to_world(mic2));
  EXPECT_NEAR(d, 0.14, 1e-12);
}

}  // namespace
}  // namespace hyperear::geom
