#include <gtest/gtest.h>

#include <cmath>

#include "common/units.hpp"
#include "geom/vec2.hpp"
#include "geom/vec3.hpp"

namespace hyperear::geom {
namespace {

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0};
  const Vec2 b{3.0, -1.0};
  EXPECT_DOUBLE_EQ((a + b).x, 4.0);
  EXPECT_DOUBLE_EQ((a - b).y, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).x, 2.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
  EXPECT_DOUBLE_EQ((-a).x, -1.0);
}

TEST(Vec2, DotCrossNorm) {
  const Vec2 a{3.0, 4.0};
  const Vec2 b{1.0, 0.0};
  EXPECT_DOUBLE_EQ(a.dot(b), 3.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -4.0);
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
}

TEST(Vec2, NormalizedAndPerp) {
  const Vec2 a{3.0, 4.0};
  const Vec2 u = a.normalized();
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u.dot(a.perp()), 0.0, 1e-12);
  // Zero vector stays zero rather than dividing by zero.
  EXPECT_DOUBLE_EQ(Vec2{}.normalized().norm(), 0.0);
}

TEST(Vec2, PerpIsPlusNinetyDegrees) {
  const Vec2 x{1.0, 0.0};
  EXPECT_DOUBLE_EQ(x.perp().x, 0.0);
  EXPECT_DOUBLE_EQ(x.perp().y, 1.0);
}

TEST(Vec2, AngleAndUnitFromAngle) {
  EXPECT_NEAR((Vec2{0.0, 1.0}).angle(), kPi / 2.0, 1e-12);
  // The unit vector at an angle points back at that angle.
  const Vec2 u{std::cos(kPi / 6.0), std::sin(kPi / 6.0)};
  EXPECT_NEAR(u.norm(), 1.0, 1e-12);
  EXPECT_NEAR(u.angle(), kPi / 6.0, 1e-12);
}

TEST(Vec2, Distance) {
  EXPECT_DOUBLE_EQ(distance(Vec2{0.0, 0.0}, Vec2{3.0, 4.0}), 5.0);
}

TEST(Vec2, CompoundAssignment) {
  Vec2 a{1.0, 1.0};
  a += {2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.x, 3.0);
  a -= {1.0, 1.0};
  EXPECT_DOUBLE_EQ(a.y, 3.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a.x, 4.0);
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec3 b{-1.0, 0.5, 2.0};
  EXPECT_DOUBLE_EQ((a + b).z, 5.0);
  EXPECT_DOUBLE_EQ((a - b).x, 2.0);
  EXPECT_DOUBLE_EQ((a * 3.0).y, 6.0);
  EXPECT_DOUBLE_EQ((3.0 * a).y, 6.0);
}

TEST(Vec3, CrossProductRightHanded) {
  const Vec3 x{1.0, 0.0, 0.0};
  const Vec3 y{0.0, 1.0, 0.0};
  const Vec3 z = x.cross(y);
  EXPECT_DOUBLE_EQ(z.x, 0.0);
  EXPECT_DOUBLE_EQ(z.y, 0.0);
  EXPECT_DOUBLE_EQ(z.z, 1.0);
  // Anti-commutative.
  EXPECT_DOUBLE_EQ(y.cross(x).z, -1.0);
}

TEST(Vec3, DotAndNorm) {
  const Vec3 a{2.0, 3.0, 6.0};
  EXPECT_DOUBLE_EQ(a.norm(), 7.0);
  EXPECT_DOUBLE_EQ(a.dot(a), 49.0);
  EXPECT_NEAR(a.normalized().norm(), 1.0, 1e-12);
}

TEST(Vec3, XyProjectionAndLift) {
  const Vec3 a{1.0, 2.0, 3.0};
  const Vec2 p = a.xy();
  EXPECT_DOUBLE_EQ(p.x, 1.0);
  EXPECT_DOUBLE_EQ(p.y, 2.0);
  const Vec3 lifted(p, 5.0);
  EXPECT_DOUBLE_EQ(lifted.z, 5.0);
  EXPECT_DOUBLE_EQ(lifted.x, 1.0);
}

TEST(Vec3, Distance) {
  EXPECT_DOUBLE_EQ(distance(Vec3{0, 0, 0}, Vec3{2.0, 3.0, 6.0}), 7.0);
}

}  // namespace
}  // namespace hyperear::geom
