#include "imu/gravity.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace hyperear::imu {
namespace {

/// Static phone, slightly tilted: gravity projects onto x/y.
ImuData tilted_static(double pitch_rad, std::size_t n) {
  ImuData d;
  d.sample_rate = 100.0;
  d.accel_x.assign(n, 0.0);
  d.accel_y.assign(n, kGravity * std::sin(pitch_rad));
  d.accel_z.assign(n, kGravity * std::cos(pitch_rad));
  d.gyro_x.assign(n, 0.0);
  d.gyro_y.assign(n, 0.0);
  d.gyro_z.assign(n, 0.0);
  return d;
}

TEST(RemoveGravity, StaticHeadZeroesLinearAcceleration) {
  const ImuData d = tilted_static(deg2rad(3.0), 600);
  const LinearAcceleration lin = remove_gravity(d);
  for (std::size_t i = 0; i < lin.x.size(); ++i) {
    EXPECT_NEAR(lin.x[i], 0.0, 1e-9);
    EXPECT_NEAR(lin.y[i], 0.0, 1e-9);
    EXPECT_NEAR(lin.z[i], 0.0, 1e-9);
  }
}

TEST(RemoveGravity, MotionAfterHeadSurvives) {
  ImuData d = tilted_static(0.0, 800);
  // A burst of y acceleration after the 2 s head.
  for (std::size_t i = 400; i < 500; ++i) d.accel_y[i] += 2.0;
  const LinearAcceleration lin = remove_gravity(d);
  EXPECT_NEAR(lin.y[450], 2.0, 1e-9);
  EXPECT_NEAR(lin.y[100], 0.0, 1e-9);
}

TEST(RemoveGravity, StaticHeadIgnoresLateMotion) {
  // The median over the head window must not be polluted by motion later.
  ImuData d = tilted_static(0.0, 1000);
  for (std::size_t i = 300; i < 1000; ++i) d.accel_y[i] += 3.0;
  GravityOptions opts;
  opts.head_duration_s = 2.0;
  const LinearAcceleration lin = remove_gravity(d, opts);
  EXPECT_NEAR(lin.gravity_y[0], 0.0, 1e-9);
}

TEST(RemoveGravity, LowpassModeTracksGravity) {
  GravityOptions opts;
  opts.mode = GravityMode::kLowpass;
  const ImuData d = tilted_static(deg2rad(2.0), 1000);
  const LinearAcceleration lin = remove_gravity(d, opts);
  // Middle of the record: gravity fully captured by the low-pass.
  EXPECT_NEAR(lin.y[500], 0.0, 2e-3);  // filtfilt edge transient remnant
  EXPECT_NEAR(lin.gravity_z[500], kGravity * std::cos(deg2rad(2.0)), 0.05);
}

TEST(RemoveGravity, ShortRecordThrows) {
  const ImuData d = tilted_static(0.0, 4);
  EXPECT_THROW((void)remove_gravity(d), PreconditionError);
}

}  // namespace
}  // namespace hyperear::imu
