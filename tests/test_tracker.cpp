#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hyperear::core {
namespace {

TEST(Tracker, SingleFixIsTheEstimate) {
  BeaconTracker t;
  EXPECT_EQ(t.fixes(), 0);
  t.update({3.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(t.estimate().x, 3.0);
  EXPECT_DOUBLE_EQ(t.estimate().y, 4.0);
  EXPECT_DOUBLE_EQ(t.uncertainty(), 0.5);
  EXPECT_EQ(t.fixes(), 1);
}

TEST(Tracker, EqualSigmasAverage) {
  BeaconTracker t;
  t.update({2.0, 0.0}, 0.3);
  t.update({4.0, 0.0}, 0.3);
  EXPECT_DOUBLE_EQ(t.estimate().x, 3.0);
  EXPECT_NEAR(t.uncertainty(), 0.3 / std::sqrt(2.0), 1e-12);
}

TEST(Tracker, AccurateFixDominates) {
  BeaconTracker t;
  t.update({10.0, 0.0}, 1.0);   // far, sloppy
  t.update({2.0, 0.0}, 0.05);   // close, sharp
  EXPECT_NEAR(t.estimate().x, 2.0, 0.05);
}

TEST(Tracker, UncertaintyMonotonicallyShrinks) {
  BeaconTracker t;
  double last = 1e9;
  Rng rng(911);
  for (int i = 0; i < 10; ++i) {
    t.update({rng.gaussian(5.0, 0.1), rng.gaussian(5.0, 0.1)}, 0.4);
    EXPECT_LT(t.uncertainty(), last);
    last = t.uncertainty();
  }
}

TEST(Tracker, ConvergesToTruthUnderNoise) {
  const geom::Vec2 truth{7.0, 3.0};
  Rng rng(912);
  BeaconTracker t;
  for (int i = 0; i < 50; ++i) {
    const double sigma = 0.3;
    t.update({truth.x + rng.gaussian(0.0, sigma), truth.y + rng.gaussian(0.0, sigma)},
             sigma);
  }
  EXPECT_LT(distance(t.estimate(), truth), 0.15);
}

TEST(Tracker, InvalidSigmaThrows) {
  BeaconTracker t;
  EXPECT_THROW(t.update({0, 0}, 0.0), PreconditionError);
  EXPECT_THROW((void)t.estimate(), PreconditionError);
  EXPECT_THROW((void)t.uncertainty(), PreconditionError);
}

TEST(FixSigma, GrowsWithRangeAndHandedness) {
  const double near_ruler = fix_sigma(1.0, false);
  const double far_ruler = fix_sigma(7.0, false);
  const double far_hand = fix_sigma(7.0, true);
  EXPECT_LT(near_ruler, far_ruler);
  EXPECT_LT(far_ruler, far_hand);
  EXPECT_GE(near_ruler, 0.02);  // floor
}

TEST(Guidance, BearingAndDistance) {
  const Guidance g = guide_toward({1.0, 1.0}, {4.0, 5.0});
  EXPECT_DOUBLE_EQ(g.distance, 5.0);
  EXPECT_NEAR(rad2deg(g.bearing_rad), 53.13, 0.01);
}

}  // namespace
}  // namespace hyperear::core
