#include "dsp/window.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace hyperear::dsp {
namespace {

TEST(Window, RectangularIsAllOnes) {
  for (double v : make_window(WindowType::kRectangular, 16)) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Window, HannEndpointsAndPeak) {
  const std::vector<double> w = make_window(WindowType::kHann, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);
}

TEST(Window, HammingEndpoints) {
  const std::vector<double> w = make_window(WindowType::kHamming, 65);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
  EXPECT_NEAR(w.back(), 0.08, 1e-12);
}

TEST(Window, BlackmanEndpointsNearZero) {
  const std::vector<double> w = make_window(WindowType::kBlackman, 65);
  EXPECT_NEAR(w.front(), 0.0, 1e-9);
  EXPECT_NEAR(w[32], 1.0, 1e-9);
}

TEST(Window, Symmetry) {
  for (auto type : {WindowType::kHann, WindowType::kHamming, WindowType::kBlackman}) {
    const std::vector<double> w = make_window(type, 33);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
    }
  }
}

TEST(Window, SingleSampleIsOne) {
  EXPECT_DOUBLE_EQ(make_window(WindowType::kHann, 1)[0], 1.0);
  EXPECT_THROW((void)make_window(WindowType::kHann, 0), PreconditionError);
}

TEST(ApplyWindow, MultipliesInPlace) {
  std::vector<double> s{2.0, 2.0, 2.0};
  const std::vector<double> w{0.5, 1.0, 0.25};
  apply_window(s, w);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
  EXPECT_DOUBLE_EQ(s[2], 0.5);
}

TEST(ApplyWindow, LengthMismatchThrows) {
  std::vector<double> s{1.0, 2.0};
  const std::vector<double> w{1.0};
  EXPECT_THROW(apply_window(s, w), PreconditionError);
}

}  // namespace
}  // namespace hyperear::dsp
