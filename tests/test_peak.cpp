#include "dsp/peak.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {
namespace {

TEST(RefinePeak, ExactParabolaRecovered) {
  // Samples of y = 1 - (x - 5.3)^2 around its apex.
  std::vector<double> y(11);
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double d = static_cast<double>(i) - 5.3;
    y[i] = 1.0 - d * d;
  }
  const Peak p = refine_peak(y, 5);
  EXPECT_NEAR(p.refined_index, 5.3, 1e-9);
  EXPECT_NEAR(p.value, 1.0, 1e-9);
}

TEST(RefinePeak, OffsetBoundedToHalfSample) {
  std::vector<double> y{0.0, 1.0, 0.999, 0.0};
  const Peak p = refine_peak(y, 1);
  EXPECT_GE(p.refined_index, 0.5);
  EXPECT_LE(p.refined_index, 1.5);
}

TEST(RefinePeak, EdgesReturnIntegerIndex) {
  const std::vector<double> y{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(refine_peak(y, 0).refined_index, 0.0);
  EXPECT_DOUBLE_EQ(refine_peak(y, 2).refined_index, 2.0);
}

TEST(RefinePeak, SinusoidSubSampleAccuracy) {
  // The use case: sub-sample timing of a band-limited correlation peak.
  const double true_peak = 50.37;
  std::vector<double> y(101);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = std::cos(0.05 * (static_cast<double>(i) - true_peak));
  }
  std::size_t coarse = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[coarse]) coarse = i;
  }
  const Peak p = refine_peak(y, coarse);
  EXPECT_NEAR(p.refined_index, true_peak, 0.01);
}

TEST(RefinePeak, PreconditionsEnforced) {
  const std::vector<double> y{1.0};
  EXPECT_THROW((void)refine_peak(std::vector<double>{}, 0), PreconditionError);
  EXPECT_THROW((void)refine_peak(y, 1), PreconditionError);
}

TEST(FindPeaks, FindsAllAboveThreshold) {
  std::vector<double> y(100, 0.0);
  y[10] = 1.0;
  y[50] = 2.0;
  y[90] = 0.4;  // below threshold
  const std::vector<Peak> peaks = find_peaks(y, 0.5, 5);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 10u);
  EXPECT_EQ(peaks[1].index, 50u);
}

TEST(FindPeaks, SpacingEnforcedGreedyByHeight) {
  std::vector<double> y(100, 0.0);
  y[40] = 1.0;
  y[44] = 2.0;  // taller neighbour within spacing
  const std::vector<Peak> peaks = find_peaks(y, 0.5, 10);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 44u);
}

TEST(FindPeaks, ResultsSortedByIndex) {
  std::vector<double> y(200, 0.0);
  y[150] = 3.0;
  y[20] = 1.0;
  y[80] = 2.0;
  const std::vector<Peak> peaks = find_peaks(y, 0.5, 5);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_LT(peaks[0].index, peaks[1].index);
  EXPECT_LT(peaks[1].index, peaks[2].index);
}

TEST(FindPeaks, PlateauCountsOnce) {
  std::vector<double> y(20, 0.0);
  y[5] = 1.0;
  y[6] = 1.0;  // two-sample plateau
  const std::vector<Peak> peaks = find_peaks(y, 0.5, 1);
  EXPECT_EQ(peaks.size(), 1u);
}

}  // namespace
}  // namespace hyperear::dsp
