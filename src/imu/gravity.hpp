#pragma once

#include <vector>

#include "imu/imu_model.hpp"

/// @file gravity.hpp
/// Gravity estimation and removal (paper Section V-A1: "We first use
/// gravimeter to cancel the gravity to get linear acceleration data").
///
/// Android's virtual gravity sensor is gyro-aided and does not leak linear
/// acceleration the way a plain low-pass does. We provide two estimators:
///
///  - kStaticHead (default): per-axis median over the static calibration
///    head of the session — faithful to a fused gravity sensor for the
///    HyperEar protocol, where the phone is held level throughout;
///  - kLowpass: zero-phase Butterworth low-pass, the classic approach; its
///    leakage of slide acceleration into the dwell intervals is exactly why
///    the fused estimate is preferable (kept for comparison/ablation).

namespace hyperear::imu {

/// Body-frame linear acceleration after gravity removal, plus the gravity
/// estimate itself (useful for tilt diagnostics).
struct LinearAcceleration {
  double sample_rate = 100.0;
  std::vector<double> x, y, z;           ///< gravity-free specific force
  std::vector<double> gravity_x, gravity_y, gravity_z;  ///< gravity estimate
};

/// Estimator selection.
enum class GravityMode {
  kStaticHead,
  kLowpass,
};

/// Options for the gravity estimator.
struct GravityOptions {
  GravityMode mode = GravityMode::kStaticHead;
  double head_duration_s = 2.0;  ///< static-head window (kStaticHead)
  double cutoff_hz = 0.3;        ///< low-pass cutoff (kLowpass)
  int order = 2;                 ///< Butterworth order, even (kLowpass)
};

/// Estimate gravity and subtract it. Requires at least 8 samples.
[[nodiscard]] LinearAcceleration remove_gravity(const ImuData& data,
                                                const GravityOptions& options = {});

}  // namespace hyperear::imu
