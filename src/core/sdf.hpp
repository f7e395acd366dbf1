#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/asp.hpp"
#include "imu/preprocess.hpp"

/// @file sdf.hpp
/// Speaker Direction Finding (paper Section IV). While the user rolls the
/// phone around its z-axis, the inter-microphone TDoA traces
/// -D*cos(alpha)/S (Fig. 7). The speaker direction is found where the TDoA
/// crosses zero: a rising crossing corresponds to alpha = 90 degrees (the
/// speaker on the phone's +x side), a falling crossing to alpha = 270.
/// The yaw at the crossing is read off the integrated gyroscope.

namespace hyperear::core {

/// One paired inter-mic TDoA sample during the sweep.
struct TdoaSample {
  double time_s = 0.0;
  double tdoa_s = 0.0;  ///< t_mic1 - t_mic2
};

/// SDF configuration.
struct SdfOptions {
  /// Max |t1 - t2| for pairing events across mics: the physical bound D/S
  /// plus interpolation slack. Set from the phone's mic separation.
  double max_pairing_offset_s = 0.7e-3;
  /// Require the crossing's neighbours to have opposite TDoA signs of at
  /// least this magnitude (seconds) to reject noise wiggles near zero.
  double min_swing_s = 0.05e-3;
};

/// Result of a direction-finding sweep.
struct SdfResult {
  bool found = false;
  double crossing_time_s = 0.0;  ///< when the TDoA crossed zero
  double yaw_rad = 0.0;          ///< integrated gyro yaw at the crossing
  bool speaker_on_positive_x = true;  ///< rising crossing (alpha = 90)
  std::vector<TdoaSample> samples;    ///< the full trace (Fig. 7 material)
};

/// Pair per-mic chirp events into inter-mic TDoA samples. Events without a
/// partner within `max_offset` are dropped.
[[nodiscard]] std::vector<TdoaSample> pair_inter_mic_tdoas(const AspResult& asp,
                                                           double max_offset_s);

/// The pairing rule of `pair_inter_mic_tdoas` over ascending arrival
/// times: each mic1 arrival takes the nearest mic2 arrival, scanning
/// forward from the previous arrival's partner, and a pair more than
/// `max_offset_s` apart is dropped. Writes the trace to `out` (cleared
/// first) and returns its settled prefix: the samples that no arrival
/// appended to either series can change. A pairing is settled when its
/// scan stopped on a comparison rather than by running out of mic2
/// arrivals, and only while every earlier one is.
std::size_t pair_arrival_times(std::span<const double> mic1,
                               std::span<const double> mic2, double max_offset_s,
                               std::vector<TdoaSample>& out);

/// A zero crossing of a TDoA trace.
struct ZeroCrossing {
  std::size_t index = 0;  ///< trace index of the first sample after it
  double time_s = 0.0;    ///< linearly interpolated crossing time
  double swing_s = 0.0;   ///< TDoA change around it; > 0 for a rising crossing
};

/// The first zero crossing between samples i - 1 and i, for i in
/// [begin, end) (begin >= 1): a sign change, or a touch of zero, whose
/// swing over samples i - 4 .. i + 3 (clipped to the trace) reaches
/// `min_swing_s`. A genuine crossing has small values right at the zero,
/// so the noise gate reads that neighbourhood rather than the adjacent
/// pair. find_direction takes the first of a whole trace; a live session
/// scans its settled prefix less the 3 samples the gate reads ahead.
[[nodiscard]] std::optional<ZeroCrossing> find_zero_crossing(
    std::span<const TdoaSample> trace, std::size_t begin, std::size_t end,
    double min_swing_s);

/// Integrated gyro-z yaw relative to the start of the record, evaluated at
/// time t (linear interpolation between IMU samples).
[[nodiscard]] double integrated_yaw_at(const imu::MotionSignals& motion, double t);

/// Find the speaker direction from a rotation-sweep recording. The returned
/// yaw is relative to the phone's yaw at the start of the sweep.
[[nodiscard]] SdfResult find_direction(const AspResult& asp,
                                       const imu::MotionSignals& motion,
                                       const SdfOptions& options = {});

}  // namespace hyperear::core
