#pragma once

#include <string>

#include "imu/imu_model.hpp"

/// @file csv.hpp
/// IMU record import/export as CSV — the companion to wav.hpp for moving
/// whole sessions in and out of the simulator. Format: a header line
/// `t,ax,ay,az,gx,gy,gz` followed by one row per sample; `t` is seconds
/// (used only to recover the sample rate).

namespace hyperear::io {

/// Write an IMU record. Throws hyperear::Error on I/O failure.
void write_imu_csv(const std::string& path, const imu::ImuData& data);

/// Read an IMU record written by write_imu_csv (or hand-authored in the
/// same layout). The sample rate is recovered from the first two
/// timestamps. Throws hyperear::Error naming the row unless every row has
/// exactly seven cells, each one finite number with nothing after it, and
/// a timestamp one step after the previous row's: every step must lie
/// within 1 % of the first (a record decimated or with dropped rows part
/// way through would otherwise load at the wrong rate).
[[nodiscard]] imu::ImuData read_imu_csv(const std::string& path);

}  // namespace hyperear::io
