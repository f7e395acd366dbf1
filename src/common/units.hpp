#pragma once

/// @file units.hpp
/// Physical constants and unit conventions used across HyperEar.
///
/// All quantities are SI unless a suffix says otherwise: seconds, meters,
/// m/s, m/s^2, radians. Sample rates are in Hz. Parts-per-million clock
/// offsets are dimensionless fractions (20 ppm == 20e-6).

namespace hyperear {

/// Speed of sound in air used throughout the paper (Section II-C).
inline constexpr double kSpeedOfSound = 343.0;

/// Audio sampling rate the Android OS exposes on the evaluated phones.
inline constexpr double kAudioSampleRate = 44100.0;

/// Inertial (accelerometer + gyroscope) sampling rate (Section V-A).
inline constexpr double kImuSampleRate = 100.0;

/// Standard gravity, used by the IMU model and gravity removal.
inline constexpr double kGravity = 9.80665;

/// Mic separation of the Samsung Galaxy S4 (Section VII-A).
inline constexpr double kGalaxyS4MicSeparation = 0.1366;

/// Mic separation of the Samsung Galaxy Note3 (Section VII-A).
inline constexpr double kGalaxyNote3MicSeparation = 0.1512;

inline constexpr double kPi = 3.14159265358979323846;

/// Convert degrees to radians.
[[nodiscard]] constexpr double deg2rad(double deg) noexcept { return deg * kPi / 180.0; }

/// Convert radians to degrees.
[[nodiscard]] constexpr double rad2deg(double rad) noexcept { return rad * 180.0 / kPi; }

/// Convert a decibel ratio to a linear power ratio.
[[nodiscard]] constexpr double db_to_power(double db) noexcept;

}  // namespace hyperear

#include <cmath>

namespace hyperear {

constexpr double db_to_power(double db) noexcept {
  // constexpr-friendly 10^(db/10) via exp; std::pow is not constexpr pre-C++26,
  // so fall back to a non-constexpr path at runtime only.
  return __builtin_pow(10.0, db / 10.0);
}

}  // namespace hyperear
