#pragma once

#include <vector>

#include "common/rng.hpp"

/// @file noise.hpp
/// Ambient noise synthesis for the two evaluation environments (paper
/// Section VII-E). The distinguishing property the experiment depends on is
/// *spectral overlap with the chirp band*:
///
///   - meeting-room chatter is human voice, mostly below 2 kHz, which the
///     matched filter of ASP rejects almost entirely;
///   - shopping-mall music and announcements are broadband and overlap the
///     2-6.4 kHz chirp band;
///   - busy-hour mall noise is additionally non-stationary (bursts), so the
///     instantaneous SNR dips well below its average.

namespace hyperear::sim {

/// Noise families.
enum class NoiseType {
  kWhite,       ///< flat floor (lab silence + electronics)
  kVoice,       ///< low-passed chatter with syllabic amplitude modulation
  kMallMusic,   ///< broadband music/announcements overlapping the chirp band
  kMallBusy,    ///< mall music plus strong non-stationary crowd bursts
};

/// Generate `n` samples of the given noise type at sample rate `fs`,
/// approximately unit RMS before calibration.
[[nodiscard]] std::vector<double> make_noise(NoiseType type, std::size_t n, double fs,
                                             Rng& rng);

/// Scale the noise (in place) so its power inside [low_hz, high_hz] equals
/// `target_band_power`. Returns the applied scale factor. Requires the noise
/// to have nonzero power in the band.
double calibrate_band_power(std::vector<double>& noise, double fs, double low_hz,
                            double high_hz, double target_band_power);

}  // namespace hyperear::sim
