#pragma once

#include <span>
#include <vector>

/// @file spectrum.hpp
/// Power spectra and band-power utilities, used to calibrate the noise
/// synthesis to target SNR levels (paper Section VII-E studies SNRs of
/// >15, 9, 6 and 3 dB measured in the chirp band).

namespace hyperear::dsp {

/// One-sided periodogram of a real signal (Hann-windowed). Returns power
/// per bin; bin k corresponds to frequency k * fs / nfft with
/// nfft = next_pow2(x.size()).
struct Periodogram {
  std::vector<double> power;  ///< size nfft/2 + 1
  double bin_hz = 0.0;        ///< frequency step between bins
};
[[nodiscard]] Periodogram periodogram(std::span<const double> x, double sample_rate);

/// Mean power (average of squared samples) of the signal.
[[nodiscard]] double signal_power(std::span<const double> x);

/// Power of the signal restricted to [low_hz, high_hz], computed via the
/// periodogram. Requires 0 <= low < high <= fs/2.
[[nodiscard]] double band_power(std::span<const double> x, double sample_rate, double low_hz,
                                double high_hz);

}  // namespace hyperear::dsp
