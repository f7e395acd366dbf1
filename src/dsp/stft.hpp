#pragma once

#include <span>
#include <vector>

#include "dsp/window.hpp"

/// @file stft.hpp
/// Short-time Fourier transform (magnitude spectrogram). Used for
/// diagnostics: visualizing beacon chirps against ambient noise, tracking
/// non-stationary noise bursts (the mall busy-hour condition), and
/// verifying the chirp's frequency trajectory.

namespace hyperear::dsp {

/// STFT framing parameters.
struct StftOptions {
  std::size_t frame = 1024;   ///< samples per frame (padded to pow2 FFT)
  std::size_t hop = 256;      ///< samples between frame starts
  WindowType window = WindowType::kHann;
};

/// Magnitude spectrogram.
struct Spectrogram {
  double sample_rate = 0.0;
  double bin_hz = 0.0;        ///< frequency resolution
  std::size_t hop = 0;
  std::size_t frame = 0;      ///< samples per frame, before FFT padding
  /// magnitude[t][k]: frame t, bin k (k spans 0..nfft/2).
  std::vector<std::vector<double>> magnitude;

  [[nodiscard]] std::size_t frames() const { return magnitude.size(); }
  [[nodiscard]] std::size_t bins() const {
    return magnitude.empty() ? 0 : magnitude.front().size();
  }
  /// Center time of frame t in seconds.
  [[nodiscard]] double time_of(std::size_t t) const;
  /// Frequency of bin k in Hz.
  [[nodiscard]] double freq_of(std::size_t k) const { return bin_hz * static_cast<double>(k); }
};

/// Compute the magnitude spectrogram of a real signal. Requires a signal at
/// least one frame long, hop >= 1 and hop <= frame.
[[nodiscard]] Spectrogram stft(std::span<const double> signal, double sample_rate,
                               const StftOptions& options = {});

/// Per-frame energy inside [low_hz, high_hz] — a band-limited power track.
[[nodiscard]] std::vector<double> band_energy_track(const Spectrogram& spec, double low_hz,
                                                    double high_hz);

/// Index of the strongest bin per frame within [low_hz, high_hz], returned
/// as frequencies — traces a chirp's instantaneous-frequency trajectory.
[[nodiscard]] std::vector<double> peak_frequency_track(const Spectrogram& spec,
                                                       double low_hz, double high_hz);

}  // namespace hyperear::dsp
