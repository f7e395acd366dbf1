#include "dsp/stft.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dsp/fft.hpp"

namespace hyperear::dsp {

double Spectrogram::time_of(std::size_t t) const {
  require(sample_rate > 0.0, "Spectrogram::time_of: empty spectrogram");
  // Frame t starts at t*hop; its center is half a frame later. The frame
  // length is recorded, not recovered from the bin count: a non-power-of-two
  // frame is zero-padded, so 2*(bins-1) is the FFT length, not the frame's.
  return (static_cast<double>(t * hop) + static_cast<double>(frame) / 2.0) / sample_rate;
}

Spectrogram stft(std::span<const double> signal, double sample_rate,
                 const StftOptions& options) {
  require(sample_rate > 0.0, "stft: bad sample rate");
  require(options.hop >= 1 && options.hop <= options.frame, "stft: bad hop");
  require(signal.size() >= options.frame, "stft: signal shorter than one frame");

  const std::size_t nfft = next_pow2(options.frame);
  const std::vector<double> window = make_window(options.window, options.frame);

  Spectrogram out;
  out.sample_rate = sample_rate;
  out.bin_hz = sample_rate / static_cast<double>(nfft);
  out.hop = options.hop;
  out.frame = options.frame;
  const FftPlan plan(nfft);  // one plan for every frame
  std::vector<Complex> spec;
  for (std::size_t start = 0; start + options.frame <= signal.size();
       start += options.hop) {
    std::vector<double> frame(signal.begin() + static_cast<std::ptrdiff_t>(start),
                              signal.begin() + static_cast<std::ptrdiff_t>(start) +
                                  static_cast<std::ptrdiff_t>(options.frame));
    apply_window(frame, window);
    fft_real_into(frame, nfft, spec, &plan);
    std::vector<double> mags(nfft / 2 + 1);
    for (std::size_t k = 0; k < mags.size(); ++k) mags[k] = std::abs(spec[k]);
    out.magnitude.push_back(std::move(mags));
  }
  return out;
}

std::vector<double> band_energy_track(const Spectrogram& spec, double low_hz,
                                      double high_hz) {
  require(low_hz < high_hz, "band_energy_track: bad band");
  std::vector<double> out(spec.frames(), 0.0);
  for (std::size_t t = 0; t < spec.frames(); ++t) {
    double e = 0.0;
    for (std::size_t k = 0; k < spec.bins(); ++k) {
      const double f = spec.freq_of(k);
      if (f >= low_hz && f <= high_hz) e += spec.magnitude[t][k] * spec.magnitude[t][k];
    }
    out[t] = e;
  }
  return out;
}

std::vector<double> peak_frequency_track(const Spectrogram& spec, double low_hz,
                                         double high_hz) {
  require(low_hz < high_hz, "peak_frequency_track: bad band");
  std::vector<double> out(spec.frames(), 0.0);
  for (std::size_t t = 0; t < spec.frames(); ++t) {
    double best = -1.0;
    double best_f = low_hz;
    for (std::size_t k = 0; k < spec.bins(); ++k) {
      const double f = spec.freq_of(k);
      if (f < low_hz || f > high_hz) continue;
      if (spec.magnitude[t][k] > best) {
        best = spec.magnitude[t][k];
        best_f = f;
      }
    }
    out[t] = best_f;
  }
  return out;
}

}  // namespace hyperear::dsp
