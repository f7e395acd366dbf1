#include "dsp/fir.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/ols.hpp"

namespace hyperear::dsp {

namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

void check_design_args(double cutoff_hz, double sample_rate, std::size_t taps) {
  require(sample_rate > 0.0, "fir design: sample rate must be positive");
  require(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
          "fir design: cutoff must be in (0, fs/2)");
  require(taps >= 3 && taps % 2 == 1, "fir design: taps must be odd and >= 3");
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate, std::size_t taps,
                                   WindowType window) {
  check_design_args(cutoff_hz, sample_rate, taps);
  const double fc = cutoff_hz / sample_rate;  // normalized [0, 0.5)
  const auto mid = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> h(taps);
  const std::vector<double> w = make_window(window, taps);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double n = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * n) * w[i];
    sum += h[i];
  }
  // Normalize to exact unity DC gain.
  for (auto& v : h) v /= sum;
  return h;
}

std::vector<double> design_bandpass(double low_hz, double high_hz, double sample_rate,
                                    std::size_t taps, WindowType window) {
  require(low_hz < high_hz, "design_bandpass: low_hz must be < high_hz");
  // Band-pass = difference of two low-passes.
  const std::vector<double> lp_high = design_lowpass(high_hz, sample_rate, taps, window);
  const std::vector<double> lp_low = design_lowpass(low_hz, sample_rate, taps, window);
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) h[i] = lp_high[i] - lp_low[i];
  return h;
}

namespace {

/// Direct-evaluation "same" filtering for small signal x taps products,
/// staging the full convolution through `full_scratch` (a workspace slot or
/// a local vector) so the into-spelling stays allocation-free.
void filter_same_direct_into(std::span<const double> signal,
                             std::span<const double> taps,
                             std::vector<double>& full_scratch,
                             std::vector<double>& out) {
  const std::size_t half = taps.size() / 2;
  full_scratch.assign(signal.size() + taps.size() - 1, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    for (std::size_t j = 0; j < taps.size(); ++j) {
      full_scratch[i + j] += signal[i] * taps[j];
    }
  }
  out.resize(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = full_scratch[i + half];
}

std::vector<double> filter_same_direct(std::span<const double> signal,
                                       std::span<const double> taps) {
  std::vector<double> full;
  std::vector<double> out;
  filter_same_direct_into(signal, taps, full, out);
  return out;
}

void check_filter_args(std::span<const double> signal, std::size_t taps) {
  require(!signal.empty(), "filter_same: empty signal");
  require(taps != 0 && taps % 2 == 1, "filter_same: taps must be odd-sized");
}

}  // namespace

std::vector<double> filter_same(std::span<const double> signal, std::span<const double> taps) {
  check_filter_args(signal, taps.size());
  if (signal.size() * taps.size() <= kDirectProductLimit) {
    return filter_same_direct(signal, taps);
  }
  // Overlap-save at the default block size for this kernel — the same
  // geometry a cached convolver for these taps would use, so the planless
  // and plan-cached overloads agree bit for bit.
  return OlsConvolver(std::vector<double>(taps.begin(), taps.end())).filter_same(signal);
}

std::vector<double> filter_same(std::span<const double> signal, const OlsConvolver& kernel,
                                Workspace* ws) {
  check_filter_args(signal, kernel.kernel_size());
  if (signal.size() * kernel.kernel_size() <= kDirectProductLimit) {
    return filter_same_direct(signal, kernel.kernel());
  }
  return kernel.filter_same(signal, ws);
}

void filter_same_into(std::span<const double> signal, const OlsConvolver& kernel,
                      std::vector<double>& out, Workspace& ws) {
  check_filter_args(signal, kernel.kernel_size());
  if (signal.size() * kernel.kernel_size() <= kDirectProductLimit) {
    filter_same_direct_into(signal, kernel.kernel(),
                            ws.real_scratch(0, signal.size() + kernel.kernel_size() - 1),
                            out);
    return;
  }
  out.resize(signal.size());
  kernel.convolve_into(signal, kernel.kernel_size() / 2, signal.size(), out.data(), ws);
}

double fir_magnitude_at(std::span<const double> taps, double freq_hz, double sample_rate) {
  require(sample_rate > 0.0, "fir_magnitude_at: sample rate must be positive");
  const double omega = 2.0 * kPi * freq_hz / sample_rate;
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    re += taps[i] * std::cos(omega * static_cast<double>(i));
    im -= taps[i] * std::sin(omega * static_cast<double>(i));
  }
  return std::sqrt(re * re + im * im);
}

}  // namespace hyperear::dsp
