#include "dsp/spectrum.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dsp/fft.hpp"
#include "dsp/window.hpp"

namespace hyperear::dsp {

namespace {

/// Bit reversal of `k` over log2(n) bits: the index at which
/// `FftPlan::forward_to_bitrev` leaves DFT bin k.
std::size_t bit_reverse(std::size_t k, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) r = (r << 1) | ((k & bit) != 0 ? 1 : 0);
  return r;
}

}  // namespace

Periodogram periodogram(std::span<const double> x, double sample_rate) {
  require(!x.empty(), "periodogram: empty input");
  require(sample_rate > 0.0, "periodogram: bad sample rate");
  const std::size_t nfft = next_pow2(x.size());
  std::vector<double> re(nfft, 0.0);
  std::vector<double> im(nfft, 0.0);
  const std::vector<double> w = make_window(WindowType::kHann, x.size());
  double wsum2 = 0.0;
  for (double v : w) wsum2 += v * v;
  std::copy(x.begin(), x.end(), re.begin());
  apply_window(std::span<double>(re).first(x.size()), w);
  FftPlan(nfft).forward_to_bitrev(re, im);
  Periodogram out;
  out.bin_hz = sample_rate / static_cast<double>(nfft);
  out.power.resize(nfft / 2 + 1);
  for (std::size_t k = 0; k < out.power.size(); ++k) {
    const std::size_t at = bit_reverse(k, nfft);
    const double mag2 = re[at] * re[at] + im[at] * im[at];
    // Scale so that summing bins over a band approximates the band power of
    // the unwindowed signal.
    double p = mag2 / (wsum2 * static_cast<double>(nfft));
    if (k != 0 && k != nfft / 2) p *= 2.0;  // fold negative frequencies
    out.power[k] = p;
  }
  return out;
}

double signal_power(std::span<const double> x) {
  require(!x.empty(), "signal_power: empty input");
  double s = 0.0;
  for (double v : x) s += v * v;
  return s / static_cast<double>(x.size());
}

double band_power(std::span<const double> x, double sample_rate, double low_hz,
                  double high_hz) {
  require(low_hz >= 0.0 && low_hz < high_hz && high_hz <= sample_rate / 2.0,
          "band_power: invalid band");
  const Periodogram pg = periodogram(x, sample_rate);
  // Bins are normalized so that the one-sided sum over all bins equals the
  // mean power of the signal; a band sum is therefore the band power.
  double total = 0.0;
  for (std::size_t k = 0; k < pg.power.size(); ++k) {
    const double f = static_cast<double>(k) * pg.bin_hz;
    if (f >= low_hz && f <= high_hz) total += pg.power[k];
  }
  return total;
}

}  // namespace hyperear::dsp
