#include "sim/microphone.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hyperear::sim {

void quantize_inplace(std::span<double> samples, const AdcSpec& adc) {
  require(adc.bits >= 2 && adc.bits <= 32, "quantize_inplace: bits out of range");
  require(adc.full_scale > 0.0, "quantize_inplace: full scale must be positive");
  const double levels = std::pow(2.0, adc.bits - 1);  // signed range
  const double step = adc.full_scale / levels;
  for (auto& s : samples) {
    const double clipped = std::clamp(s, -adc.full_scale, adc.full_scale - step);
    s = std::round(clipped / step) * step;
  }
}

void add_self_noise_inplace(std::span<double> samples, const AdcSpec& adc, Rng& rng) {
  if (adc.self_noise_rms <= 0.0) return;
  for (auto& s : samples) s += rng.gaussian(0.0, adc.self_noise_rms);
}

double effective_sample_rate(const AdcSpec& adc) {
  return adc.sample_rate * (1.0 + adc.clock_offset_ppm * 1e-6);
}

std::size_t sample_count(const AdcSpec& adc, double duration) {
  require(duration >= 0.0, "sample_count: negative duration");
  return static_cast<std::size_t>(std::floor(duration * effective_sample_rate(adc)));
}

}  // namespace hyperear::sim
