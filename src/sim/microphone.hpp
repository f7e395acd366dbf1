#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/phone.hpp"

/// @file microphone.hpp
/// ADC front-end model: 16-bit quantization at 44.1 kHz with electronic
/// self-noise and the phone audio clock's ppm skew. These are exactly the
/// hardware limits Section II-C identifies (limited sampling rate, and the
/// unsynchronized clocks that make SFO correction necessary).

namespace hyperear::sim {

/// Quantize a continuous-amplitude sample stream to the ADC's resolution,
/// clipping at full scale. Operates in place.
void quantize_inplace(std::span<double> samples, const AdcSpec& adc);

/// Add iid Gaussian self-noise to a stream (in place).
void add_self_noise_inplace(std::span<double> samples, const AdcSpec& adc, Rng& rng);

/// Effective (true) sample rate of the skewed clock, fs * (1 + ppm*1e-6):
/// sample n is taken at wall-clock time n / effective_sample_rate. The
/// renderer evaluates the acoustic field at these skewed instants so the
/// recording embeds the phone-vs-speaker sampling frequency offset.
[[nodiscard]] double effective_sample_rate(const AdcSpec& adc);

/// Number of samples the ADC produces in `duration` wall-clock seconds.
[[nodiscard]] std::size_t sample_count(const AdcSpec& adc, double duration);

}  // namespace hyperear::sim
