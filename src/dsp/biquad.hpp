#pragma once

#include <span>
#include <vector>

/// @file biquad.hpp
/// Second-order IIR sections (RBJ cookbook forms) and Butterworth cascades.
/// Used where a short-group-delay recursive filter is preferable to a long
/// FIR (e.g. gravity tracking in the IMU path).

namespace hyperear::dsp {

/// One direct-form-I biquad section with normalized a0 == 1.
class Biquad {
 public:
  /// Coefficients b0,b1,b2 (feed-forward) and a1,a2 (feedback).
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// RBJ low-pass with quality factor q. Requires 0 < cutoff < fs/2.
  [[nodiscard]] static Biquad lowpass(double cutoff_hz, double sample_rate, double q);
  /// RBJ high-pass with quality factor q.
  [[nodiscard]] static Biquad highpass(double cutoff_hz, double sample_rate, double q);
  /// RBJ band-pass (constant 0 dB peak gain) centered at `center_hz`.
  [[nodiscard]] static Biquad bandpass(double center_hz, double sample_rate, double q);

  /// Process one sample, updating internal state.
  [[nodiscard]] double process(double x);

  /// Reset internal state to zero.
  void reset();

  /// Filter a whole signal (stateful, starts from reset state).
  [[nodiscard]] std::vector<double> filter(std::span<const double> signal);

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0.0, x2_ = 0.0, y1_ = 0.0, y2_ = 0.0;
};

/// Cascade of biquads forming a Butterworth filter of even order.
class ButterworthCascade {
 public:
  enum class Kind { kLowpass, kHighpass };

  /// Build an `order`-pole Butterworth (order must be even and >= 2).
  ButterworthCascade(Kind kind, int order, double cutoff_hz, double sample_rate);

  /// Filter a signal through all sections in sequence.
  [[nodiscard]] std::vector<double> filter(std::span<const double> signal);

  /// Zero-phase (forward-backward) filtering; doubles the attenuation and
  /// cancels group delay. Used for offline gravity estimation.
  [[nodiscard]] std::vector<double> filtfilt(std::span<const double> signal);

 private:
  std::vector<Biquad> sections_;
};

}  // namespace hyperear::dsp
