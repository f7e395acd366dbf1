#include "dsp/biquad.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

namespace {
void check_freq(double f, double fs) {
  require(fs > 0.0 && f > 0.0 && f < fs / 2.0, "biquad: frequency must be in (0, fs/2)");
}
}  // namespace

Biquad Biquad::lowpass(double cutoff_hz, double sample_rate, double q) {
  check_freq(cutoff_hz, sample_rate);
  require(q > 0.0, "biquad: q must be positive");
  const double w0 = 2.0 * kPi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 - cw) / 2.0 / a0, (1.0 - cw) / a0, (1.0 - cw) / 2.0 / a0, -2.0 * cw / a0,
          (1.0 - alpha) / a0};
}

Biquad Biquad::highpass(double cutoff_hz, double sample_rate, double q) {
  check_freq(cutoff_hz, sample_rate);
  require(q > 0.0, "biquad: q must be positive");
  const double w0 = 2.0 * kPi * cutoff_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {(1.0 + cw) / 2.0 / a0, -(1.0 + cw) / a0, (1.0 + cw) / 2.0 / a0, -2.0 * cw / a0,
          (1.0 - alpha) / a0};
}

Biquad Biquad::bandpass(double center_hz, double sample_rate, double q) {
  check_freq(center_hz, sample_rate);
  require(q > 0.0, "biquad: q must be positive");
  const double w0 = 2.0 * kPi * center_hz / sample_rate;
  const double alpha = std::sin(w0) / (2.0 * q);
  const double cw = std::cos(w0);
  const double a0 = 1.0 + alpha;
  return {alpha / a0, 0.0, -alpha / a0, -2.0 * cw / a0, (1.0 - alpha) / a0};
}

double Biquad::process(double x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return y;
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

std::vector<double> Biquad::filter(std::span<const double> signal) {
  reset();
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = process(signal[i]);
  return out;
}

ButterworthCascade::ButterworthCascade(Kind kind, int order, double cutoff_hz,
                                       double sample_rate) {
  require(order >= 2 && order % 2 == 0, "ButterworthCascade: order must be even and >= 2");
  const int pairs = order / 2;
  sections_.reserve(static_cast<std::size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    // Butterworth pole quality factors.
    const double theta = kPi * (2.0 * k + 1.0) / (2.0 * order);
    const double q = 1.0 / (2.0 * std::sin(theta));
    sections_.push_back(kind == Kind::kLowpass ? Biquad::lowpass(cutoff_hz, sample_rate, q)
                                               : Biquad::highpass(cutoff_hz, sample_rate, q));
  }
}

std::vector<double> ButterworthCascade::filter(std::span<const double> signal) {
  std::vector<double> out(signal.begin(), signal.end());
  for (auto& sec : sections_) out = sec.filter(out);
  return out;
}

std::vector<double> ButterworthCascade::filtfilt(std::span<const double> signal) {
  std::vector<double> fwd = filter(signal);
  std::reverse(fwd.begin(), fwd.end());
  std::vector<double> bwd = filter(fwd);
  std::reverse(bwd.begin(), bwd.end());
  return bwd;
}

}  // namespace hyperear::dsp
