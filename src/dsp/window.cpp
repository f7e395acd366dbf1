#include "dsp/window.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {

std::vector<double> make_window(WindowType type, std::size_t n) {
  require(n >= 1, "make_window: need at least one sample");
  std::vector<double> w(n, 1.0);
  if (n == 1) return w;
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / denom;
    switch (type) {
      case WindowType::kRectangular:
        w[i] = 1.0;
        break;
      case WindowType::kHann:
        w[i] = 0.5 - 0.5 * std::cos(2.0 * kPi * t);
        break;
      case WindowType::kHamming:
        w[i] = 0.54 - 0.46 * std::cos(2.0 * kPi * t);
        break;
      case WindowType::kBlackman:
        w[i] = 0.42 - 0.5 * std::cos(2.0 * kPi * t) + 0.08 * std::cos(4.0 * kPi * t);
        break;
    }
  }
  return w;
}

void apply_window(std::span<double> signal, std::span<const double> window) {
  require(signal.size() == window.size(), "apply_window: length mismatch");
  for (std::size_t i = 0; i < signal.size(); ++i) signal[i] *= window[i];
}

}  // namespace hyperear::dsp
