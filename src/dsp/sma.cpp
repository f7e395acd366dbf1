#include "dsp/sma.hpp"

#include "common/error.hpp"

namespace hyperear::dsp {

std::vector<double> moving_average(std::span<const double> x, std::size_t n) {
  require(n >= 1, "moving_average: n must be >= 1");
  std::vector<double> out(x.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc += x[i];
    if (i >= n) acc -= x[i - n];
    const std::size_t count = i + 1 < n ? i + 1 : n;
    out[i] = acc / static_cast<double>(count);
  }
  return out;
}

}  // namespace hyperear::dsp
