#include "dsp/correlation.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace hyperear::dsp {

void correlate_valid_direct_into(std::span<const double> x, std::span<const double> h,
                                 std::vector<double>& out) {
  require(!x.empty() && !h.empty(), "correlate_valid_direct_into: empty input");
  require(h.size() <= x.size(),
          "correlate_valid_direct_into: template longer than signal");
  const std::size_t out_len = x.size() - h.size() + 1;
  out.resize(out_len);
  for (std::size_t k = 0; k < out_len; ++k) {
    double s = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) s += x[k + j] * h[j];
    out[k] = s;
  }
}

WindowNormalizer::WindowNormalizer(std::span<const double> x, std::size_t h_size,
                                   double h_norm, std::vector<double>& scratch,
                                   std::size_t segment_lags)
    : h_norm_(h_norm) {
  HE_EXPECTS(h_norm > 0.0 && std::isfinite(h_norm));
  HE_EXPECTS(h_size >= 1 && h_size <= x.size());
  const std::size_t lags = x.size() - h_size + 1;
  const std::size_t segment =
      segment_lags == 0 ? lags : std::min(segment_lags, lags);
  // NOLINTNEXTLINE(hyperear-hotpath) -- caller-owned scratch that keeps its capacity (DetectorWorkspace::prefix on the detector path)
  scratch.resize(lags + segment + h_size);
  double* energy = scratch.data();
  double* prefix = energy + lags;
  for (std::size_t first = 0; first < lags; first += segment) {
    const std::size_t seg_lags = std::min(segment, lags - first);
    const std::size_t seg_samples = seg_lags + h_size - 1;
    const double* xs = x.data() + first;
    prefix[0] = 0.0;
    for (std::size_t i = 0; i < seg_samples; ++i) {
      prefix[i + 1] = prefix[i] + xs[i] * xs[i];
    }
    const double mean_window_energy = prefix[seg_samples] * static_cast<double>(h_size) /
                                      static_cast<double>(seg_samples);
    const double floor = std::max(1e-4 * mean_window_energy, 1e-30);
    for (std::size_t k = 0; k < seg_lags; ++k) {
      energy[first + k] = std::max(prefix[k + h_size] - prefix[k], floor);
    }
  }
  energy_ = energy;
}

}  // namespace hyperear::dsp
