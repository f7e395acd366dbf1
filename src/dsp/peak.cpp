#include "dsp/peak.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace hyperear::dsp {

ParabolicFit parabolic_fit(double ym, double y0, double yp) {
  const double denom = ym - 2.0 * y0 + yp;
  if (std::abs(denom) < 1e-30) return {0.0, y0};
  const double offset = std::clamp(0.5 * (ym - yp) / denom, -0.5, 0.5);
  return {offset, y0 - 0.25 * (ym - yp) * offset};
}

Peak refine_peak(std::span<const double> y, std::size_t i) {
  require(!y.empty(), "refine_peak: empty input");
  require(i < y.size(), "refine_peak: index out of range");
  Peak p;
  p.index = i;
  p.refined_index = static_cast<double>(i);
  p.value = y[i];
  if (i == 0 || i + 1 >= y.size()) return p;
  const ParabolicFit fit = parabolic_fit(y[i - 1], y[i], y[i + 1]);
  p.refined_index = static_cast<double>(i) + fit.offset;
  p.value = fit.value;
  // Parabolic refinement may move the peak at most half a sample — the lag
  // bound every TDoA consumer converts back to sample indices with.
  HE_ENSURES(p.refined_index >= static_cast<double>(i) - 0.5 &&
             p.refined_index <= static_cast<double>(i) + 0.5);
  return p;
}

std::vector<Peak> find_peaks(std::span<const double> y, double threshold,
                             std::size_t min_spacing) {
  require(!y.empty(), "find_peaks: empty input");
  // Collect all local maxima above threshold.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const bool left_ok = i == 0 || y[i] >= y[i - 1];
    const bool right_ok = i + 1 == y.size() || y[i] > y[i + 1];
    if (left_ok && right_ok && y[i] >= threshold) candidates.push_back(i);
  }
  // Greedy selection by height with spacing enforcement.
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) { return y[a] > y[b]; });
  std::vector<std::size_t> accepted;
  for (std::size_t c : candidates) {
    bool ok = true;
    for (std::size_t a : accepted) {
      const std::size_t gap = c > a ? c - a : a - c;
      if (gap < min_spacing) {
        ok = false;
        break;
      }
    }
    if (ok) accepted.push_back(c);
  }
  std::sort(accepted.begin(), accepted.end());
  std::vector<Peak> out;
  out.reserve(accepted.size());
  for (std::size_t i : accepted) out.push_back(refine_peak(y, i));
  return out;
}

}  // namespace hyperear::dsp
