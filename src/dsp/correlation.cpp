#include "dsp/correlation.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "dsp/ols.hpp"

namespace hyperear::dsp {

namespace {

/// Direct valid-mode correlation. `reversed` flips the template indexing so
/// the same loop serves callers holding h and callers holding reverse(h).
void correlate_valid_direct_into(std::span<const double> x, std::span<const double> h,
                                 bool reversed, std::vector<double>& out) {
  const std::size_t out_len = x.size() - h.size() + 1;
  out.resize(out_len);
  for (std::size_t k = 0; k < out_len; ++k) {
    double s = 0.0;
    for (std::size_t j = 0; j < h.size(); ++j) {
      s += x[k + j] * (reversed ? h[h.size() - 1 - j] : h[j]);
    }
    out[k] = s;
  }
}

/// Direct full-mode convolution of x with a kernel k (length m): sample g
/// sums x[g - j] * k[j] over the j that keep both indices in range, in
/// ascending j. `reversed` reads k[m - 1 - j] instead, so the planless
/// correlate_full (holding h) and the plan-cached one (holding reverse(h))
/// run the same products in the same order.
void convolve_full_direct_into(std::span<const double> x, std::span<const double> k,
                               bool reversed, std::vector<double>& out) {
  const std::size_t n = x.size();
  const std::size_t m = k.size();
  out.resize(n + m - 1);
  for (std::size_t g = 0; g < out.size(); ++g) {
    const std::size_t j_lo = g >= n ? g - (n - 1) : 0;
    const std::size_t j_hi = std::min(g, m - 1);
    double s = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      s += x[g - j] * (reversed ? k[m - 1 - j] : k[j]);
    }
    out[g] = s;
  }
}

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrapper: returns an owning container; the detector uses correlate_valid_direct_into
std::vector<double> correlate_valid_direct(std::span<const double> x,
                                           std::span<const double> h, bool reversed) {
  std::vector<double> out;
  correlate_valid_direct_into(x, h, reversed, out);
  return out;
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

}  // namespace

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrappers: return owning containers; steady-state callers use correlate_valid_into
std::vector<double> correlate_valid(std::span<const double> x, std::span<const double> h) {
  require(!x.empty() && !h.empty(), "correlate_valid: empty input");
  require(h.size() <= x.size(), "correlate_valid: template longer than signal");
  if (x.size() * h.size() <= kDirectProductLimit) {
    std::vector<double> out = correlate_valid_direct(x, h, false);
    HE_ENSURES(out.size() == x.size() - h.size() + 1);
    return out;
  }
  // Overlap-save with the reversed template at the default block size — the
  // same geometry a cached reversed-spectrum convolver uses, so both
  // overloads agree bit for bit.
  std::vector<double> out =
      OlsConvolver(std::vector<double>(h.rbegin(), h.rend())).correlate_valid(x);
  // Valid-mode lag bound: lag k ranges over [0, |x|-|h|]; the OLS window
  // carve-out must hand back exactly that many lags or downstream
  // peak->sample-index arithmetic is silently shifted.
  HE_ENSURES(out.size() == x.size() - h.size() + 1);
  return out;
}

std::vector<double> correlate_valid(std::span<const double> x,
                                    const OlsConvolver& reversed_template,
                                    Workspace* ws) {
  require(!x.empty(), "correlate_valid: empty input");
  require(reversed_template.kernel_size() <= x.size(),
          "correlate_valid: template longer than signal");
  if (x.size() * reversed_template.kernel_size() <= kDirectProductLimit) {
    return correlate_valid_direct(x, reversed_template.kernel(), true);
  }
  return reversed_template.correlate_valid(x, ws);
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

void correlate_valid_direct_into(std::span<const double> x, std::span<const double> h,
                                 std::vector<double>& out) {
  require(!x.empty() && !h.empty(), "correlate_valid: empty input");
  require(h.size() <= x.size(), "correlate_valid: template longer than signal");
  correlate_valid_direct_into(x, h, false, out);
}

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrappers: return owning containers; steady-state callers use normalize_correlation_into
std::vector<double> correlate_normalized(std::span<const double> x,
                                         std::span<const double> h) {
  const std::vector<double> corr = correlate_valid(x, h);
  double h_energy = 0.0;
  for (double v : h) h_energy += v * v;
  require(h_energy > 0.0, "correlate_normalized: zero-energy template");
  return normalize_correlation(corr, x, h.size(), std::sqrt(h_energy));
}

std::vector<double> normalize_correlation(std::span<const double> corr,
                                          std::span<const double> x,
                                          std::size_t h_size, double h_norm) {
  std::vector<double> prefix;
  std::vector<double> out;
  normalize_correlation_into(corr, x, h_size, h_norm, prefix, out);
  return out;
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

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

void normalize_correlation_into(std::span<const double> corr, std::span<const double> x,
                                std::size_t h_size, double h_norm,
                                std::vector<double>& prefix_scratch,
                                std::vector<double>& out) {
  require(h_norm > 0.0, "normalize_correlation: zero-energy template");
  require(h_size >= 1 && h_size <= x.size() &&
              corr.size() == x.size() - h_size + 1,
          "normalize_correlation: correlation/signal length mismatch");
  const WindowNormalizer norm(x, h_size, h_norm, prefix_scratch);
  out.resize(corr.size());
  for (std::size_t k = 0; k < corr.size(); ++k) out[k] = corr[k] / norm.denominator(k);
  HE_ENSURES(out.size() == corr.size());
}

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrappers: return owning containers; no per-chunk caller
std::vector<double> correlate_full(std::span<const double> x, std::span<const double> h) {
  require(!x.empty() && !h.empty(), "correlate_full: empty input");
  if (x.size() * h.size() <= kDirectProductLimit) {
    std::vector<double> out;
    convolve_full_direct_into(x, h, true, out);
    return out;
  }
  return OlsConvolver(std::vector<double>(h.rbegin(), h.rend())).convolve_full(x);
}

std::vector<double> correlate_full(std::span<const double> x,
                                   const OlsConvolver& reversed_template, Workspace* ws) {
  require(!x.empty(), "correlate_full: empty input");
  if (x.size() * reversed_template.kernel_size() <= kDirectProductLimit) {
    std::vector<double> out;
    convolve_full_direct_into(x, reversed_template.kernel(), false, out);
    return out;
  }
  return reversed_template.convolve_full(x, ws);
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

}  // namespace hyperear::dsp
