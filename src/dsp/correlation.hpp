#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

/// @file correlation.hpp
/// Cross-correlation, the primitive behind chirp detection (paper Section
/// IV-A, following BeepBeep): the recording is correlated against the
/// reference chirp and correlation peaks mark signal arrivals. The
/// matched-filter detector correlates through overlap-save
/// (`OlsConvolver::correlate_pairs_into`, dsp/ols.hpp) or, for short
/// references, through the direct sum below, and normalizes through
/// `WindowNormalizer`.

namespace hyperear::dsp {

/// Direct (time-domain) valid-mode correlation of x against a template h
/// into a caller-owned buffer (resized to the valid length, every element
/// overwritten): out[k] = sum_j x[k + j] * h[j] for k = 0 .. x.size() -
/// h.size(). Requires non-empty inputs and h.size() <= x.size(). The
/// matched-filter detector uses it when one OLS pair's window times the
/// reference does not reach `kDirectProductLimit`; above that it is merely
/// slow.
void correlate_valid_direct_into(std::span<const double> x, std::span<const double> h,
                                 std::vector<double>& out);

/// The sliding denominator of a normalized correlation:
/// sqrt(max(window energy of x, floor)) * ||h|| at every valid lag, read
/// from prefix sums of x^2. Silent stretches would otherwise divide by
/// (numerically) zero and amplify FFT round-off into spurious peaks, so
/// the window energy is floored at 1e-4 of the average window energy
/// (and at 1e-30). The matched-filter detector's fused gate pass divides
/// by it.
///
/// The lags may be cut into segments of `segment_lags` lags (0: one
/// segment): segment q covers lags [q*S, (q+1)*S) and the samples those
/// lags' windows read, its prefix sums restart at its first sample, and
/// its floor is 1e-4 of the mean window energy over its own samples. The
/// matched-filter detector segments by OLS pair, so a lag's energy and
/// floor depend only on the pair it lies in, not on the chunk around it.
class WindowNormalizer {
 public:
  /// Writes the floored energy of every valid lag, followed by one
  /// segment's prefix sums, into `scratch` (resized as needed), which must
  /// outlive the normalizer. Requires 1 <= h_size <= x.size() and
  /// h_norm > 0.
  WindowNormalizer(std::span<const double> x, std::size_t h_size, double h_norm,
                   std::vector<double>& scratch, std::size_t segment_lags = 0);

  /// Floored window energy of x at lag k, for k <= x.size() - h_size.
  [[nodiscard]] double energy(std::size_t k) const { return energy_[k]; }
  /// Denominator at lag k: sqrt(energy(k)) * ||h||.
  [[nodiscard]] double denominator(std::size_t k) const {
    return std::sqrt(energy_[k]) * h_norm_;
  }
  [[nodiscard]] double h_norm() const { return h_norm_; }

 private:
  const double* energy_;
  double h_norm_;
};

}  // namespace hyperear::dsp
