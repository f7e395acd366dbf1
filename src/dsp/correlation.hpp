#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

/// @file correlation.hpp
/// Cross-correlation, the primitive behind chirp detection (paper Section
/// IV-A, following BeepBeep): the recording is correlated against the
/// reference chirp and correlation peaks mark signal arrivals.

namespace hyperear::dsp {

class OlsConvolver;
class Workspace;

/// Full cross-correlation of x against a shorter template h:
/// out[k] = sum_j x[k + j] * h[j] for k = 0 .. x.size() - h.size().
/// This is "valid"-mode correlation; out.size() == x.size() - h.size() + 1.
/// Requires h.size() <= x.size() and non-empty inputs. Large products
/// stream through block overlap-save convolution with the reversed
/// template (dsp/ols.hpp); small ones are evaluated directly.
[[nodiscard]] std::vector<double> correlate_valid(std::span<const double> x,
                                                  std::span<const double> h);

/// `correlate_valid` against a precomputed template spectrum: the convolver
/// must have been built with the time-REVERSED template (correlation is
/// convolution with the reversal) — exactly the reversed-spectrum cache
/// core::PipelineContext keeps for the matched filter. Small products take
/// the same direct path as the planless overload, so for any given input
/// both spellings produce identical bits.
[[nodiscard]] std::vector<double> correlate_valid(std::span<const double> x,
                                                  const OlsConvolver& reversed_template,
                                                  Workspace* ws = nullptr);

/// The direct (time-domain) valid-mode correlation into a caller-owned
/// buffer (resized to the valid length, every element overwritten): the
/// path both `correlate_valid` overloads take for products up to
/// `kDirectProductLimit`, in the same term order, so the result is
/// bit-identical to theirs there. Above the limit it is merely slow. The
/// matched-filter detector uses it when one OLS pair's window does not
/// reach the limit.
void correlate_valid_direct_into(std::span<const double> x, std::span<const double> h,
                                 std::vector<double>& out);

/// Sliding normalized cross-correlation: correlate_valid divided by the
/// local L2 norm of x over the template window times ||h||. Values in
/// [-1, 1]; robust to amplitude variation across the recording.
[[nodiscard]] std::vector<double> correlate_normalized(std::span<const double> x,
                                                       std::span<const double> h);

/// Normalize an already-computed valid-mode correlation of `x` against a
/// template of length `h_size` and L2 norm `h_norm`. Exactly the
/// normalization `correlate_normalized` applies, split out so callers that
/// need both the raw and the normalized statistic (the matched-filter
/// detector) can correlate once instead of twice. Requires
/// corr.size() == x.size() - h_size + 1 and h_norm > 0.
[[nodiscard]] std::vector<double> normalize_correlation(std::span<const double> corr,
                                                        std::span<const double> x,
                                                        std::size_t h_size,
                                                        double h_norm);

/// The sliding denominator of a normalized correlation:
/// sqrt(max(window energy of x, floor)) * ||h|| at every valid lag, read
/// from prefix sums of x^2. Silent stretches would otherwise divide by
/// (numerically) zero and amplify FFT round-off into spurious peaks, so
/// the window energy is floored at 1e-4 of the average window energy
/// (and at 1e-30). `normalize_correlation_into` and the matched-filter
/// detector's fused gate pass both divide by this one formula, so their
/// normalized values agree bit for bit.
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

/// Allocation-free spelling of `normalize_correlation` for loops: the
/// prefix-sum scratch and the output live in caller-owned buffers (resized
/// as needed). Same result, same preconditions.
void normalize_correlation_into(std::span<const double> corr, std::span<const double> x,
                                std::size_t h_size, double h_norm,
                                std::vector<double>& prefix_scratch,
                                std::vector<double>& out);

/// Full "linear" cross-correlation with lags from -(h.size()-1) to
/// x.size()-1 (like numpy.correlate(x, h, "full") reversed appropriately).
/// Used by tests that check autocorrelation symmetry. Large products
/// stream through overlap-save like `correlate_valid`; products up to
/// `kDirectProductLimit` are the direct sum, in the same term order for
/// both overloads, so the two agree bit for bit.
[[nodiscard]] std::vector<double> correlate_full(std::span<const double> x,
                                                 std::span<const double> h);

/// `correlate_full` against a precomputed reversed-template spectrum (see
/// the `correlate_valid` overload for the reversal contract).
[[nodiscard]] std::vector<double> correlate_full(std::span<const double> x,
                                                 const OlsConvolver& reversed_template,
                                                 Workspace* ws = nullptr);

}  // namespace hyperear::dsp
