#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

/// @file ols.hpp
/// Block overlap-save (OLS) convolution: the engine behind the matched
/// filter's correlation of long recordings.
///
/// A single FFT over the whole signal would pad it to the next power of
/// two — a 10 s, 44.1 kHz channel becomes a 2^20-point transform whose
/// working set thrashes every cache level. Overlap-save instead fixes a
/// small transform size N from the KERNEL length alone, slides a block of
/// L = N - M + 1 fresh samples per step (M = kernel length), and keeps the
/// kernel spectrum and the `FftPlan` twiddle tables cached across blocks,
/// calls and sessions (via core::PipelineContext).
///
/// Three structural savings on top of the block streaming:
///  * the kernel is transformed ONCE at construction, never per call;
///  * consecutive blocks ride one complex transform pair: the real-input
///    fast path packs block b into the real parts and block b+1 into the
///    imaginary parts, halving the FFT count;
///  * no block pays for a bit-reversal permutation: the forward transform
///    leaves its spectrum in bit-reversed order, the kernel spectrum is
///    stored in that order, and the inverse transform takes it back.
///
/// Three spellings share that pair arithmetic: `convolve_into` writes any
/// window of the full convolution, `correlate_pairs_into` runs the
/// matched filter's valid-mode correlation on a lag-anchored pair grid, and
/// `correlate_two` correlates two equal windows (the two microphones' gate
/// windows of beacon-gated detection) in one pair.
///
/// Accuracy: overlap-save computes the same linear convolution as the
/// direct sum, within FFT round-off (~1e-13 for unit-scale inputs; the
/// property tests in tests/test_ols.cpp bound it at 1e-9). Results are
/// deterministic — a fixed (kernel, fft_size) pair produces bit-identical
/// output for a given input everywhere, which is what keeps pipelines with
/// and without a shared plan cache bit-identical.

namespace hyperear::dsp {

/// Signal-length x kernel-length product below which direct (time-domain)
/// evaluation beats any FFT method. Shared by `filter_same_into` and the
/// matched-filter detector.
inline constexpr std::size_t kDirectProductLimit = 1u << 16;

/// Transform size for overlap-save with an M-tap kernel: the power of two
/// minimizing amortized butterfly work per output sample,
/// N log2(N) / (N - M + 1). Deterministic, so independently constructed
/// convolvers for the same kernel agree on the block geometry (and hence on
/// the output bits).
[[nodiscard]] std::size_t choose_ols_fft_size(std::size_t kernel_len);

/// Transform size for a convolver that serves windows of `window_len`
/// samples (the matched-filter detector costs its one-pair chunks' block
/// size for a fixed long window). Costs each of the
/// one-argument rule's candidate sizes by the pair model: ceil(blocks / 2)
/// transform pairs of N log2(N) butterflies, blocks =
/// ceil(window_len / (N - M + 1)). Returns the smallest size whose cost is
/// within 1/16 of the minimum and no more than the one-argument choice's.
/// A convolver built without an explicit size keeps the one-argument rule.
/// For the 2205-tap reference on 131072-sample windows
/// (`MatchedFilterDetector::kFftCostingWindow`) this is 8192: 11 full
/// pairs, against 3 pairs at 32768 of which the last is half empty.
/// Deterministic, like the one-argument rule.
[[nodiscard]] std::size_t choose_ols_fft_size(std::size_t kernel_len,
                                              std::size_t window_len);

/// Streaming overlap-save convolver for one fixed real kernel.
///
/// Construction is the expensive part: it builds the `FftPlan` for the
/// block size and transforms the kernel once. After that the object is
/// immutable — share one instance read-only across any number of threads
/// (core::PipelineContext does); per-call scratch lives in the caller's
/// `Workspace`.
///
/// For correlation, construct with the time-REVERSED template: correlation
/// is convolution with the reversed kernel, and `correlate_pairs_into`
/// below assumes the reversal already happened (the reversed-template
/// spectrum is exactly what the matched-filter detector caches). Valid lag
/// k of a correlation is full-convolution sample k + kernel_size() - 1.
class OlsConvolver {
 public:
  /// `kernel` must be non-empty. `fft_size` 0 selects
  /// `choose_ols_fft_size(kernel.size())`; an explicit value must be a
  /// power of two of at least the kernel length.
  explicit OlsConvolver(std::vector<double> kernel, std::size_t fft_size = 0);

  [[nodiscard]] std::size_t kernel_size() const { return kernel_.size(); }
  [[nodiscard]] std::size_t fft_size() const { return plan_.size(); }
  /// Fresh output samples produced per block: fft_size - kernel_size + 1.
  [[nodiscard]] std::size_t block_size() const {
    return plan_.size() - kernel_.size() + 1;
  }
  [[nodiscard]] const std::vector<double>& kernel() const { return kernel_; }

  /// Write full-convolution samples [offset, offset + count) of
  /// kernel * x into `out` (which must hold `count` doubles). The full
  /// convolution has x.size() + kernel_size() - 1 samples; the window must
  /// lie inside it. Only the blocks intersecting the window are processed.
  void convolve_into(std::span<const double> x, std::size_t offset, std::size_t count,
                     double* out, Workspace& ws) const;

  /// Valid-mode correlation (against the template whose REVERSAL is this
  /// kernel) on the LAG-ANCHORED pair grid: with
  /// B = block_size(), block b yields lags [b*B, (b+1)*B) from signal
  /// samples [b*B, b*B + fft_size()), and blocks 2g and 2g+1 share one
  /// transform pair. `x` holds signal samples [x_start, x_start +
  /// x.size()), x_start a multiple of 2B and x.size() >= kernel_size();
  /// its x.size() - kernel_size() + 1 lags are written to `out`. A block
  /// reaching past `x` reads zeros, and the window's last block goes
  /// unpaired when the block count is odd.
  ///
  /// The grid belongs to the signal, not to the window: a window that
  /// spans a whole number of pairs or ends the signal runs exactly the
  /// transforms the whole signal would, so every lag is bit-identical
  /// however the signal is split into such windows. (`convolve_into`
  /// anchors its blocks to the window's full convolution instead, and
  /// spends the first block's kernel_size() - 1 outputs on lags before the
  /// window.)
  void correlate_pairs_into(std::span<const double> x, std::size_t x_start, double* out,
                            Workspace& ws) const;

  /// The valid lags of two windows' correlations, read in place from the
  /// transform pair that computed them.
  struct LagPair {
    std::span<const double> first;   ///< lags of the first window
    std::span<const double> second;  ///< lags of the second window
  };
  /// Valid-mode correlation (against the template whose REVERSAL is this
  /// kernel) of two windows in ONE transform pair: `a` rides the re lane
  /// and `b` the im lane. The windows have equal lengths between
  /// kernel_size() and fft_size(); each yields its a.size() -
  /// kernel_size() + 1 valid lags, lag k of `a` reading a[k, k +
  /// kernel_size()). The spans view `ws`'s pair lanes and hold until its
  /// next use. A lag's bits depend on the window's samples and the lag's
  /// place in it, so a window cut at the same samples always yields the
  /// same bits.
  [[nodiscard]] LagPair correlate_two(std::span<const double> a,
                                      std::span<const double> b, Workspace& ws) const;

 private:
  /// The pair buffer: split re/im lanes of fft_size doubles each, held in
  /// ws.real_scratch slots 0 and 1.
  struct PairLanes {
    std::span<double> re;
    std::span<double> im;
  };
  [[nodiscard]] PairLanes pair_lanes(Workspace& ws) const;
  /// The shared pair transform: fill `z` with the circular convolution of
  /// the kernel with the fft_size() signal samples from index `base` (re
  /// lane) and from `base + block_size()` (im lane), reading signal index
  /// `idx` as x[idx - x_start] when inside the window and zero otherwise.
  /// Both public spellings route their block arithmetic through here.
  void transform_pair(std::span<const double> x, std::ptrdiff_t x_start,
                      std::ptrdiff_t base, bool paired, PairLanes z) const;
  /// Replace the filled lanes `z` by their circular convolution with the
  /// kernel: forward transform, spectrum product, inverse transform.
  void convolve_lanes(PairLanes z) const;
  /// Signal index read by lane position 0 of convolution block b.
  [[nodiscard]] std::ptrdiff_t convolution_base(std::size_t b) const {
    return static_cast<std::ptrdiff_t>(b * block_size()) -
           static_cast<std::ptrdiff_t>(kernel_.size() - 1);
  }
  /// Copy the alias-free halves of a transformed pair — outputs [b*B,
  /// (b+2)*B) of the index space being computed (full convolution or
  /// lags) — into the caller's output window [offset, offset + count),
  /// clipped to [0, full_len).
  void copy_pair_halves(PairLanes z, std::size_t b, bool paired, std::size_t offset,
                        std::size_t count, std::size_t full_len, double* out) const;

  std::vector<double> kernel_;
  FftPlan plan_;
  /// FFT of the zero-padded kernel in bit-reversed order (the layout
  /// `FftPlan::forward_to_bitrev` produces), scaled by 1/fft_size so the
  /// unnormalized inverse transform needs no pass of its own.
  std::vector<double> spectrum_re_;
  std::vector<double> spectrum_im_;
};

}  // namespace hyperear::dsp
