#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/fft.hpp"

/// @file ols.hpp
/// Block overlap-save (OLS) convolution: the streaming engine behind FIR
/// filtering and matched-filter correlation of long recordings.
///
/// The monolithic FFT convolution (`fft_convolve`) pads the WHOLE signal to
/// the next power of two — a 10 s, 44.1 kHz channel becomes a 2^20-point
/// transform whose working set thrashes every cache level. Overlap-save
/// instead fixes a small transform size N from the KERNEL length alone,
/// slides a block of L = N - M + 1 fresh samples per step (M = kernel
/// length), and keeps the kernel spectrum and the `FftPlan` twiddle tables
/// cached across blocks, calls and sessions (via core::PipelineContext).
///
/// Two structural savings on top of the block streaming:
///  * the kernel is transformed ONCE at construction, never per call;
///  * consecutive blocks ride one complex transform pair (see
///    `convolve_into`): the real-input fast path packs block b into the real
///    parts and block b+1 into the imaginary parts, halving the FFT count;
///  * no block pays for a bit-reversal permutation: the forward transform
///    leaves its spectrum in bit-reversed order, the kernel spectrum is
///    stored in that order, and the inverse transform takes it back.
///
/// Accuracy: overlap-save computes the same linear convolution as the
/// direct sum, within FFT round-off (~1e-13 for unit-scale inputs; the
/// property tests in tests/test_ols.cpp bound it at 1e-9). Results are
/// deterministic — a fixed (kernel, fft_size) pair produces bit-identical
/// output for a given input everywhere, which is what keeps pipelines with
/// and without a shared plan cache bit-identical.

namespace hyperear::dsp {

/// Signal-length x kernel-length product below which direct (time-domain)
/// evaluation beats any FFT method. Shared by `filter_same`,
/// `correlate_valid` and the matched-filter detector so every spelling of a
/// convolution picks the same path — and therefore the same bits.
inline constexpr std::size_t kDirectProductLimit = 1u << 16;

/// Transform size for overlap-save with an M-tap kernel: the power of two
/// minimizing amortized butterfly work per output sample,
/// N log2(N) / (N - M + 1). Deterministic, so independently constructed
/// convolvers for the same kernel agree on the block geometry (and hence on
/// the output bits).
[[nodiscard]] std::size_t choose_ols_fft_size(std::size_t kernel_len);

/// Transform size for a convolver that serves windows of `window_len`
/// samples (the matched-filter detector's chunks). Costs each of the
/// one-argument rule's candidate sizes by the pair model: ceil(blocks / 2)
/// transform pairs of N log2(N) butterflies, blocks =
/// ceil(window_len / (N - M + 1)). Returns the smallest size whose cost is
/// within 1/16 of the minimum and no more than the one-argument choice's.
/// Whole-signal callers (`filter_same`, `correlate_valid`) keep the
/// one-argument rule. For the 2205-tap reference on 131072-sample windows (the
/// matched-filter detector's costing window) this is 8192: 11 full pairs,
/// against 3 pairs at 32768 of which the last is half empty.
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
/// is convolution with the reversed kernel, and `correlate_valid` below
/// assumes the reversal already happened (the reversed-template spectrum is
/// exactly what core::PipelineContext caches for the matched filter).
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

  /// Streamed spelling of one transform pair of `convolve_into`: computes
  /// blocks `block_index` and (when `paired`) `block_index + 1` of the full
  /// convolution of the kernel with a signal of `signal_len` samples, and
  /// writes the intersection of the pair's output range with
  /// [offset, offset + count) to `out[g - offset]`.
  ///
  /// `x` is a WINDOW of that signal: its samples are signal indices
  /// [x_start, x_start + x.size()); everything outside `x` is read as zero,
  /// exactly the zero-padding `convolve_into` applies outside the signal —
  /// so the caller must retain (at least) the signal samples the pair's
  /// input window [block_index*block - (kernel-1), end-of-pair) intersects.
  /// `block_index` must be even (the pairing anchor of the full
  /// convolution) and `paired` must equal `block_index + 1 <
  /// ceil((signal_len + kernel - 1) / block)` of the FINAL signal — under
  /// those conditions the pair arithmetic is the one `convolve_into` runs,
  /// so an incremental caller is bit-identical to the batch path by
  /// construction.
  void convolve_pair_into(std::span<const double> x, std::size_t x_start,
                          std::size_t signal_len, std::size_t block_index, bool paired,
                          std::size_t offset, std::size_t count, double* out,
                          Workspace& ws) const;

  /// Valid-mode correlation (against the template whose REVERSAL is this
  /// kernel, as for `correlate_valid`) on the LAG-ANCHORED pair grid: with
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
  /// however the signal is split into such windows. (`correlate_valid`
  /// anchors its blocks to the window's full convolution instead, and
  /// spends the first block's kernel_size() - 1 outputs on lags before the
  /// window.)
  void correlate_pairs_into(std::span<const double> x, std::size_t x_start, double* out,
                            Workspace& ws) const;

  /// Full linear convolution; length x.size() + kernel_size() - 1.
  [[nodiscard]] std::vector<double> convolve_full(std::span<const double> x,
                                                  Workspace* ws = nullptr) const;

  /// FIR "same" filtering: output has x.size() samples with the group delay
  /// of the (odd, symmetric) kernel removed. Requires an odd kernel.
  [[nodiscard]] std::vector<double> filter_same(std::span<const double> x,
                                                Workspace* ws = nullptr) const;

  /// `filter_same` into a caller-owned buffer (resized to x.size(), every
  /// element overwritten) — the allocation-free spelling for batch loops
  /// whose output buffer persists across sessions. Bit-identical to
  /// `filter_same`.
  void filter_same_into(std::span<const double> x, std::vector<double>& out,
                        Workspace& ws) const;

  /// Valid-mode correlation of x against the template whose REVERSAL is
  /// this convolver's kernel; length x.size() - kernel_size() + 1. Requires
  /// kernel_size() <= x.size().
  [[nodiscard]] std::vector<double> correlate_valid(std::span<const double> x,
                                                    Workspace* ws = nullptr) const;

  /// `correlate_valid` into a caller-owned buffer (resized to the valid
  /// length, every element overwritten). Bit-identical to `correlate_valid`.
  void correlate_valid_into(std::span<const double> x, std::vector<double>& out,
                            Workspace& ws) const;

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
  /// Every public spelling routes its block arithmetic through here, which
  /// is what makes windowed, full, and streamed calls bit-identical.
  void transform_pair(std::span<const double> x, std::ptrdiff_t x_start,
                      std::ptrdiff_t base, bool paired, PairLanes z) const;
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
