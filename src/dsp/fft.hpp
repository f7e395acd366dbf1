#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <span>
#include <vector>

/// @file fft.hpp
/// The repo's one FFT kernel (`FftPlan`): in-place radix-4 transforms over
/// power-of-two sizes, implemented from scratch (no external DSP
/// dependency). Used by cross-correlation, matched filtering, overlap-save
/// convolution and spectral analysis.
///
/// The kernel is a fast-convolution pair on split re/im arrays. The forward
/// transform is decimation-in-frequency: natural-order input, bit-reversed
/// spectrum. The inverse is decimation-in-time: bit-reversed spectrum,
/// natural-order output. A convolution multiplies two spectra pointwise,
/// which works in any order, so overlap-save (`OlsConvolver`) never runs
/// the bit-reversal permutation. The natural-order `forward`/`inverse` on
/// interleaved `std::complex` buffers run the same two butterflies plus
/// that permutation.
///
/// Hot paths that transform many buffers of one fixed size (the matched
/// filter's chunked correlation, via core::PipelineContext) should build an
/// `FftPlan` once and reuse it. The planless `fft_inplace`/`ifft_inplace`
/// build a transient plan per call and run the same kernel, so planned and
/// planless results are identical by construction — there is no second
/// butterfly to keep in sync.
///
/// Loops that transform many buffers should also own a `Workspace` and call
/// the `_into` variants, which reuse the caller's buffers instead of
/// allocating fresh ones per transform (DESIGN.md Section 9).

namespace hyperear::dsp {

using Complex = std::complex<double>;

/// In-place forward FFT. Requires x.size() to be a power of two (>= 1).
/// Builds a transient `FftPlan`; loops should build the plan once instead.
void fft_inplace(std::vector<Complex>& x);

/// In-place inverse FFT (includes the 1/N normalization). Requires a
/// power-of-two size. Builds a transient `FftPlan`, like `fft_inplace`.
void ifft_inplace(std::vector<Complex>& x);

/// Precomputed FFT for one power-of-two size: the bit-reversal swap list
/// plus one forward twiddle table, held as separate re/im arrays and
/// evaluated directly with cos/sin (no recurrence, so no accumulated
/// rounding). The inverse transform uses the conjugate twiddles. The
/// butterflies fuse radix-2 stages two at a time into radix-4 butterflies
/// written as explicit real/imaginary arithmetic, two lanes at a time; when
/// log2 N is odd, one radix-2 pass handles the extra stage (trailing in the
/// forward transform, leading in the inverse). Immutable after
/// construction, so one plan can be shared read-only across threads.
class FftPlan {
 public:
  /// `n` must be a power of two (>= 1).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Natural-order in-place transforms of an interleaved buffer; require
  /// x.size() == size(). `inverse` includes the 1/N normalization.
  void forward(std::vector<Complex>& x) const;
  void inverse(std::vector<Complex>& x) const;

  /// Permutation-free forward transform of split re/im arrays of size()
  /// doubles each: natural-order input, spectrum in bit-reversed order
  /// (bin k lands at index bitrev(k)).
  void forward_to_bitrev(std::span<double> re, std::span<double> im) const;
  /// Permutation-free inverse of `forward_to_bitrev`: bit-reversed spectrum
  /// in, natural-order signal out. NOT normalized — the result is N times
  /// the inverse DFT; callers fold the 1/N into a factor they already
  /// multiply by (OlsConvolver scales its kernel spectrum).
  void inverse_from_bitrev(std::span<double> re, std::span<double> im) const;

 private:
  /// The two butterfly sources, over a re/im array pair whose element i
  /// sits at re[i * Stride] / im[i * Stride]: Stride 1 is the split layout,
  /// Stride 2 an interleaved `std::complex` buffer.
  template <std::size_t Stride>
  void dif(double* re, double* im) const;
  template <std::size_t Stride>
  void dit(double* re, double* im) const;
  void permute(std::vector<Complex>& x) const;

  std::size_t n_ = 1;
  /// Bit-reversal permutation as flattened (i, j) swap pairs with i < j.
  std::vector<std::uint32_t> swaps_;
  /// Forward twiddles, radix-4 stage by stage: a stage of quarter length q
  /// stores W^k, W^2k, W^3k (W = e^{-2*pi*i/4q}) for k < q as three
  /// consecutive runs of q entries.
  std::vector<double> twiddle_re_;
  std::vector<double> twiddle_im_;
};

/// Pointwise complex product z *= k over split re/im arrays of equal
/// length, two lanes at a time. The order of the bins does not matter, so
/// it serves bit-reversed spectra as well as natural-order ones.
void multiply_spectra(std::span<double> z_re, std::span<double> z_im,
                      std::span<const double> k_re, std::span<const double> k_im);

/// Reusable scratch buffers for the FFT/convolution hot paths. A Workspace
/// is deliberately dumb: callers ask for a slot resized to the length they
/// need and must overwrite every element they read back. It is NOT
/// thread-safe — own one per call stack (the matched-filter detector builds
/// one per `detect` call, the ASP stage one per mic channel) and never share
/// it across threads. Repeated calls of one loop reuse the same capacity, so
/// the steady state of a block-convolution loop performs zero allocations.
/// `OlsConvolver` keeps its transform pair in slots 0 (re) and 1 (im).
class Workspace {
 public:
  static constexpr std::size_t kSlots = 2;

  /// Real scratch buffer `slot`, resized to `size`; contents unspecified.
  [[nodiscard]] std::vector<double>& real_scratch(std::size_t slot, std::size_t size);

 private:
  std::array<std::vector<double>, kSlots> real_;
};

/// Forward FFT of a real signal, zero-padded up to the next power of two of
/// `min_size` (or of x.size() when min_size == 0). Returns the full complex
/// spectrum of that padded length.
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> x, std::size_t min_size = 0);

/// `fft_real` into a caller-owned buffer (typically a Workspace slot): no
/// allocation once `out` has the capacity, and only the zero tail of the
/// padding is cleared (the signal itself is written, not zeroed then
/// copied). When `plan` is non-null and sized to the padded length it is
/// used; otherwise a transient plan is built. The result is identical
/// either way (one kernel).
void fft_real_into(std::span<const double> x, std::size_t min_size,
                   std::vector<Complex>& out, const FftPlan* plan = nullptr);

/// Inverse FFT returning only the real parts (imaginary parts are expected
/// to be numerically negligible for conjugate-symmetric input).
[[nodiscard]] std::vector<double> ifft_to_real(std::vector<Complex> spectrum);

/// `ifft_to_real` transforming `spectrum` in place and extracting the real
/// parts into a caller-owned buffer — the allocation-free spelling for
/// loops. `spectrum` is clobbered.
void ifft_to_real_into(std::vector<Complex>& spectrum, std::vector<double>& out,
                       const FftPlan* plan = nullptr);

/// Linear convolution of two real signals via one monolithic FFT at the
/// next power of two covering the full result. Result length is
/// a.size() + b.size() - 1. Requires non-empty inputs.
///
/// This is the *reference* path: simple, allocation-heavy, and O(N log N)
/// in the padded length of the WHOLE signal. Long-signal/short-kernel
/// convolution (FIR filtering, matched-filter correlation) should go
/// through `OlsConvolver` (dsp/ols.hpp), which streams fixed-size blocks
/// through cached plans instead; `filter_same` and `correlate_valid` do so
/// automatically. bench_micro_dsp records the gap between the two.
[[nodiscard]] std::vector<double> fft_convolve(std::span<const double> a,
                                               std::span<const double> b);

}  // namespace hyperear::dsp
