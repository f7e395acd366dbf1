#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

/// @file fft.hpp
/// The repo's one FFT kernel (`FftPlan`): in-place radix-4 transforms over
/// power-of-two sizes, implemented from scratch (no external DSP
/// dependency). Used by overlap-save convolution (the matched filter's
/// correlation) and spectral analysis.
///
/// The kernel is a fast-convolution pair on split re/im arrays. The forward
/// transform is decimation-in-frequency: natural-order input, bit-reversed
/// spectrum. The inverse is decimation-in-time: bit-reversed spectrum,
/// natural-order output. A convolution multiplies two spectra pointwise,
/// which works in any order, so overlap-save (`OlsConvolver`) never runs a
/// bit-reversal permutation; a caller that wants bin k reads index
/// bitrev(k) (`dsp::periodogram`).
///
/// Plans are built once per size and reused: core::PipelineContext holds
/// the matched filter's. Loops that transform many buffers own a
/// `Workspace` for their scratch, so the steady state allocates nothing
/// (DESIGN.md Section 9).

namespace hyperear::dsp {

/// Precomputed FFT for one power-of-two size: one forward twiddle table,
/// held as separate re/im arrays and evaluated directly with cos/sin (no
/// recurrence, so no accumulated rounding). The inverse transform uses the
/// conjugate twiddles. The
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
  std::size_t n_ = 1;
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
/// thread-safe — own one per call stack (DetectorWorkspace embeds one) and
/// never share it across threads. Repeated calls of one loop reuse the same
/// capacity, so the steady state of a block-convolution loop performs zero
/// allocations.
/// `OlsConvolver` keeps its transform pair in slots 0 (re) and 1 (im).
class Workspace {
 public:
  static constexpr std::size_t kSlots = 2;

  /// Real scratch buffer `slot`, resized to `size`; contents unspecified.
  [[nodiscard]] std::vector<double>& real_scratch(std::size_t slot, std::size_t size);

 private:
  std::array<std::vector<double>, kSlots> real_;
};

}  // namespace hyperear::dsp
