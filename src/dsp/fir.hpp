#pragma once

#include <span>
#include <vector>

#include "dsp/window.hpp"

/// @file fir.hpp
/// Windowed-sinc FIR design and linear filtering.
///
/// HyperEar's Acoustic Signal Preprocessing stage band-passes the recording
/// to the chirp band (2-6.4 kHz) so ambient sound outside the band — human
/// voice in the meeting room is mostly below 2 kHz — is removed before
/// matched filtering (paper Sections III and VII-E).

namespace hyperear::dsp {

/// Design a low-pass windowed-sinc FIR. `cutoff_hz` in (0, fs/2),
/// `taps` odd and >= 3. Unity DC gain.
[[nodiscard]] std::vector<double> design_lowpass(double cutoff_hz, double sample_rate,
                                                 std::size_t taps,
                                                 WindowType window = WindowType::kHamming);

/// Design a band-pass FIR with pass band [low_hz, high_hz].
/// Requires 0 < low_hz < high_hz < fs/2.
[[nodiscard]] std::vector<double> design_bandpass(double low_hz, double high_hz,
                                                  double sample_rate, std::size_t taps,
                                                  WindowType window = WindowType::kHamming);

class OlsConvolver;
class Workspace;

/// Convolve the signal with FIR taps, "same" mode: the output has the input
/// length and is aligned so the filter's group delay ((taps-1)/2 samples for
/// a symmetric design) is removed. Large signal x taps products stream
/// through block overlap-save convolution (dsp/ols.hpp) at the default
/// block size for the kernel; small ones are evaluated directly.
[[nodiscard]] std::vector<double> filter_same(std::span<const double> signal,
                                              std::span<const double> taps);

/// `filter_same` through a prebuilt overlap-save convolver (whose kernel is
/// the taps) and an optional reusable workspace — the zero-setup-cost
/// spelling for batch callers (core::PipelineContext caches the convolver).
/// Takes the direct path below the same size threshold as the planless
/// overload, so for any given input both spellings produce identical bits.
[[nodiscard]] std::vector<double> filter_same(std::span<const double> signal,
                                              const OlsConvolver& kernel,
                                              Workspace* ws = nullptr);

/// `filter_same` through a prebuilt convolver into a caller-owned buffer
/// (resized to signal.size(), every element overwritten) — the
/// allocation-free spelling for batch loops whose output buffer persists
/// across sessions (core::SessionWorkspace). Takes the direct path below
/// the same size threshold, staging through `ws`, so all three spellings
/// produce identical bits.
void filter_same_into(std::span<const double> signal, const OlsConvolver& kernel,
                      std::vector<double>& out, Workspace& ws);

/// Samples [start, start + count) of `filter_same_into(signal, kernel)`,
/// bit for bit, into `out` (resized to `count`). On the overlap-save path
/// only the blocks that intersect the window are transformed: block
/// pairing is anchored to the whole signal's convolution, so a window
/// repeats exactly the arithmetic of the whole-signal call. The ASP
/// fan-out band-passes each detector chunk this way, with no whole-channel
/// copy. Requires start + count <= signal.size().
void filter_same_window_into(std::span<const double> signal, const OlsConvolver& kernel,
                             std::size_t start, std::size_t count,
                             std::vector<double>& out, Workspace& ws);

/// Frequency response magnitude of an FIR at the given frequency.
[[nodiscard]] double fir_magnitude_at(std::span<const double> taps, double freq_hz,
                                      double sample_rate);

/// Incremental spelling of `filter_same_into` for one fixed kernel: feed
/// the signal in arbitrary-size chunks via `push`, collect filtered samples
/// as they become final, and `finish` once the signal ends. The
/// concatenation of everything appended to the `out` sinks is BIT-IDENTICAL
/// to `filter_same_into(concatenated_input, kernel, out, ws)` — for every
/// chunking — because the filter replays the batch path's exact decision
/// points:
///
///  * path selection: the batch path evaluates directly when
///    signal_len * taps <= kDirectProductLimit. The product only grows, so
///    the filter buffers raw input until it EXCEEDS the limit (from then on
///    the batch path is guaranteed on the overlap-save route) and
///    `finish` falls back to the direct evaluation when the signal ended
///    below it;
///  * block geometry: on the overlap-save route, pair (b, b+1) is emitted
///    once the input window it reads, [b*block - (taps-1), (b+2)*block), is
///    fully inside the pushed prefix — at that point its arithmetic (and
///    its paired flag) no longer depend on the unknown final length, so
///    `OlsConvolver::convolve_pair_into` reproduces the batch pair exactly.
///    `finish` runs the remaining tail pairs with the final length's
///    zero-padding and paired flags.
///
/// Memory: `retained()` raw samples are held — at most
/// max(kDirectProductLimit / taps, 2*block + taps - 1) plus the last push's
/// length — independent of the total signal length.
///
/// Single-owner mutable state, like `Workspace`: one instance per stream,
/// never shared across threads. The referenced convolver must outlive it.
class StreamingFirFilter {
 public:
  /// `kernel` must outlive the filter; its kernel must be odd-sized (the
  /// "same"-mode group-delay removal needs a center tap).
  explicit StreamingFirFilter(const OlsConvolver& kernel);

  /// Rewind to a fresh stream (buffer capacity is retained).
  void reset();

  /// Append `chunk` to the signal; every filtered sample that became final
  /// is appended to `out`.
  void push(std::span<const double> chunk, std::vector<double>& out, Workspace& ws);

  /// End of signal: append all remaining filtered samples to `out` (after
  /// which the total appended across push/finish equals the total pushed).
  /// `push` and `finish` must not be called again before `reset`. A
  /// zero-length stream is invalid (mirrors `filter_same`'s non-empty
  /// requirement).
  void finish(std::vector<double>& out, Workspace& ws);

  /// Raw input samples currently retained (the bounded lookback window).
  [[nodiscard]] std::size_t retained() const { return raw_.size(); }
  [[nodiscard]] std::size_t total_pushed() const { return total_; }
  /// Filtered samples appended to the out sinks so far.
  [[nodiscard]] std::size_t emitted() const { return emitted_; }

 private:
  /// Emit one transform pair (blocks b, b+1 of the full convolution) and
  /// append its fresh "same"-mode samples to `out`.
  void emit_pair(std::size_t b, bool paired, std::vector<double>& out, Workspace& ws);

  const OlsConvolver* kernel_;
  std::vector<double> raw_;     ///< retained input: signal [raw_start_, total_)
  std::vector<double> stage_;   ///< finish()-time staging for the direct path
  std::size_t raw_start_ = 0;   ///< signal index of raw_[0]
  std::size_t total_ = 0;       ///< signal samples pushed so far
  std::size_t emitted_ = 0;     ///< filtered samples emitted so far
  std::size_t next_block_ = 0;  ///< next (even) pair index, once streaming_
  bool streaming_ = false;      ///< crossed kDirectProductLimit: OLS route
  bool finished_ = false;
};

}  // namespace hyperear::dsp
