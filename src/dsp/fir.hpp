#pragma once

#include <span>
#include <vector>

#include "dsp/window.hpp"

/// @file fir.hpp
/// Windowed-sinc FIR design and linear filtering.
///
/// The paper's Acoustic Signal Preprocessing stage band-passes the
/// recording to the chirp band (2-6.4 kHz) before matched filtering
/// (Sections III and VII-E). The service pipeline leaves that to the
/// matched filter itself; these designs serve the simulator, the
/// band-pass comparison in bench/bench_ablation_design.cpp and
/// perfbench's probe (core::PipelineContext::bandpass_convolver).

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

/// Frequency response magnitude of an FIR at the given frequency.
[[nodiscard]] double fir_magnitude_at(std::span<const double> taps, double freq_hz,
                                      double sample_rate);

}  // namespace hyperear::dsp
