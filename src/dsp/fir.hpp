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

/// Convolve the signal with the FIR taps of a prebuilt overlap-save
/// convolver, "same" mode, into a caller-owned buffer (resized to
/// signal.size(), every element overwritten): the output has the input
/// length and is aligned so the filter's group delay ((taps-1)/2 samples
/// for a symmetric design) is removed. Requires odd taps. Products of
/// signal length x taps up to `kDirectProductLimit` are evaluated directly,
/// staging through `ws`; larger ones stream through
/// `OlsConvolver::convolve_into`.
void filter_same_into(std::span<const double> signal, const OlsConvolver& kernel,
                      std::vector<double>& out, Workspace& ws);

}  // namespace hyperear::dsp
