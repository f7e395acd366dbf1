#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/ols.hpp"

namespace hyperear::dsp {

namespace {

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

void check_design_args(double cutoff_hz, double sample_rate, std::size_t taps) {
  require(sample_rate > 0.0, "fir design: sample rate must be positive");
  require(cutoff_hz > 0.0 && cutoff_hz < sample_rate / 2.0,
          "fir design: cutoff must be in (0, fs/2)");
  require(taps >= 3 && taps % 2 == 1, "fir design: taps must be odd and >= 3");
}

}  // namespace

std::vector<double> design_lowpass(double cutoff_hz, double sample_rate, std::size_t taps,
                                   WindowType window) {
  check_design_args(cutoff_hz, sample_rate, taps);
  const double fc = cutoff_hz / sample_rate;  // normalized [0, 0.5)
  const auto mid = static_cast<double>(taps - 1) / 2.0;
  std::vector<double> h(taps);
  const std::vector<double> w = make_window(window, taps);
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double n = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * n) * w[i];
    sum += h[i];
  }
  // Normalize to exact unity DC gain.
  for (auto& v : h) v /= sum;
  return h;
}

std::vector<double> design_bandpass(double low_hz, double high_hz, double sample_rate,
                                    std::size_t taps, WindowType window) {
  require(low_hz < high_hz, "design_bandpass: low_hz must be < high_hz");
  // Band-pass = difference of two low-passes.
  const std::vector<double> lp_high = design_lowpass(high_hz, sample_rate, taps, window);
  const std::vector<double> lp_low = design_lowpass(low_hz, sample_rate, taps, window);
  std::vector<double> h(taps);
  for (std::size_t i = 0; i < taps; ++i) h[i] = lp_high[i] - lp_low[i];
  return h;
}

namespace {

/// Direct-evaluation "same" filtering for small signal x taps products,
/// staging the full convolution through `full_scratch` (a workspace slot or
/// a local vector) so the into-spelling stays allocation-free.
void filter_same_direct_into(std::span<const double> signal,
                             std::span<const double> taps,
                             std::vector<double>& full_scratch,
                             std::vector<double>& out) {
  const std::size_t half = taps.size() / 2;
  full_scratch.assign(signal.size() + taps.size() - 1, 0.0);
  for (std::size_t i = 0; i < signal.size(); ++i) {
    for (std::size_t j = 0; j < taps.size(); ++j) {
      full_scratch[i + j] += signal[i] * taps[j];
    }
  }
  out.resize(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) out[i] = full_scratch[i + half];
}

std::vector<double> filter_same_direct(std::span<const double> signal,
                                       std::span<const double> taps) {
  std::vector<double> full;
  std::vector<double> out;
  filter_same_direct_into(signal, taps, full, out);
  return out;
}

void check_filter_args(std::span<const double> signal, std::size_t taps) {
  require(!signal.empty(), "filter_same: empty signal");
  require(taps != 0 && taps % 2 == 1, "filter_same: taps must be odd-sized");
}

}  // namespace

std::vector<double> filter_same(std::span<const double> signal, std::span<const double> taps) {
  check_filter_args(signal, taps.size());
  if (signal.size() * taps.size() <= kDirectProductLimit) {
    return filter_same_direct(signal, taps);
  }
  // Overlap-save at the default block size for this kernel — the same
  // geometry a cached convolver for these taps would use, so the planless
  // and plan-cached overloads agree bit for bit.
  return OlsConvolver(std::vector<double>(taps.begin(), taps.end())).filter_same(signal);
}

std::vector<double> filter_same(std::span<const double> signal, const OlsConvolver& kernel,
                                Workspace* ws) {
  check_filter_args(signal, kernel.kernel_size());
  if (signal.size() * kernel.kernel_size() <= kDirectProductLimit) {
    return filter_same_direct(signal, kernel.kernel());
  }
  return kernel.filter_same(signal, ws);
}

void filter_same_into(std::span<const double> signal, const OlsConvolver& kernel,
                      std::vector<double>& out, Workspace& ws) {
  filter_same_window_into(signal, kernel, 0, signal.size(), out, ws);
}

void filter_same_window_into(std::span<const double> signal, const OlsConvolver& kernel,
                             std::size_t start, std::size_t count,
                             std::vector<double>& out, Workspace& ws) {
  check_filter_args(signal, kernel.kernel_size());
  require(start <= signal.size() && count <= signal.size() - start,
          "filter_same: window exceeds the signal");
  if (signal.size() * kernel.kernel_size() <= kDirectProductLimit) {
    // A few hundred samples at most: filter the whole signal, keep the window.
    filter_same_direct_into(signal, kernel.kernel(),
                            ws.real_scratch(0, signal.size() + kernel.kernel_size() - 1),
                            out);
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(start));
    out.resize(count);
    return;
  }
  out.resize(count);
  kernel.convolve_into(signal, kernel.kernel_size() / 2 + start, count, out.data(), ws);
}

StreamingFirFilter::StreamingFirFilter(const OlsConvolver& kernel) : kernel_(&kernel) {
  require(kernel.kernel_size() % 2 == 1,
          "StreamingFirFilter: kernel must be odd-sized");
}

void StreamingFirFilter::reset() {
  raw_.clear();
  raw_start_ = 0;
  total_ = 0;
  emitted_ = 0;
  next_block_ = 0;
  streaming_ = false;
  finished_ = false;
}

void StreamingFirFilter::emit_pair(std::size_t b, bool paired, std::vector<double>& out,
                                   Workspace& ws) {
  const std::size_t m = kernel_->kernel_size();
  const std::size_t block = kernel_->block_size();
  const std::size_t half_delay = m / 2;
  // Fresh "same"-mode output of this pair: full-convolution indices from
  // the emission frontier up to the pair's end, clipped to the batch
  // output window [half_delay, half_delay + total) and the full
  // convolution — the same bounds convolve_into's copy-out applies.
  const std::size_t pair_end = (b + (paired ? 2u : 1u)) * block;
  const std::size_t lo = half_delay + emitted_;
  const std::size_t hi = std::min({pair_end, half_delay + total_, total_ + m - 1});
  if (hi <= lo) return;
  const std::size_t count = hi - lo;
  const std::size_t base = out.size();
  out.resize(base + count);
  kernel_->convolve_pair_into(raw_, raw_start_, total_, b, paired, lo, count,
                              out.data() + base, ws);
  emitted_ += count;
}

void StreamingFirFilter::push(std::span<const double> chunk, std::vector<double>& out,
                              Workspace& ws) {
  require(!finished_, "StreamingFirFilter: push after finish");
  if (chunk.empty()) return;
  raw_.insert(raw_.end(), chunk.begin(), chunk.end());
  total_ += chunk.size();
  const std::size_t m = kernel_->kernel_size();
  if (!streaming_) {
    // Below the direct-path threshold the final route is still unknown —
    // retain everything (bounded: at most kDirectProductLimit / m samples
    // plus this push). Once the product exceeds the limit it can only
    // grow, so the batch path is guaranteed on the overlap-save route and
    // pairs may stream out.
    if (total_ * m <= kDirectProductLimit) return;
    streaming_ = true;
    next_block_ = ((m / 2) / kernel_->block_size()) & ~std::size_t{1};
  }
  const std::size_t block = kernel_->block_size();
  // A pair is final once its whole input window [b*block - (m-1),
  // (b+2)*block) lies inside the pushed prefix: no sample it reads can be
  // affected by future pushes or end-of-signal padding, and the final
  // signal is long enough that its paired flag is certainly true.
  while (total_ >= (next_block_ + 2) * block) {
    emit_pair(next_block_, true, out, ws);
    next_block_ += 2;
  }
  // Drop raw samples below the next pair's input window, compacting at
  // block granularity so a 1-sample push cadence stays O(1) amortized.
  const std::size_t window_start =
      next_block_ * block > (m - 1) ? next_block_ * block - (m - 1) : 0;
  if (window_start > raw_start_ + block) {
    raw_.erase(raw_.begin(),
               raw_.begin() + static_cast<std::ptrdiff_t>(window_start - raw_start_));
    raw_start_ = window_start;
  }
}

void StreamingFirFilter::finish(std::vector<double>& out, Workspace& ws) {
  require(!finished_, "StreamingFirFilter: finish called twice");
  require(total_ > 0, "filter_same: empty signal");
  finished_ = true;
  const std::size_t m = kernel_->kernel_size();
  if (!streaming_) {
    // The whole signal is retained and below the threshold: the batch path
    // would evaluate directly, so run exactly that.
    filter_same_into(raw_, *kernel_, stage_, ws);
    out.insert(out.end(), stage_.begin(), stage_.end());
    emitted_ = total_;
    return;
  }
  // Tail pairs: the final length is known now, so the batch pair schedule
  // (last block, paired flags, end-of-signal zero padding) is replayed
  // exactly from the frontier.
  const std::size_t block = kernel_->block_size();
  const std::size_t half_delay = m / 2;
  const std::size_t full_len = total_ + m - 1;
  const std::size_t total_blocks = (full_len + block - 1) / block;
  const std::size_t last_block = (half_delay + total_ - 1) / block;
  for (std::size_t b = next_block_; b <= last_block; b += 2) {
    emit_pair(b, b + 1 < total_blocks, out, ws);
  }
}

double fir_magnitude_at(std::span<const double> taps, double freq_hz, double sample_rate) {
  require(sample_rate > 0.0, "fir_magnitude_at: sample rate must be positive");
  const double omega = 2.0 * kPi * freq_hz / sample_rate;
  double re = 0.0, im = 0.0;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    re += taps[i] * std::cos(omega * static_cast<double>(i));
    im -= taps[i] * std::sin(omega * static_cast<double>(i));
  }
  return std::sqrt(re * re + im * im);
}

}  // namespace hyperear::dsp
