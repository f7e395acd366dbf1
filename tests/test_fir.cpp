#include "dsp/fir.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/ols.hpp"

namespace hyperear::dsp {
namespace {

TEST(FirDesign, LowpassPassesDcBlocksHigh) {
  const double fs = 44100.0;
  const std::vector<double> h = design_lowpass(2000.0, fs, 201);
  EXPECT_NEAR(fir_magnitude_at(h, 0.0, fs), 1.0, 1e-9);
  EXPECT_NEAR(fir_magnitude_at(h, 500.0, fs), 1.0, 0.02);
  EXPECT_LT(fir_magnitude_at(h, 8000.0, fs), 0.01);
}

TEST(FirDesign, BandpassForChirpBand) {
  // The ASP band: 2-6.4 kHz (paper Section VII-E).
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  EXPECT_NEAR(fir_magnitude_at(h, 4000.0, fs), 1.0, 0.03);
  // Human voice below 2 kHz is attenuated (the paper's noise argument).
  EXPECT_LT(fir_magnitude_at(h, 800.0, fs), 0.02);
  EXPECT_LT(fir_magnitude_at(h, 12000.0, fs), 0.02);
}

TEST(FirDesign, ArgumentValidation) {
  EXPECT_THROW((void)design_lowpass(0.0, 44100.0, 101), PreconditionError);
  EXPECT_THROW((void)design_lowpass(30000.0, 44100.0, 101), PreconditionError);
  EXPECT_THROW((void)design_lowpass(1000.0, 44100.0, 100), PreconditionError);  // even taps
  EXPECT_THROW((void)design_bandpass(5000.0, 2000.0, 44100.0, 101), PreconditionError);
}

TEST(FilterSame, PreservesLengthAndAlignment) {
  // A symmetric filter applied to a delta returns the (centered) kernel.
  const std::vector<double> h = design_lowpass(4000.0, 44100.0, 31);
  std::vector<double> delta(101, 0.0);
  delta[50] = 1.0;
  const std::vector<double> y = filter_same(delta, h);
  ASSERT_EQ(y.size(), delta.size());
  // Peak of the impulse response stays at the impulse location (no group
  // delay shift) for a linear-phase kernel.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < y.size(); ++i) {
    if (y[i] > y[peak]) peak = i;
  }
  EXPECT_EQ(peak, 50u);
}

TEST(FilterSame, SinusoidInPassbandSurvives) {
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(2.0 * kPi * 4000.0 * static_cast<double>(i) / fs);
  const std::vector<double> y = filter_same(x, h);
  // Compare RMS in the steady-state middle.
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) {
    ex += x[i] * x[i];
    ey += y[i] * y[i];
  }
  EXPECT_NEAR(std::sqrt(ey / ex), 1.0, 0.03);
}

TEST(FilterSame, OutOfBandToneSuppressed) {
  const double fs = 44100.0;
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, fs, 255);
  std::vector<double> x(4096);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(2.0 * kPi * 500.0 * static_cast<double>(i) / fs);
  const std::vector<double> y = filter_same(x, h);
  double ex = 0.0, ey = 0.0;
  for (std::size_t i = 1000; i < 3000; ++i) {
    ex += x[i] * x[i];
    ey += y[i] * y[i];
  }
  EXPECT_LT(std::sqrt(ey / ex), 0.02);
}

/// Feed `signal` to a StreamingFirFilter in slices of the given sizes
/// (cycled until the signal is exhausted) and return everything emitted.
std::vector<double> stream_filter(std::span<const double> signal,
                                  const OlsConvolver& kernel,
                                  const std::vector<std::size_t>& slice_sizes,
                                  Workspace& ws, std::size_t* peak_retained = nullptr) {
  StreamingFirFilter filter(kernel);
  std::vector<double> out;
  std::size_t pos = 0;
  std::size_t cursor = 0;
  while (pos < signal.size()) {
    const std::size_t want = slice_sizes[cursor++ % slice_sizes.size()];
    const std::size_t len = std::min(want, signal.size() - pos);
    filter.push(signal.subspan(pos, len), out, ws);
    pos += len;
    if (peak_retained != nullptr) {
      *peak_retained = std::max(*peak_retained, filter.retained());
    }
  }
  filter.finish(out, ws);
  return out;
}

TEST(StreamingFir, BitIdenticalToBatchForEveryChunking) {
  // The tentpole property at the FIR layer: the concatenation of what
  // push/finish emit must equal filter_same_into on the whole signal BIT
  // FOR BIT, for every slicing — the signal lengths below cross the
  // direct/OLS path threshold and multiple block boundaries, and the
  // slicings cover the degenerate (1-sample), the pathological (prime),
  // and the trivial (whole-signal) cases.
  Rng rng(60);
  for (const std::size_t taps : {31u, 255u}) {
    const std::vector<double> h =
        design_bandpass(2000.0, 6400.0, 44100.0, taps);
    const OlsConvolver kernel(h);
    Workspace ws;
    for (const std::size_t n : {std::size_t{40}, std::size_t{300},
                                std::size_t{5000}, std::size_t{70000}}) {
      std::vector<double> x(n);
      for (double& v : x) v = rng.gaussian(0.0, 1.0);
      std::vector<double> expect;
      filter_same_into(x, kernel, expect, ws);
      for (const std::vector<std::size_t>& slices :
           {std::vector<std::size_t>{n}, std::vector<std::size_t>{1},
            std::vector<std::size_t>{1009},
            std::vector<std::size_t>{7, 331, 1, 4096, 53}}) {
        const std::vector<double> got = stream_filter(x, kernel, slices, ws);
        ASSERT_EQ(got.size(), expect.size()) << "taps " << taps << " n " << n;
        for (std::size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(got[i], expect[i])
              << "taps " << taps << " n " << n << " sample " << i;
        }
      }
    }
  }
}

TEST(StreamingFir, RetainedWindowIsBoundedIndependentOfLength) {
  // Memory contract: once past the direct-path threshold the filter keeps
  // only the lookback the next pair needs, so the retained window must not
  // grow with the signal — the bound covers the direct-path buffer, two
  // OLS blocks of lookahead plus kernel overlap, and one in-flight slice.
  const std::vector<double> h = design_bandpass(2000.0, 6400.0, 44100.0, 255);
  const OlsConvolver kernel(h);
  Workspace ws;
  Rng rng(61);
  std::vector<double> x(200000);
  for (double& v : x) v = rng.gaussian(0.0, 1.0);
  const std::size_t slice = 997;
  std::size_t peak = 0;
  const std::vector<double> out = stream_filter(x, kernel, {slice}, ws, &peak);
  EXPECT_EQ(out.size(), x.size());
  const std::size_t bound =
      std::max(kDirectProductLimit / kernel.kernel_size(),
               2 * kernel.block_size() + kernel.kernel_size() - 1) +
      slice;
  EXPECT_LE(peak, bound);
  EXPECT_LT(peak, x.size() / 4) << "retention must not scale with the signal";
}

TEST(StreamingFir, EmptyStreamAndResetMirrorBatchPreconditions) {
  const std::vector<double> h = design_lowpass(5000.0, 44100.0, 21);
  const OlsConvolver kernel(h);
  Workspace ws;
  StreamingFirFilter filter(kernel);
  std::vector<double> out;
  // filter_same rejects an empty signal; the streaming spelling must agree.
  EXPECT_THROW(filter.finish(out, ws), PreconditionError);
  // reset() rewinds to a usable stream.
  filter.reset();
  Rng rng(62);
  std::vector<double> x(512);
  for (double& v : x) v = rng.gaussian(0.0, 1.0);
  std::vector<double> expect;
  filter_same_into(x, kernel, expect, ws);
  out.clear();
  filter.push(x, out, ws);
  filter.finish(out, ws);
  ASSERT_EQ(out.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(out[i], expect[i]);
  EXPECT_EQ(filter.total_pushed(), x.size());
  EXPECT_EQ(filter.emitted(), x.size());
}

TEST(FilterSame, FftAndDirectPathsAgree) {
  // Small input -> direct path; verify against the FFT path by using a
  // large input with the same prefix content.
  const std::vector<double> h = design_lowpass(5000.0, 44100.0, 21);
  std::vector<double> small(64);
  for (std::size_t i = 0; i < small.size(); ++i) small[i] = std::sin(0.3 * static_cast<double>(i));
  std::vector<double> large(4096, 0.0);
  for (std::size_t i = 0; i < small.size(); ++i) large[i] = small[i];
  const std::vector<double> ys = filter_same(small, h);
  const std::vector<double> yl = filter_same(large, h);
  // Away from the tail boundary the outputs must agree.
  for (std::size_t i = 0; i + 11 < small.size(); ++i) {
    EXPECT_NEAR(ys[i], yl[i], 1e-9) << i;
  }
}

TEST(FilterSame, WindowIsBitIdenticalToTheWholeSignalSlice) {
  // The ASP fan-out band-passes each detector chunk on its own; every
  // window must equal the matching slice of the whole-signal output bit
  // for bit — on the overlap-save path (pairing anchored to the whole
  // convolution) and on the direct path (a signal short enough that the
  // whole product stays under kDirectProductLimit).
  Rng rng(77);
  const OlsConvolver kernel(design_bandpass(2000.0, 6400.0, 44100.0, 255));
  const std::vector<double> long_signal = rng.gaussian_vector(40000);
  const std::vector<double> short_signal = rng.gaussian_vector(200);
  ASSERT_GT(long_signal.size() * kernel.kernel_size(), kDirectProductLimit);
  ASSERT_LE(short_signal.size() * kernel.kernel_size(), kDirectProductLimit);
  for (const std::vector<double>* signal : {&long_signal, &short_signal}) {
    Workspace ws;
    std::vector<double> whole;
    filter_same_into(*signal, kernel, whole, ws);
    const std::size_t n = signal->size();
    std::vector<double> window;
    for (const auto& [start, count] :
         std::vector<std::pair<std::size_t, std::size_t>>{
             {0, n}, {0, 1}, {n - 1, 1}, {n / 3, n / 2}, {7, n - 7}, {n, 0}}) {
      filter_same_window_into(*signal, kernel, start, count, window, ws);
      ASSERT_EQ(window.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(window[i], whole[start + i])
            << "n " << n << " window [" << start << ", +" << count << ") at " << i;
      }
    }
    EXPECT_THROW(filter_same_window_into(*signal, kernel, n - 1, 2, window, ws),
                 PreconditionError);
  }
}

}  // namespace
}  // namespace hyperear::dsp
