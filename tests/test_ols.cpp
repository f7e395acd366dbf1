#include "dsp/ols.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"

namespace hyperear::dsp {
namespace {

/// O(n*m) reference convolution — the ground truth every streaming result
/// is held against.
std::vector<double> direct_full_conv(std::span<const double> x,
                                     std::span<const double> k) {
  std::vector<double> out(x.size() + k.size() - 1, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = 0; j < k.size(); ++j) out[i + j] += x[i] * k[j];
  }
  return out;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

// Accuracy contract (documented in DESIGN.md Section 9): for unit-variance
// inputs at the sizes this library uses, overlap-save agrees with direct
// evaluation to ~1e-13; 1e-9 leaves four orders of magnitude of headroom
// while still catching any real indexing or aliasing bug, which shows up at
// O(1) error, not O(1e-12).
constexpr double kTol = 1e-9;

TEST(ChooseOlsFftSize, PowerOfTwoAtLeastKernelAndDeterministic) {
  for (std::size_t m : {1u, 2u, 7u, 63u, 255u, 1000u, 2205u, 5000u}) {
    const std::size_t n = choose_ols_fft_size(m);
    EXPECT_TRUE(is_pow2(n)) << "m=" << m;
    EXPECT_GE(n, m) << "m=" << m;
    // Deterministic: independently built convolvers must agree on geometry
    // (the bit-identity of the planless and plan-cached overloads rests on
    // this).
    EXPECT_EQ(n, choose_ols_fft_size(m)) << "m=" << m;
  }
  // The paper's band-pass kernel: 255 taps -> 2048-point blocks (the
  // n*log2(n)/(n-m+1) minimum). A change here silently changes every
  // cached-vs-planless comparison, so pin it.
  EXPECT_EQ(choose_ols_fft_size(255), 2048u);
}

/// The pair model of overlap-save work on a window of `w` samples, written
/// out independently of the library: ceil(blocks / 2) transform pairs of
/// N log2(N) butterflies, blocks = ceil(w / (N - m + 1)).
double pair_model_cost(std::size_t m, std::size_t w, std::size_t n) {
  const std::size_t block = n - m + 1;
  const std::size_t blocks = (w + block - 1) / block;
  const std::size_t pairs = (blocks + 1) / 2;
  return static_cast<double>(pairs) * static_cast<double>(n) *
         std::log2(static_cast<double>(n));
}

TEST(ChooseOlsFftSize, WindowAwarePowerOfTwoAtLeastKernelAndDeterministic) {
  for (std::size_t m : {1u, 2u, 7u, 63u, 255u, 1000u, 2205u, 5000u}) {
    for (std::size_t w : {m, 2 * m + 1, std::size_t{4410}, std::size_t{131072},
                          std::size_t{1} << 20}) {
      const std::size_t n = choose_ols_fft_size(m, w);
      EXPECT_TRUE(is_pow2(n)) << "m=" << m << " w=" << w;
      EXPECT_GE(n, m) << "m=" << m << " w=" << w;
      EXPECT_EQ(n, choose_ols_fft_size(m, w)) << "m=" << m << " w=" << w;
    }
  }
}

TEST(ChooseOlsFftSize, WindowAwareDetectorGeometry) {
  // The matched filter's 2205-tap reference on its 131072-sample chunks:
  // 11 full pairs of 8192-point transforms, where the one-argument rule's
  // 32768 runs 3 pairs and the last of them is half empty.
  EXPECT_EQ(choose_ols_fft_size(2205), 32768u);
  EXPECT_EQ(choose_ols_fft_size(2205, 131072), 8192u);
  EXPECT_LT(pair_model_cost(2205, 131072, 8192), pair_model_cost(2205, 131072, 32768));
}

TEST(ChooseOlsFftSize, WindowAwareNeverCostsMoreThanOneArgument) {
  for (std::size_t m = 1; m <= 6000; m += 37) {
    for (double w = static_cast<double>(m); w <= 2.0e6; w *= 1.37) {
      const auto win = static_cast<std::size_t>(w);
      const std::size_t n = choose_ols_fft_size(m, win);
      EXPECT_LE(pair_model_cost(m, win, n),
                pair_model_cost(m, win, choose_ols_fft_size(m)))
          << "m=" << m << " w=" << win << " n=" << n;
    }
  }
}

TEST(OlsConvolver, CorrelateValidAgreesAcrossDetectorBlockSizes) {
  // The detector's correlation at its window-aware block size against the
  // one-argument size, on one full 131072-sample chunk.
  Rng rng(2205);
  const std::vector<double> x = rng.gaussian_vector(131072);
  const std::vector<double> ref = rng.gaussian_vector(2205);
  const std::vector<double> reversed(ref.rbegin(), ref.rend());
  const OlsConvolver small(reversed, 8192);
  const OlsConvolver large(reversed, 32768);
  EXPECT_LT(max_abs_diff(small.correlate_valid(x), large.correlate_valid(x)), kTol);
}

TEST(OlsConvolver, MatchesDirectAcrossRandomLengths) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 400));
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(m), 5000));
    std::vector<double> x = rng.gaussian_vector(n);
    std::vector<double> k = rng.gaussian_vector(m);
    const OlsConvolver ols(k);
    const std::vector<double> got = ols.convolve_full(x);
    const std::vector<double> want = direct_full_conv(x, k);
    EXPECT_LT(max_abs_diff(got, want), kTol) << "n=" << n << " m=" << m;
  }
}

TEST(OlsConvolver, NonPowerOfTwoBoundaryLengths) {
  Rng rng(7);
  // Signal lengths straddling block boundaries for the smallest block the
  // convolver will pick (m=255 -> N=2048 -> L=1794), plus prime-ish lengths.
  const std::size_t m = 255;
  std::vector<double> k = rng.gaussian_vector(m);
  const OlsConvolver ols(k);
  const std::size_t block = ols.block_size();
  for (std::size_t n : {m, m + 1, block - 1, block, block + 1, 2 * block - 1,
                        2 * block, 2 * block + 1, 4099ul}) {
    std::vector<double> x = rng.gaussian_vector(n);
    EXPECT_LT(max_abs_diff(ols.convolve_full(x), direct_full_conv(x, k)), kTol)
        << "n=" << n;
  }
}

TEST(OlsConvolver, KernelEqualsFftSizeEdge) {
  // Forcing fft_size == kernel length shrinks the block to one sample — the
  // degenerate extreme of the overlap-save recurrence (every output sample
  // is its own block, and every pair of blocks shares one packed transform).
  Rng rng(11);
  const std::size_t m = 64;
  std::vector<double> k = rng.gaussian_vector(m);
  const OlsConvolver ols(k, /*fft_size=*/64);
  EXPECT_EQ(ols.block_size(), 1u);
  std::vector<double> x = rng.gaussian_vector(157);
  EXPECT_LT(max_abs_diff(ols.convolve_full(x), direct_full_conv(x, k)), kTol);
}

TEST(OlsConvolver, KernelLongerThanBlock) {
  // fft_size = 256 with a 200-tap kernel gives 57-sample blocks: the kernel
  // spans several blocks' worth of history, so the overlap window reaches
  // far behind the block being produced.
  Rng rng(13);
  const std::size_t m = 200;
  std::vector<double> k = rng.gaussian_vector(m);
  const OlsConvolver ols(k, /*fft_size=*/256);
  EXPECT_EQ(ols.block_size(), 57u);
  EXPECT_LT(ols.block_size(), m);
  std::vector<double> x = rng.gaussian_vector(1000);
  EXPECT_LT(max_abs_diff(ols.convolve_full(x), direct_full_conv(x, k)), kTol);
}

TEST(OlsConvolver, MatchesDirectAtEveryExplicitFftSize) {
  // Every power-of-two block transform from the kernel length up to 2^13:
  // N = 1 and 2 (no radix-4 stage), the single-lane quarter-1 stage at
  // even log2 N, the radix-2 pass at odd log2 N, and blocks of one sample
  // (N == m).
  Rng rng(43);
  for (const std::size_t m : {1u, 2u, 3u, 255u, 2205u}) {
    const std::vector<double> k = rng.gaussian_vector(m);
    for (std::size_t n = next_pow2(m); n <= (std::size_t{1} << 13); n <<= 1) {
      const OlsConvolver ols(k, n);
      // A few blocks, so both lanes of a pair and an unpaired last block
      // are exercised at every size.
      const std::vector<double> x = rng.gaussian_vector(3 * ols.block_size() + m + 5);
      EXPECT_LT(max_abs_diff(ols.convolve_full(x), direct_full_conv(x, k)), kTol)
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(OlsConvolver, WindowedOutputMatchesSliceOfFull) {
  Rng rng(17);
  const std::size_t m = 101;
  std::vector<double> k = rng.gaussian_vector(m);
  std::vector<double> x = rng.gaussian_vector(3000);
  const OlsConvolver ols(k);
  const std::vector<double> full = ols.convolve_full(x);
  Workspace ws;
  for (int trial = 0; trial < 20; ++trial) {
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(full.size())));
    const auto count = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(full.size() - offset)));
    std::vector<double> window(count, 0.0);
    ols.convolve_into(x, offset, count, window.data(), ws);
    for (std::size_t i = 0; i < count; ++i) {
      // Exact: a window is the same block arithmetic as the full result.
      EXPECT_EQ(window[i], full[offset + i]) << "offset=" << offset << " i=" << i;
    }
  }
}

TEST(OlsConvolver, PairGridCorrelationIsBitIdenticalForEverySplit) {
  // correlate_pairs_into anchors its transform pairs to the signal's lag
  // grid: windows of whole pairs (or ending the signal) reproduce the
  // whole-signal correlation bit for bit, and it matches correlate_valid
  // within FFT round-off. Signal lengths put the last block on both
  // parities (paired and unpaired) and leave a one-lag final window.
  Rng rng(23);
  for (const auto& [m, fft] : {std::pair<std::size_t, std::size_t>{101, 512},
                               std::pair<std::size_t, std::size_t>{2205, 8192}}) {
    const std::vector<double> h = rng.gaussian_vector(m);
    const OlsConvolver ols(std::vector<double>(h.rbegin(), h.rend()), fft);
    const std::size_t pair = 2 * ols.block_size();
    for (const std::size_t lags : {7 * pair, 7 * pair + 1, 6 * pair + pair / 4,
                                   6 * pair + pair / 2 + 3}) {
      const std::vector<double> x = rng.gaussian_vector(lags + m - 1);
      Workspace ws;
      std::vector<double> whole(lags);
      ols.correlate_pairs_into(x, 0, whole.data(), ws);
      EXPECT_LT(max_abs_diff(whole, correlate_valid(x, h)), kTol) << "m=" << m;
      for (const std::size_t pairs : {1u, 2u, 3u}) {
        const std::size_t chunk = pairs * pair;
        std::vector<double> split(lags);
        for (std::size_t start = 0; start < lags; start += chunk) {
          const std::size_t n = std::min(chunk, lags - start);
          ols.correlate_pairs_into(std::span<const double>(x).subspan(start, n + m - 1),
                                   start, split.data() + start, ws);
        }
        for (std::size_t k = 0; k < lags; ++k) {
          ASSERT_EQ(split[k], whole[k])
              << "m=" << m << " lags=" << lags << " pairs=" << pairs << " k=" << k;
        }
      }
    }
  }
}

TEST(OlsConvolver, MatchesMonolithicFftConvolveWithinTolerance) {
  Rng rng(19);
  std::vector<double> k = rng.gaussian_vector(255);
  std::vector<double> x = rng.gaussian_vector(1u << 14);
  const OlsConvolver ols(k);
  EXPECT_LT(max_abs_diff(ols.convolve_full(x), fft_convolve(x, k)), kTol);
}

TEST(OlsOverloads, FilterSameSpellingsAreBitIdentical) {
  Rng rng(23);
  std::vector<double> taps = rng.gaussian_vector(255);
  const OlsConvolver cached(taps);
  Workspace ws;
  // Large product (OLS path) and small product (direct path) both must be
  // exactly equal between the planless and plan-cached spellings — the
  // contract that lets PipelineContext swap its cache in and out without
  // perturbing a single bit of the pipeline output.
  for (std::size_t n : {100u, 5000u}) {
    std::vector<double> x = rng.gaussian_vector(n);
    const std::vector<double> planless = filter_same(x, taps);
    const std::vector<double> planned = filter_same(x, cached, &ws);
    ASSERT_EQ(planless.size(), planned.size());
    for (std::size_t i = 0; i < planless.size(); ++i) {
      EXPECT_EQ(planless[i], planned[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OlsOverloads, CorrelateValidSpellingsAreBitIdentical) {
  Rng rng(29);
  std::vector<double> h = rng.gaussian_vector(255);
  const OlsConvolver reversed(std::vector<double>(h.rbegin(), h.rend()));
  Workspace ws;
  for (std::size_t n : {300u, 4000u}) {
    std::vector<double> x = rng.gaussian_vector(n);
    const std::vector<double> planless = correlate_valid(x, h);
    const std::vector<double> planned = correlate_valid(x, reversed, &ws);
    ASSERT_EQ(planless.size(), planned.size());
    for (std::size_t i = 0; i < planless.size(); ++i) {
      EXPECT_EQ(planless[i], planned[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OlsOverloads, CorrelateFullSpellingsAreBitIdentical) {
  Rng rng(31);
  std::vector<double> h = rng.gaussian_vector(255);
  const OlsConvolver reversed(std::vector<double>(h.rbegin(), h.rend()));
  for (std::size_t n : {200u, 2000u}) {
    std::vector<double> x = rng.gaussian_vector(n);
    const std::vector<double> planless = correlate_full(x, h);
    const std::vector<double> planned = correlate_full(x, reversed);
    ASSERT_EQ(planless.size(), planned.size());
    for (std::size_t i = 0; i < planless.size(); ++i) {
      EXPECT_EQ(planless[i], planned[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OlsOverloads, CorrelateFullBelowLimitIsTheDirectSum) {
  // Below kDirectProductLimit both correlate_full spellings evaluate the
  // direct sum: full-convolution sample g of x with the reversed template,
  // the terms taken in ascending template-reversal index j.
  Rng rng(53);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {7, 3}, {3, 7}, {200, 255}, {256, 256}, {2000, 32}};
  for (const auto& [n, m] : shapes) {
    ASSERT_LE(n * m, kDirectProductLimit);
    const std::vector<double> x = rng.gaussian_vector(n);
    const std::vector<double> h = rng.gaussian_vector(m);
    std::vector<double> want(n + m - 1);
    for (std::size_t g = 0; g < want.size(); ++g) {
      double s = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j <= g && g - j < n) s += x[g - j] * h[m - 1 - j];
      }
      want[g] = s;
    }
    const OlsConvolver reversed(std::vector<double>(h.rbegin(), h.rend()));
    const std::vector<double> planless = correlate_full(x, h);
    const std::vector<double> planned = correlate_full(x, reversed);
    ASSERT_EQ(planless.size(), want.size());
    ASSERT_EQ(planned.size(), want.size());
    for (std::size_t g = 0; g < want.size(); ++g) {
      EXPECT_EQ(planless[g], want[g]) << "n=" << n << " m=" << m << " g=" << g;
      EXPECT_EQ(planned[g], want[g]) << "n=" << n << " m=" << m << " g=" << g;
    }
  }
}

TEST(OlsWorkspace, ReuseAcrossMixedSizesDoesNotPerturbResults) {
  Rng rng(37);
  std::vector<double> k = rng.gaussian_vector(127);
  const OlsConvolver ols(k);
  Workspace shared;
  // Interleave sizes so every call inherits a dirty, possibly larger
  // buffer from the previous one.
  for (std::size_t n : {3000u, 130u, 4096u, 127u, 2500u}) {
    std::vector<double> x = rng.gaussian_vector(n);
    const std::vector<double> reused = ols.convolve_full(x, &shared);
    const std::vector<double> fresh = ols.convolve_full(x);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused[i], fresh[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OlsWorkspace, WarmedDirtyWorkspaceMatchesFresh) {
  // A workspace warmed by a larger convolver and then filled with NaN must
  // not leak into any spelling: every lane element is written before it is
  // read.
  Rng rng(47);
  const std::vector<double> k = rng.gaussian_vector(255);
  const OlsConvolver ols(k);
  const OlsConvolver larger(rng.gaussian_vector(2205));
  const std::vector<double> x = rng.gaussian_vector(9000);
  Workspace dirty;
  (void)larger.convolve_full(x, &dirty);
  for (std::size_t slot = 0; slot < Workspace::kSlots; ++slot) {
    std::vector<double>& lane = dirty.real_scratch(slot, 1u << 15);
    std::fill(lane.begin(), lane.end(), std::nan(""));
  }
  const std::vector<double> fresh = ols.convolve_full(x);
  const std::vector<double> reused = ols.convolve_full(x, &dirty);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused[i], fresh[i]) << "i=" << i;
  }
  // The streamed spelling: one pair, windowed out of the same signal.
  std::vector<double> pair_fresh(2 * ols.block_size());
  std::vector<double> pair_dirty(pair_fresh.size());
  Workspace fresh_ws;
  ols.convolve_pair_into(x, 0, x.size(), 2, true, 2 * ols.block_size(), pair_fresh.size(),
                         pair_fresh.data(), fresh_ws);
  ols.convolve_pair_into(x, 0, x.size(), 2, true, 2 * ols.block_size(), pair_dirty.size(),
                         pair_dirty.data(), dirty);
  for (std::size_t i = 0; i < pair_fresh.size(); ++i) {
    EXPECT_EQ(pair_dirty[i], pair_fresh[i]) << "i=" << i;
    EXPECT_EQ(pair_fresh[i], fresh[2 * ols.block_size() + i]) << "i=" << i;
  }
}

TEST(FftInto, MatchesAllocatingSpellings) {
  Rng rng(41);
  std::vector<double> x = rng.gaussian_vector(300);
  const std::vector<Complex> want = fft_real(x, 1024);
  const FftPlan plan(1024);
  Workspace ws;
  std::vector<Complex> spectrum(4096, Complex(-7.0, 3.0));  // dirty, oversized
  fft_real_into(x, 1024, spectrum, &plan);
  ASSERT_EQ(spectrum.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(spectrum[i], want[i]) << "i=" << i;
  }

  const std::vector<double> round_trip = ifft_to_real(want);
  std::vector<Complex> clobber(want);
  std::vector<double>& out = ws.real_scratch(0, 1);
  ifft_to_real_into(clobber, out, &plan);
  ASSERT_EQ(out.size(), round_trip.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], round_trip[i]) << "i=" << i;
  }
}

TEST(OlsErrors, ContractViolationsThrow) {
  EXPECT_THROW(OlsConvolver(std::vector<double>{}), PreconditionError);
  EXPECT_THROW(OlsConvolver(std::vector<double>(8, 1.0), 48), PreconditionError);
  EXPECT_THROW(OlsConvolver(std::vector<double>(100, 1.0), 64), PreconditionError);
  EXPECT_THROW((void)choose_ols_fft_size(0), PreconditionError);

  const OlsConvolver ols(std::vector<double>(8, 1.0), 64);
  const std::vector<double> x(32, 1.0);
  Workspace ws;
  std::vector<double> out(64, 0.0);
  // full length is 39; a window reaching past it must be rejected.
  EXPECT_THROW(ols.convolve_into(x, 0, 40, out.data(), ws), PreconditionError);
  EXPECT_THROW(ols.convolve_into(x, 39, 1, out.data(), ws), PreconditionError);
  // A pair-grid window must start on a pair and hold at least one lag.
  EXPECT_THROW(ols.correlate_pairs_into(x, 1, out.data(), ws), PreconditionError);
  EXPECT_THROW(ols.correlate_pairs_into(std::span<const double>(x).first(7), 0, out.data(), ws),
               PreconditionError);
  // Even-length kernels have no centered "same" alignment.
  EXPECT_THROW((void)ols.filter_same(x), PreconditionError);
  // Template longer than signal.
  const std::vector<double> tiny(4, 1.0);
  EXPECT_THROW((void)ols.correlate_valid(tiny), PreconditionError);
}

}  // namespace
}  // namespace hyperear::dsp
