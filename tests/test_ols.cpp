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

/// The whole convolution through `convolve_into`'s full window.
std::vector<double> full_conv(const OlsConvolver& ols, std::span<const double> x,
                              Workspace& ws) {
  std::vector<double> out(x.size() + ols.kernel_size() - 1);
  ols.convolve_into(x, 0, out.size(), out.data(), ws);
  return out;
}

std::vector<double> full_conv(const OlsConvolver& ols, std::span<const double> x) {
  Workspace ws;
  return full_conv(ols, x, ws);
}

/// Valid-mode correlation against the template whose reversal is the
/// convolver's kernel: lag k is full-convolution sample k + kernel - 1.
std::vector<double> valid_corr(const OlsConvolver& reversed, std::span<const double> x) {
  Workspace ws;
  std::vector<double> out(x.size() - reversed.kernel_size() + 1);
  reversed.convolve_into(x, reversed.kernel_size() - 1, out.size(), out.data(), ws);
  return out;
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
    // (and hence on the output bits).
    EXPECT_EQ(n, choose_ols_fft_size(m)) << "m=" << m;
  }
  // The paper's band-pass kernel: 255 taps -> 2048-point blocks (the
  // n*log2(n)/(n-m+1) minimum). A change here silently changes the bits of
  // every filter built without an explicit size, so pin it.
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
  EXPECT_LT(max_abs_diff(valid_corr(small, x), valid_corr(large, x)), kTol);
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
    const std::vector<double> got = full_conv(ols, x);
    const std::vector<double> want = direct_full_conv(x, k);
    EXPECT_LT(max_abs_diff(got, want), kTol) << "n=" << n << " m=" << m;
  }
}

TEST(OlsConvolver, NonPowerOfTwoBoundaryLengths) {
  Rng rng(7);
  // Signal lengths straddling block boundaries for the smallest block the
  // convolver will pick (m=255 -> N=2048 -> L=1794), a prime-ish length,
  // and a long signal of ten pairs.
  const std::size_t m = 255;
  std::vector<double> k = rng.gaussian_vector(m);
  const OlsConvolver ols(k);
  const std::size_t block = ols.block_size();
  for (std::size_t n : {m, m + 1, block - 1, block, block + 1, 2 * block - 1,
                        2 * block, 2 * block + 1, 4099ul, 1ul << 14}) {
    std::vector<double> x = rng.gaussian_vector(n);
    EXPECT_LT(max_abs_diff(full_conv(ols, x), direct_full_conv(x, k)), kTol)
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
  EXPECT_LT(max_abs_diff(full_conv(ols, x), direct_full_conv(x, k)), kTol);
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
  EXPECT_LT(max_abs_diff(full_conv(ols, x), direct_full_conv(x, k)), kTol);
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
      EXPECT_LT(max_abs_diff(full_conv(ols, x), direct_full_conv(x, k)), kTol)
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
  const std::vector<double> full = full_conv(ols, x);
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
  // whole-signal correlation bit for bit, and it matches the direct sum
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
      std::vector<double> direct;
      correlate_valid_direct_into(x, h, direct);
      EXPECT_LT(max_abs_diff(whole, direct), kTol) << "m=" << m;
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
  // Block streaming against one transform over the whole signal: a
  // convolver whose fft_size covers the full convolution runs a single
  // block, which is the monolithic FFT convolution.
  Rng rng(19);
  std::vector<double> k = rng.gaussian_vector(255);
  std::vector<double> x = rng.gaussian_vector(1u << 14);
  const OlsConvolver ols(k);
  const OlsConvolver monolithic(k, next_pow2(x.size() + k.size() - 1));
  ASSERT_GE(monolithic.block_size(), x.size() + k.size() - 1);
  EXPECT_LT(max_abs_diff(full_conv(ols, x), full_conv(monolithic, x)), kTol);
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
    const std::vector<double> reused = full_conv(ols, x, shared);
    const std::vector<double> fresh = full_conv(ols, x);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused[i], fresh[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(OlsWorkspace, WarmedDirtyWorkspaceMatchesFresh) {
  // A workspace warmed by a larger convolver and then filled with NaN must
  // not leak into either spelling: every lane element is written before it
  // is read.
  Rng rng(47);
  const std::vector<double> k = rng.gaussian_vector(255);
  const OlsConvolver ols(k);
  const OlsConvolver larger(rng.gaussian_vector(2205));
  const std::vector<double> x = rng.gaussian_vector(9000);
  Workspace dirty;
  (void)full_conv(larger, x, dirty);
  const auto poison = [&dirty] {
    for (std::size_t slot = 0; slot < Workspace::kSlots; ++slot) {
      std::vector<double>& lane = dirty.real_scratch(slot, 1u << 15);
      std::fill(lane.begin(), lane.end(), std::nan(""));
    }
  };
  poison();
  const std::vector<double> fresh = full_conv(ols, x);
  const std::vector<double> reused = full_conv(ols, x, dirty);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused[i], fresh[i]) << "i=" << i;
  }
  // The pair-grid spelling the matched filter runs.
  poison();
  const std::size_t lags = x.size() - ols.kernel_size() + 1;
  std::vector<double> pairs_fresh(lags);
  std::vector<double> pairs_dirty(lags);
  Workspace fresh_ws;
  ols.correlate_pairs_into(x, 0, pairs_fresh.data(), fresh_ws);
  ols.correlate_pairs_into(x, 0, pairs_dirty.data(), dirty);
  for (std::size_t i = 0; i < lags; ++i) {
    EXPECT_EQ(pairs_dirty[i], pairs_fresh[i]) << "i=" << i;
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
  std::vector<double> filtered;
  EXPECT_THROW(filter_same_into(x, ols, filtered, ws), PreconditionError);
}

}  // namespace
}  // namespace hyperear::dsp
