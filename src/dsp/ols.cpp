#include "dsp/ols.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"

namespace hyperear::dsp {

namespace {

/// Smallest transform size either block rule considers. The 256 floor
/// keeps tiny kernels from picking blocks where per-block overhead
/// (pointwise multiply, load/store) would dominate the transform.
std::size_t min_ols_fft_size(std::size_t kernel_len) {
  return std::max<std::size_t>(256, next_pow2(kernel_len) * 2);
}

/// The pair model of overlap-save work on a window of `window_len` signal
/// samples: ceil(blocks / 2) transform pairs of N log2(N) butterflies
/// each, blocks = ceil(window_len / (N - M + 1)). A block straddling the
/// window's end is paid in full.
double ols_pair_cost(std::size_t kernel_len, std::size_t window_len,
                     std::size_t fft_size) {
  const std::size_t block = fft_size - kernel_len + 1;
  const std::size_t pairs = ((window_len + block - 1) / block + 1) / 2;
  const auto n = static_cast<double>(fft_size);
  return static_cast<double>(pairs) * n * std::log2(n);
}

}  // namespace

std::size_t choose_ols_fft_size(std::size_t kernel_len) {
  require(kernel_len >= 1, "choose_ols_fft_size: empty kernel");
  // Amortized butterfly work per fresh output sample is N log2(N) / L with
  // L = N - M + 1; the curve is convex in log N, so scanning a bounded
  // power-of-two window above the kernel length finds the minimum.
  const std::size_t lo = min_ols_fft_size(kernel_len);
  std::size_t best = lo;
  double best_cost = 0.0;
  for (std::size_t n = lo; n <= (lo << 6); n <<= 1) {
    const double fresh = static_cast<double>(n - kernel_len + 1);
    const double cost = static_cast<double>(n) * std::log2(static_cast<double>(n)) / fresh;
    if (n == lo || cost < best_cost) {
      best = n;
      best_cost = cost;
    }
  }
  return best;
}

std::size_t choose_ols_fft_size(std::size_t kernel_len, std::size_t window_len) {
  require(kernel_len >= 1, "choose_ols_fft_size: empty kernel");
  // Same candidate sizes as the one-argument rule, costed for a window of
  // known length.
  const std::size_t lo = min_ols_fft_size(kernel_len);
  double min_cost = ols_pair_cost(kernel_len, window_len, lo);
  for (std::size_t n = lo << 1; n <= (lo << 6); n <<= 1) {
    min_cost = std::min(min_cost, ols_pair_cost(kernel_len, window_len, n));
  }
  // Sizes within 1/16 of the minimum are ties, and the smallest wins: the
  // butterfly count ignores memory traffic, which grows with the
  // transform, and a smaller block wastes less on a short final window.
  // The tie band never reaches above the one-argument choice's cost.
  const double cap =
      std::min(min_cost * (1.0 + 1.0 / 16.0),
               ols_pair_cost(kernel_len, window_len, choose_ols_fft_size(kernel_len)));
  std::size_t n = lo;
  while (ols_pair_cost(kernel_len, window_len, n) > cap) n <<= 1;
  return n;
}

// NOLINTNEXTLINE(hyperear-hotpath) -- one-time plan construction: the convolver takes ownership of its kernel
OlsConvolver::OlsConvolver(std::vector<double> kernel, std::size_t fft_size)
    : kernel_(std::move(kernel)),
      plan_(fft_size == 0 ? choose_ols_fft_size(kernel_.empty() ? 1 : kernel_.size())
                          : fft_size),
      spectrum_re_(plan_.size(), 0.0),
      spectrum_im_(plan_.size(), 0.0) {
  HE_EXPECTS(!kernel_.empty());
  HE_ASSERT_FINITE(kernel_);
  require(!kernel_.empty(), "OlsConvolver: empty kernel");
  require(is_pow2(plan_.size()) && plan_.size() >= kernel_.size(),
          "OlsConvolver: fft_size must be a power of two >= the kernel length");
  std::copy(kernel_.begin(), kernel_.end(), spectrum_re_.begin());
  plan_.forward_to_bitrev(spectrum_re_, spectrum_im_);
  // The inverse transform is unnormalized. 1/N is a power of two, so
  // folding it into the kernel spectrum changes no rounding (barring
  // underflow): each pair comes out exactly as a normalized inverse of the
  // unscaled product would.
  const double inv_n = 1.0 / static_cast<double>(plan_.size());
  for (double& v : spectrum_re_) v *= inv_n;
  for (double& v : spectrum_im_) v *= inv_n;
  // The overlap-save identity needs at least one alias-free sample per
  // block; plan >= kernel guarantees it, restated here in the algorithm's
  // own terms so a future block-sizing change can't silently break it.
  HE_ENSURES(block_size() >= 1);
}

OlsConvolver::PairLanes OlsConvolver::pair_lanes(Workspace& ws) const {
  const std::size_t n = plan_.size();
  return {ws.real_scratch(0, n), ws.real_scratch(1, n)};
}

void OlsConvolver::transform_pair(std::span<const double> x, std::ptrdiff_t x_start,
                                  std::ptrdiff_t base, bool paired, PairLanes z) const {
  const std::size_t n = plan_.size();
  const std::size_t block = block_size();

  // The circular convolution of an fft_size-sample input window with the
  // kernel is alias-free in its last `block` samples — the overlap-save
  // identity. Convolution block b reads window [b*block - (m-1), b*block +
  // block) for full-convolution samples [b*block, b*block + block);
  // correlation block b reads [b*block, b*block + n) for lags [b*block,
  // b*block + block). Outside the signal the window reads zeros.
  // Consecutive blocks share one transform pair via the real-input fast
  // path: with real blocks a, b and kernel spectrum K,
  //   IFFT(FFT(a + i*b) . K) = (a*k) + i*(b*k)
  // by linearity, both parts real — so the re lane carries block b's
  // result and the im lane block b+1's, halving the FFT count.
  //
  // Each lane is filled as zeros | window samples | zeros, the runs
  // clipped once per lane; a pair inside `x` is two plain copies.
  const std::ptrdiff_t x_end = x_start + static_cast<std::ptrdiff_t>(x.size());
  const auto fill_lane = [&](std::span<double> lane, std::ptrdiff_t from) {
    const auto clip = [n](std::ptrdiff_t v) {
      return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
          v, 0, static_cast<std::ptrdiff_t>(n)));
    };
    // Lane position j reads signal index from + j, i.e. x[from + j - x_start].
    const std::size_t lo = clip(x_start - from);
    const std::size_t hi = std::max(lo, clip(x_end - from));
    double* d = lane.data();
    std::fill(d, d + lo, 0.0);
    if (lo < hi) {
      const double* src = x.data() + (from + static_cast<std::ptrdiff_t>(lo) - x_start);
      std::copy(src, src + (hi - lo), d + lo);
    }
    std::fill(d + hi, d + n, 0.0);
  };
  fill_lane(z.re, base);
  if (paired) {
    fill_lane(z.im, base + static_cast<std::ptrdiff_t>(block));
  } else {
    std::fill(z.im.begin(), z.im.end(), 0.0);
  }
  convolve_lanes(z);
}

void OlsConvolver::convolve_lanes(PairLanes z) const {
  // Forward leaves the spectrum bit-reversed, the kernel spectrum is stored
  // in the same order, and the inverse takes bit-reversed input: no
  // permutation anywhere.
  plan_.forward_to_bitrev(z.re, z.im);
  multiply_spectra(z.re, z.im, spectrum_re_, spectrum_im_);
  plan_.inverse_from_bitrev(z.re, z.im);
}

void OlsConvolver::copy_pair_halves(PairLanes z, std::size_t b, bool paired,
                                    std::size_t offset, std::size_t count,
                                    std::size_t full_len, double* out) const {
  const std::size_t m = kernel_.size();
  const std::size_t block = block_size();
  for (std::size_t half = 0; half < (paired ? 2u : 1u); ++half) {
    const std::size_t start = (b + half) * block;
    const std::size_t lo = std::max(start, offset);
    const std::size_t hi = std::min({start + block, offset + count, full_len});
    if (lo >= hi) continue;
    const double* lane = (half == 0 ? z.re : z.im).data() + (m - 1);
    std::copy(lane + (lo - start), lane + (hi - start), out + (lo - offset));
  }
}

void OlsConvolver::convolve_into(std::span<const double> x, std::size_t offset,
                                 std::size_t count, double* out, Workspace& ws) const {
  require(!x.empty(), "OlsConvolver: empty signal");
  const std::size_t m = kernel_.size();
  const std::size_t block = block_size();
  const std::size_t full_len = x.size() + m - 1;
  require(offset <= full_len && count <= full_len - offset,
          "OlsConvolver: output window exceeds the full convolution");
  if (count == 0) return;

  // Pairing is anchored to the FULL convolution, not to the requested
  // window: block 2k always shares its transform with block 2k+1 (when the
  // latter exists at all). A window therefore computes exactly the block
  // arithmetic the full convolution would, so any window of the output is
  // bit-identical to the same slice of a whole-signal call — at the cost
  // of at most one redundant block at each end of the window.
  const std::size_t total_blocks = (full_len + block - 1) / block;
  const std::size_t first_block = (offset / block) & ~std::size_t{1};
  const std::size_t last_block = (offset + count - 1) / block;
  // Block invariants behind the window-vs-full bit-identity guarantee:
  // pairing is anchored to even block indices of the FULL convolution, and
  // the requested window must sit inside it.
  HE_EXPECTS(first_block % 2 == 0);
  HE_EXPECTS(last_block < total_blocks);
  const PairLanes z = pair_lanes(ws);
  for (std::size_t b = first_block; b <= last_block; b += 2) {
    const bool paired = b + 1 < total_blocks;
    transform_pair(x, 0, convolution_base(b), paired, z);
    copy_pair_halves(z, b, paired, offset, count, full_len, out);
  }
}

void OlsConvolver::correlate_pairs_into(std::span<const double> x, std::size_t x_start,
                                        double* out, Workspace& ws) const {
  const std::size_t m = kernel_.size();
  const std::size_t block = block_size();
  require(x.size() >= m, "OlsConvolver::correlate_pairs_into: window shorter than kernel");
  require(x_start % (2 * block) == 0,
          "OlsConvolver::correlate_pairs_into: window must start on a pair");
  const std::size_t lags = x.size() - m + 1;
  // Pairing needs only the blocks up to the window's last lag: a window
  // spanning whole pairs pairs every block, and a window ending the signal
  // sees the signal's own last block.
  const std::size_t end = x_start + lags;
  const std::size_t total_blocks = (end + block - 1) / block;
  const PairLanes z = pair_lanes(ws);
  for (std::size_t b = x_start / block; b < total_blocks; b += 2) {
    const bool paired = b + 1 < total_blocks;
    transform_pair(x, static_cast<std::ptrdiff_t>(x_start),
                   static_cast<std::ptrdiff_t>(b * block), paired, z);
    copy_pair_halves(z, b, paired, x_start, lags, end, out);
  }
}

OlsConvolver::LagPair OlsConvolver::correlate_two(std::span<const double> a,
                                                  std::span<const double> b,
                                                  Workspace& ws) const {
  const std::size_t m = kernel_.size();
  const std::size_t n = plan_.size();
  require(a.size() == b.size() && a.size() >= m && a.size() <= n,
          "OlsConvolver::correlate_two: windows must have equal lengths in "
          "[kernel_size, fft_size]");
  // The real-input pair identity with two signals instead of two blocks of
  // one: a rides the re lane and b the im lane, zero-padded to the
  // transform. A window of at most fft_size samples convolved circularly
  // is alias-free from lane position m - 1 on, which is valid lag 0.
  const PairLanes z = pair_lanes(ws);
  std::copy(a.begin(), a.end(), z.re.begin());
  std::fill(z.re.begin() + static_cast<std::ptrdiff_t>(a.size()), z.re.end(), 0.0);
  std::copy(b.begin(), b.end(), z.im.begin());
  std::fill(z.im.begin() + static_cast<std::ptrdiff_t>(b.size()), z.im.end(), 0.0);
  convolve_lanes(z);
  const std::size_t lags = a.size() - m + 1;
  return {std::span<const double>(z.re).subspan(m - 1, lags),
          std::span<const double>(z.im).subspan(m - 1, lags)};
}

}  // namespace hyperear::dsp
