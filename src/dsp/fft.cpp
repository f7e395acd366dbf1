#include "dsp/fft.hpp"

#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {

namespace {

/// Quarter length of the first radix-4 stage: 2 when log2 N is odd (a
/// leading radix-2 pass consumes the extra stage), else 1.
std::size_t first_quarter(std::size_t n) { return std::countr_zero(n) % 2 == 1 ? 2 : 1; }

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  HE_EXPECTS(n >= 1 && is_pow2(n));
  require(is_pow2(n), "FftPlan: size must be a power of two");
  require(n - 1 <= UINT32_MAX, "FftPlan: size exceeds the 32-bit index range");
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      swaps_.push_back(static_cast<std::uint32_t>(i));
      swaps_.push_back(static_cast<std::uint32_t>(j));
    }
  }
  std::size_t count = 0;
  for (std::size_t q = first_quarter(n); 4 * q <= n; q *= 4) count += 3 * q;
  twiddle_re_.reserve(count);  // NOLINT(hyperear-hotpath) -- plan construction, once per plan
  twiddle_im_.reserve(count);  // NOLINT(hyperear-hotpath) -- plan construction, once per plan
  for (std::size_t q = first_quarter(n); 4 * q <= n; q *= 4) {
    const double step = -2.0 * kPi / static_cast<double>(4 * q);
    for (std::size_t power = 1; power <= 3; ++power) {
      for (std::size_t k = 0; k < q; ++k) {
        const double angle = step * static_cast<double>(power * k);
        twiddle_re_.push_back(std::cos(angle));
        twiddle_im_.push_back(std::sin(angle));
      }
    }
  }
  // run() walks the table stage by stage; a count mismatch here means it
  // would read out of bounds.
  HE_ENSURES(twiddle_re_.size() == count && twiddle_im_.size() == count);
}

void FftPlan::forward(std::vector<Complex>& x) const { run<false>(x); }

void FftPlan::inverse(std::vector<Complex>& x) const { run<true>(x); }

template <bool Inverse>
void FftPlan::run(std::vector<Complex>& x) const {
  require(x.size() == n_, "FftPlan: input size does not match the plan");
  const std::size_t n = n_;
  for (std::size_t s = 0; s < swaps_.size(); s += 2) std::swap(x[swaps_[s]], x[swaps_[s + 1]]);

  // std::complex<double> is layout-compatible with double[2], so the
  // butterflies address the buffer as interleaved re/im doubles and never
  // go through std::complex multiplication (and its NaN-recovery path).
  double* d = reinterpret_cast<double*>(x.data());
  std::size_t q = first_quarter(n);
  if (q == 2) {
    for (std::size_t i = 0; i < 2 * n; i += 4) {
      const double ar = d[i], ai = d[i + 1], br = d[i + 2], bi = d[i + 3];
      d[i] = ar + br;
      d[i + 1] = ai + bi;
      d[i + 2] = ar - br;
      d[i + 3] = ai - bi;
    }
  }
  const double* wr = twiddle_re_.data();
  const double* wi = twiddle_im_.data();
  // Each radix-4 stage merges four adjacent length-q transforms into one of
  // length 4q. After the bit-reversal permutation the quarters at offsets
  // 0, q, 2q, 3q hold the residues 0, 2, 1, 3 (mod 4) of the merged
  // sequence, hence the twiddle powers 0, 2, 1, 3 applied to them below.
  for (; 4 * q <= n; q *= 4) {
    const double* w1r = wr;
    const double* w2r = wr + q;
    const double* w3r = wr + 2 * q;
    const double* w1i = wi;
    const double* w2i = wi + q;
    const double* w3i = wi + 2 * q;
    for (std::size_t base = 0; base < n; base += 4 * q) {
      double* p0 = d + 2 * base;
      double* p1 = p0 + 2 * q;
      double* p2 = p1 + 2 * q;
      double* p3 = p2 + 2 * q;
      for (std::size_t k = 0; k < q; ++k) {
        const std::size_t re = 2 * k;
        const std::size_t im = re + 1;
        // The inverse transform uses the conjugate twiddles.
        const double t1i = Inverse ? -w1i[k] : w1i[k];
        const double t2i = Inverse ? -w2i[k] : w2i[k];
        const double t3i = Inverse ? -w3i[k] : w3i[k];
        const double ar = p0[re];
        const double ai = p0[im];
        const double br = p1[re] * w2r[k] - p1[im] * t2i;
        const double bi = p1[re] * t2i + p1[im] * w2r[k];
        const double cr = p2[re] * w1r[k] - p2[im] * t1i;
        const double ci = p2[re] * t1i + p2[im] * w1r[k];
        const double dr = p3[re] * w3r[k] - p3[im] * t3i;
        const double di = p3[re] * t3i + p3[im] * w3r[k];
        const double sum_ab_r = ar + br;
        const double sum_ab_i = ai + bi;
        const double dif_ab_r = ar - br;
        const double dif_ab_i = ai - bi;
        const double sum_cd_r = cr + dr;
        const double sum_cd_i = ci + di;
        const double dif_cd_r = cr - dr;
        const double dif_cd_i = ci - di;
        p0[re] = sum_ab_r + sum_cd_r;
        p0[im] = sum_ab_i + sum_cd_i;
        p2[re] = sum_ab_r - sum_cd_r;
        p2[im] = sum_ab_i - sum_cd_i;
        // Outputs q and 3q rotate (C - D) by the fourth root of unity:
        // -i forward, +i inverse.
        if constexpr (Inverse) {
          p1[re] = dif_ab_r - dif_cd_i;
          p1[im] = dif_ab_i + dif_cd_r;
          p3[re] = dif_ab_r + dif_cd_i;
          p3[im] = dif_ab_i - dif_cd_r;
        } else {
          p1[re] = dif_ab_r + dif_cd_i;
          p1[im] = dif_ab_i - dif_cd_r;
          p3[re] = dif_ab_r - dif_cd_i;
          p3[im] = dif_ab_i + dif_cd_r;
        }
      }
    }
    wr += 3 * q;
    wi += 3 * q;
  }
  if constexpr (Inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= inv_n;
  }
}

// NOLINTNEXTLINE(hyperear-hotpath) -- planless convenience: builds a transient plan per call
void fft_inplace(std::vector<Complex>& x) { FftPlan(x.size()).forward(x); }

// NOLINTNEXTLINE(hyperear-hotpath) -- planless convenience: builds a transient plan per call
void ifft_inplace(std::vector<Complex>& x) { FftPlan(x.size()).inverse(x); }

std::vector<Complex>& Workspace::complex_scratch(std::size_t slot, std::size_t size) {
  require(slot < kSlots, "Workspace: complex slot out of range");
  complex_[slot].resize(size);
  return complex_[slot];
}

std::vector<double>& Workspace::real_scratch(std::size_t slot, std::size_t size) {
  require(slot < kSlots, "Workspace: real slot out of range");
  real_[slot].resize(size);
  return real_[slot];
}

void fft_real_into(std::span<const double> x, std::size_t min_size,
                   std::vector<Complex>& out, const FftPlan* plan) {
  require(!x.empty(), "fft_real: empty input");
  const std::size_t target = next_pow2(std::max(x.size(), min_size));
  out.resize(target);
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = Complex(x[i], 0.0);
  for (std::size_t i = x.size(); i < target; ++i) out[i] = Complex(0.0, 0.0);
  if (plan != nullptr && plan->size() == target) {
    plan->forward(out);
  } else {
    fft_inplace(out);
  }
}

void ifft_to_real_into(std::vector<Complex>& spectrum, std::vector<double>& out,
                       const FftPlan* plan) {
  if (plan != nullptr && plan->size() == spectrum.size()) {
    plan->inverse(spectrum);
  } else {
    ifft_inplace(spectrum);
  }
  out.resize(spectrum.size());
  for (std::size_t i = 0; i < spectrum.size(); ++i) out[i] = spectrum[i].real();
}

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrappers and the monolithic reference path: return owning containers
std::vector<Complex> fft_real(std::span<const double> x, std::size_t min_size) {
  std::vector<Complex> buf;
  fft_real_into(x, min_size, buf);
  return buf;
}

std::vector<double> ifft_to_real(std::vector<Complex> spectrum) {
  std::vector<double> out;
  ifft_to_real_into(spectrum, out);
  return out;
}

namespace {

std::vector<double> fft_convolve_with(std::span<const double> a,
                                      std::span<const double> b,
                                      std::vector<Complex>& fa,
                                      std::vector<Complex>& fb) {
  require(!a.empty() && !b.empty(), "fft_convolve: empty input");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  const FftPlan plan(n);
  fft_real_into(a, n, fa, &plan);
  fft_real_into(b, n, fb, &plan);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  std::vector<double> full;
  ifft_to_real_into(fa, full, &plan);
  full.resize(out_len);
  return full;
}

}  // namespace

std::vector<double> fft_convolve(std::span<const double> a, std::span<const double> b) {
  std::vector<Complex> fa, fb;
  return fft_convolve_with(a, b, fa, fb);
}

std::vector<double> fft_convolve(std::span<const double> a, std::span<const double> b,
                                 Workspace& ws) {
  const std::size_t n = next_pow2(a.size() + b.size() - 1);
  return fft_convolve_with(a, b, ws.complex_scratch(0, n), ws.complex_scratch(1, n));
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

}  // namespace hyperear::dsp
