#include "dsp/fft.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {

namespace {

/// Quarter length of the smallest radix-4 stage: 2 when log2 N is odd (a
/// radix-2 pass takes the extra stage), else 1.
std::size_t first_quarter(std::size_t n) { return std::countr_zero(n) % 2 == 1 ? 2 : 1; }

/// Two doubles in one 16-byte vector (GCC/Clang vector extension; the
/// arithmetic operators act lane-wise). That is SSE2 on the x86-64
/// baseline and NEON on aarch64, so no -march flag or runtime dispatch is
/// involved.
using V2 = double __attribute__((vector_size(16)));

/// Elements per step of a loop over lane type T (double or V2).
template <class T>
inline constexpr std::size_t kLanes = sizeof(T) / sizeof(double);

/// Loads kLanes<T> consecutive elements of an array whose element i sits at
/// p[i * Stride]. The contiguous vector load goes through memcpy: one
/// unaligned load, and no type-punning.
template <class T, std::size_t Stride>
T load(const double* p) {
  if constexpr (std::is_same_v<T, double>) {
    return *p;
  } else if constexpr (Stride == 1) {
    T v{};
    std::memcpy(&v, p, sizeof v);
    return v;
  } else {
    return T{p[0], p[Stride]};
  }
}

/// The matching store of `load`.
template <class T, std::size_t Stride>
void store(double* p, T v) {
  if constexpr (std::is_same_v<T, double>) {
    *p = v;
  } else if constexpr (Stride == 1) {
    std::memcpy(p, &v, sizeof v);
  } else {
    p[0] = v[0];
    p[Stride] = v[1];
  }
}

/// One radix-4 decimation-in-frequency stage of quarter length q: the
/// transpose of `dit_stage`. Each group of 4q points splits into four
/// length-q sequences that hold the output residues 0, 2, 1, 3 (mod 4) at
/// offsets 0, q, 2q, 3q, rotated by the twiddle powers 0, 2, 1, 3. `wr`/`wi`
/// point at the stage's W^k, W^2k, W^3k runs (W = e^{-2*pi*i/4q}).
template <class T, std::size_t S>
void dif_stage(double* re, double* im, std::size_t n, std::size_t q, const double* wr,
               const double* wi) {
  for (std::size_t base = 0; base < n; base += 4 * q) {
    double* r0 = re + base * S;
    double* i0 = im + base * S;
    double* r1 = r0 + q * S;
    double* i1 = i0 + q * S;
    double* r2 = r1 + q * S;
    double* i2 = i1 + q * S;
    double* r3 = r2 + q * S;
    double* i3 = i2 + q * S;
    for (std::size_t k = 0; k < q; k += kLanes<T>) {
      const std::size_t o = k * S;
      const T x0r = load<T, S>(r0 + o);
      const T x0i = load<T, S>(i0 + o);
      const T x1r = load<T, S>(r1 + o);
      const T x1i = load<T, S>(i1 + o);
      const T x2r = load<T, S>(r2 + o);
      const T x2i = load<T, S>(i2 + o);
      const T x3r = load<T, S>(r3 + o);
      const T x3i = load<T, S>(i3 + o);
      const T w1r = load<T, 1>(wr + k);
      const T w1i = load<T, 1>(wi + k);
      const T w2r = load<T, 1>(wr + q + k);
      const T w2i = load<T, 1>(wi + q + k);
      const T w3r = load<T, 1>(wr + 2 * q + k);
      const T w3i = load<T, 1>(wi + 2 * q + k);
      const T a0r = x0r + x2r;
      const T a0i = x0i + x2i;
      const T a1r = x0r - x2r;
      const T a1i = x0i - x2i;
      const T b0r = x1r + x3r;
      const T b0i = x1i + x3i;
      const T b1r = x1r - x3r;
      const T b1i = x1i - x3i;
      // Residue 2: (a0 - b0) * W^2k. Residues 1 and 3: a1 -/+ i*b1, the
      // fourth root of unity -i applied to b1, rotated by W^k and W^3k.
      const T t2r = a0r - b0r;
      const T t2i = a0i - b0i;
      const T t1r = a1r + b1i;
      const T t1i = a1i - b1r;
      const T t3r = a1r - b1i;
      const T t3i = a1i + b1r;
      store<T, S>(r0 + o, a0r + b0r);
      store<T, S>(i0 + o, a0i + b0i);
      store<T, S>(r1 + o, t2r * w2r - t2i * w2i);
      store<T, S>(i1 + o, t2r * w2i + t2i * w2r);
      store<T, S>(r2 + o, t1r * w1r - t1i * w1i);
      store<T, S>(i2 + o, t1r * w1i + t1i * w1r);
      store<T, S>(r3 + o, t3r * w3r - t3i * w3i);
      store<T, S>(i3 + o, t3r * w3i + t3i * w3r);
    }
  }
}

/// One radix-4 decimation-in-time stage of quarter length q, with the
/// conjugate twiddles (the inverse transform). It merges four adjacent
/// length-q transforms into one of length 4q. With bit-reversed input the
/// quarters at offsets 0, q, 2q, 3q hold the residues 0, 2, 1, 3 (mod 4)
/// of the merged sequence, hence the twiddle powers 0, 2, 1, 3.
template <class T, std::size_t S>
void dit_stage(double* re, double* im, std::size_t n, std::size_t q, const double* wr,
               const double* wi) {
  for (std::size_t base = 0; base < n; base += 4 * q) {
    double* r0 = re + base * S;
    double* i0 = im + base * S;
    double* r1 = r0 + q * S;
    double* i1 = i0 + q * S;
    double* r2 = r1 + q * S;
    double* i2 = i1 + q * S;
    double* r3 = r2 + q * S;
    double* i3 = i2 + q * S;
    for (std::size_t k = 0; k < q; k += kLanes<T>) {
      const std::size_t o = k * S;
      const T x1r = load<T, S>(r1 + o);
      const T x1i = load<T, S>(i1 + o);
      const T x2r = load<T, S>(r2 + o);
      const T x2i = load<T, S>(i2 + o);
      const T x3r = load<T, S>(r3 + o);
      const T x3i = load<T, S>(i3 + o);
      const T w1r = load<T, 1>(wr + k);
      const T w1i = load<T, 1>(wi + k);
      const T w2r = load<T, 1>(wr + q + k);
      const T w2i = load<T, 1>(wi + q + k);
      const T w3r = load<T, 1>(wr + 2 * q + k);
      const T w3i = load<T, 1>(wi + 2 * q + k);
      const T ar = load<T, S>(r0 + o);
      const T ai = load<T, S>(i0 + o);
      // x * conj(w) = (xr*wr + xi*wi) + i*(xi*wr - xr*wi).
      const T br = x1r * w2r + x1i * w2i;
      const T bi = x1i * w2r - x1r * w2i;
      const T cr = x2r * w1r + x2i * w1i;
      const T ci = x2i * w1r - x2r * w1i;
      const T dr = x3r * w3r + x3i * w3i;
      const T di = x3i * w3r - x3r * w3i;
      const T sum_ab_r = ar + br;
      const T sum_ab_i = ai + bi;
      const T dif_ab_r = ar - br;
      const T dif_ab_i = ai - bi;
      const T sum_cd_r = cr + dr;
      const T sum_cd_i = ci + di;
      const T dif_cd_r = cr - dr;
      const T dif_cd_i = ci - di;
      store<T, S>(r0 + o, sum_ab_r + sum_cd_r);
      store<T, S>(i0 + o, sum_ab_i + sum_cd_i);
      store<T, S>(r2 + o, sum_ab_r - sum_cd_r);
      store<T, S>(i2 + o, sum_ab_i - sum_cd_i);
      // Outputs q and 3q rotate (C - D) by the inverse fourth root +i.
      store<T, S>(r1 + o, dif_ab_r - dif_cd_i);
      store<T, S>(i1 + o, dif_ab_i + dif_cd_r);
      store<T, S>(r3 + o, dif_ab_r + dif_cd_i);
      store<T, S>(i3 + o, dif_ab_i - dif_cd_r);
    }
  }
}

/// The radix-2 pass over adjacent pairs (a, b) -> (a + b, a - b): its own
/// transpose, so the forward transform runs it last and the inverse first.
template <std::size_t S>
void radix2_pass(double* re, double* im, std::size_t n) {
  for (std::size_t j = 0; j < n; j += 2) {
    const double ar = re[j * S];
    const double br = re[(j + 1) * S];
    const double ai = im[j * S];
    const double bi = im[(j + 1) * S];
    re[j * S] = ar + br;
    re[(j + 1) * S] = ar - br;
    im[j * S] = ai + bi;
    im[(j + 1) * S] = ai - bi;
  }
}

/// z *= k on kLanes<T> bins at the given pointers.
template <class T>
void multiply_lanes(double* zr, double* zi, const double* kr, const double* ki) {
  const T ar = load<T, 1>(zr);
  const T ai = load<T, 1>(zi);
  const T br = load<T, 1>(kr);
  const T bi = load<T, 1>(ki);
  store<T, 1>(zr, ar * br - ai * bi);
  store<T, 1>(zi, ar * bi + ai * br);
}

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
  // dif() and dit() walk the table stage by stage; a count mismatch here
  // means they would read out of bounds.
  HE_ENSURES(twiddle_re_.size() == count && twiddle_im_.size() == count);
}

template <std::size_t Stride>
void FftPlan::dif(double* re, double* im) const {
  // Radix-4 stages from the largest quarter (n/4) down, walking the
  // twiddle table from its end; quarters of 2 or more run two lanes per
  // step. A quarter of 1 (even log2 N) runs one.
  const std::size_t smallest = first_quarter(n_);
  std::size_t offset = twiddle_re_.size();
  for (std::size_t q = n_ / 4; q >= smallest; q /= 4) {
    offset -= 3 * q;
    const double* wr = twiddle_re_.data() + offset;
    const double* wi = twiddle_im_.data() + offset;
    if (q == 1) {
      dif_stage<double, Stride>(re, im, n_, q, wr, wi);
    } else {
      dif_stage<V2, Stride>(re, im, n_, q, wr, wi);
    }
  }
  if (smallest == 2) radix2_pass<Stride>(re, im, n_);
}

template <std::size_t Stride>
void FftPlan::dit(double* re, double* im) const {
  const std::size_t smallest = first_quarter(n_);
  if (smallest == 2) radix2_pass<Stride>(re, im, n_);
  std::size_t offset = 0;
  for (std::size_t q = smallest; 4 * q <= n_; q *= 4) {
    const double* wr = twiddle_re_.data() + offset;
    const double* wi = twiddle_im_.data() + offset;
    if (q == 1) {
      dit_stage<double, Stride>(re, im, n_, q, wr, wi);
    } else {
      dit_stage<V2, Stride>(re, im, n_, q, wr, wi);
    }
    offset += 3 * q;
  }
}

void FftPlan::permute(std::vector<Complex>& x) const {
  for (std::size_t s = 0; s < swaps_.size(); s += 2) std::swap(x[swaps_[s]], x[swaps_[s + 1]]);
}

// std::complex<double> is layout-compatible with double[2], so the
// natural-order transforms run the butterflies over a stride-2 view of the
// interleaved buffer: re at d[2i], im at d[2i + 1].
void FftPlan::forward(std::vector<Complex>& x) const {
  require(x.size() == n_, "FftPlan: input size does not match the plan");
  double* d = reinterpret_cast<double*>(x.data());
  dif<2>(d, d + 1);
  permute(x);
}

void FftPlan::inverse(std::vector<Complex>& x) const {
  require(x.size() == n_, "FftPlan: input size does not match the plan");
  permute(x);
  double* d = reinterpret_cast<double*>(x.data());
  dit<2>(d, d + 1);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (std::size_t i = 0; i < 2 * n_; ++i) d[i] *= inv_n;
}

void FftPlan::forward_to_bitrev(std::span<double> re, std::span<double> im) const {
  require(re.size() == n_ && im.size() == n_, "FftPlan: input size does not match the plan");
  dif<1>(re.data(), im.data());
}

void FftPlan::inverse_from_bitrev(std::span<double> re, std::span<double> im) const {
  require(re.size() == n_ && im.size() == n_, "FftPlan: input size does not match the plan");
  dit<1>(re.data(), im.data());
}

void multiply_spectra(std::span<double> z_re, std::span<double> z_im,
                      std::span<const double> k_re, std::span<const double> k_im) {
  const std::size_t n = z_re.size();
  require(z_im.size() == n && k_re.size() == n && k_im.size() == n,
          "multiply_spectra: length mismatch");
  std::size_t j = 0;
  for (; j + kLanes<V2> <= n; j += kLanes<V2>) {
    multiply_lanes<V2>(z_re.data() + j, z_im.data() + j, k_re.data() + j, k_im.data() + j);
  }
  for (; j < n; ++j) {
    multiply_lanes<double>(z_re.data() + j, z_im.data() + j, k_re.data() + j,
                           k_im.data() + j);
  }
}

// NOLINTNEXTLINE(hyperear-hotpath) -- planless convenience: builds a transient plan per call
void fft_inplace(std::vector<Complex>& x) { FftPlan(x.size()).forward(x); }

// NOLINTNEXTLINE(hyperear-hotpath) -- planless convenience: builds a transient plan per call
void ifft_inplace(std::vector<Complex>& x) { FftPlan(x.size()).inverse(x); }

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

std::vector<double> fft_convolve(std::span<const double> a, std::span<const double> b) {
  require(!a.empty() && !b.empty(), "fft_convolve: empty input");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out_len);
  const FftPlan plan(n);
  std::vector<Complex> fa;
  std::vector<Complex> fb;
  fft_real_into(a, n, fa, &plan);
  fft_real_into(b, n, fb, &plan);
  for (std::size_t i = 0; i < n; ++i) fa[i] *= fb[i];
  std::vector<double> full;
  ifft_to_real_into(fa, full, &plan);
  full.resize(out_len);
  return full;
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrappers

}  // namespace hyperear::dsp
