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

/// Loads kLanes<T> consecutive elements. The vector load goes through
/// memcpy: one unaligned load, and no type-punning.
template <class T>
T load(const double* p) {
  if constexpr (std::is_same_v<T, double>) {
    return *p;
  } else {
    T v{};
    std::memcpy(&v, p, sizeof v);
    return v;
  }
}

/// The matching store of `load`.
template <class T>
void store(double* p, T v) {
  if constexpr (std::is_same_v<T, double>) {
    *p = v;
  } else {
    std::memcpy(p, &v, sizeof v);
  }
}

/// One radix-4 decimation-in-frequency stage of quarter length q: the
/// transpose of `dit_stage`. Each group of 4q points splits into four
/// length-q sequences that hold the output residues 0, 2, 1, 3 (mod 4) at
/// offsets 0, q, 2q, 3q, rotated by the twiddle powers 0, 2, 1, 3. `wr`/`wi`
/// point at the stage's W^k, W^2k, W^3k runs (W = e^{-2*pi*i/4q}).
template <class T>
void dif_stage(double* re, double* im, std::size_t n, std::size_t q, const double* wr,
               const double* wi) {
  for (std::size_t base = 0; base < n; base += 4 * q) {
    double* r0 = re + base;
    double* i0 = im + base;
    double* r1 = r0 + q;
    double* i1 = i0 + q;
    double* r2 = r1 + q;
    double* i2 = i1 + q;
    double* r3 = r2 + q;
    double* i3 = i2 + q;
    for (std::size_t k = 0; k < q; k += kLanes<T>) {
      const T x0r = load<T>(r0 + k);
      const T x0i = load<T>(i0 + k);
      const T x1r = load<T>(r1 + k);
      const T x1i = load<T>(i1 + k);
      const T x2r = load<T>(r2 + k);
      const T x2i = load<T>(i2 + k);
      const T x3r = load<T>(r3 + k);
      const T x3i = load<T>(i3 + k);
      const T w1r = load<T>(wr + k);
      const T w1i = load<T>(wi + k);
      const T w2r = load<T>(wr + q + k);
      const T w2i = load<T>(wi + q + k);
      const T w3r = load<T>(wr + 2 * q + k);
      const T w3i = load<T>(wi + 2 * q + k);
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
      store<T>(r0 + k, a0r + b0r);
      store<T>(i0 + k, a0i + b0i);
      store<T>(r1 + k, t2r * w2r - t2i * w2i);
      store<T>(i1 + k, t2r * w2i + t2i * w2r);
      store<T>(r2 + k, t1r * w1r - t1i * w1i);
      store<T>(i2 + k, t1r * w1i + t1i * w1r);
      store<T>(r3 + k, t3r * w3r - t3i * w3i);
      store<T>(i3 + k, t3r * w3i + t3i * w3r);
    }
  }
}

/// One radix-4 decimation-in-time stage of quarter length q, with the
/// conjugate twiddles (the inverse transform). It merges four adjacent
/// length-q transforms into one of length 4q. With bit-reversed input the
/// quarters at offsets 0, q, 2q, 3q hold the residues 0, 2, 1, 3 (mod 4)
/// of the merged sequence, hence the twiddle powers 0, 2, 1, 3.
template <class T>
void dit_stage(double* re, double* im, std::size_t n, std::size_t q, const double* wr,
               const double* wi) {
  for (std::size_t base = 0; base < n; base += 4 * q) {
    double* r0 = re + base;
    double* i0 = im + base;
    double* r1 = r0 + q;
    double* i1 = i0 + q;
    double* r2 = r1 + q;
    double* i2 = i1 + q;
    double* r3 = r2 + q;
    double* i3 = i2 + q;
    for (std::size_t k = 0; k < q; k += kLanes<T>) {
      const T x1r = load<T>(r1 + k);
      const T x1i = load<T>(i1 + k);
      const T x2r = load<T>(r2 + k);
      const T x2i = load<T>(i2 + k);
      const T x3r = load<T>(r3 + k);
      const T x3i = load<T>(i3 + k);
      const T w1r = load<T>(wr + k);
      const T w1i = load<T>(wi + k);
      const T w2r = load<T>(wr + q + k);
      const T w2i = load<T>(wi + q + k);
      const T w3r = load<T>(wr + 2 * q + k);
      const T w3i = load<T>(wi + 2 * q + k);
      const T ar = load<T>(r0 + k);
      const T ai = load<T>(i0 + k);
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
      store<T>(r0 + k, sum_ab_r + sum_cd_r);
      store<T>(i0 + k, sum_ab_i + sum_cd_i);
      store<T>(r2 + k, sum_ab_r - sum_cd_r);
      store<T>(i2 + k, sum_ab_i - sum_cd_i);
      // Outputs q and 3q rotate (C - D) by the inverse fourth root +i.
      store<T>(r1 + k, dif_ab_r - dif_cd_i);
      store<T>(i1 + k, dif_ab_i + dif_cd_r);
      store<T>(r3 + k, dif_ab_r + dif_cd_i);
      store<T>(i3 + k, dif_ab_i - dif_cd_r);
    }
  }
}

/// The radix-2 pass over adjacent pairs (a, b) -> (a + b, a - b): its own
/// transpose, so the forward transform runs it last and the inverse first.
void radix2_pass(double* re, double* im, std::size_t n) {
  for (std::size_t j = 0; j < n; j += 2) {
    const double ar = re[j];
    const double br = re[j + 1];
    const double ai = im[j];
    const double bi = im[j + 1];
    re[j] = ar + br;
    re[j + 1] = ar - br;
    im[j] = ai + bi;
    im[j + 1] = ai - bi;
  }
}

/// z *= k on kLanes<T> bins at the given pointers.
template <class T>
void multiply_lanes(double* zr, double* zi, const double* kr, const double* ki) {
  const T ar = load<T>(zr);
  const T ai = load<T>(zi);
  const T br = load<T>(kr);
  const T bi = load<T>(ki);
  store<T>(zr, ar * br - ai * bi);
  store<T>(zi, ar * bi + ai * br);
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  HE_EXPECTS(n >= 1 && is_pow2(n));
  require(is_pow2(n), "FftPlan: size must be a power of two");
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
  // The transforms walk the table stage by stage; a count mismatch here
  // means they would read out of bounds.
  HE_ENSURES(twiddle_re_.size() == count && twiddle_im_.size() == count);
}

void FftPlan::forward_to_bitrev(std::span<double> re, std::span<double> im) const {
  require(re.size() == n_ && im.size() == n_,
          "FftPlan: input size does not match the plan");
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
      dif_stage<double>(re.data(), im.data(), n_, q, wr, wi);
    } else {
      dif_stage<V2>(re.data(), im.data(), n_, q, wr, wi);
    }
  }
  if (smallest == 2) radix2_pass(re.data(), im.data(), n_);
}

void FftPlan::inverse_from_bitrev(std::span<double> re, std::span<double> im) const {
  require(re.size() == n_ && im.size() == n_,
          "FftPlan: input size does not match the plan");
  const std::size_t smallest = first_quarter(n_);
  if (smallest == 2) radix2_pass(re.data(), im.data(), n_);
  std::size_t offset = 0;
  for (std::size_t q = smallest; 4 * q <= n_; q *= 4) {
    const double* wr = twiddle_re_.data() + offset;
    const double* wi = twiddle_im_.data() + offset;
    if (q == 1) {
      dit_stage<double>(re.data(), im.data(), n_, q, wr, wi);
    } else {
      dit_stage<V2>(re.data(), im.data(), n_, q, wr, wi);
    }
    offset += 3 * q;
  }
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

std::vector<double>& Workspace::real_scratch(std::size_t slot, std::size_t size) {
  require(slot < kSlots, "Workspace: real slot out of range");
  real_[slot].resize(size);
  return real_[slot];
}

}  // namespace hyperear::dsp
