#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {
namespace {

TEST(Fft, DeltaHasFlatSpectrum) {
  std::vector<Complex> x(8, {0.0, 0.0});
  x[0] = {1.0, 0.0};
  fft_inplace(x);
  for (const Complex& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Complex> x(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = Complex(std::cos(2.0 * kPi * k * static_cast<double>(i) / static_cast<double>(n)),
                   std::sin(2.0 * kPi * k * static_cast<double>(i) / static_cast<double>(n)));
  }
  fft_inplace(x);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == static_cast<std::size_t>(k)) {
      EXPECT_NEAR(std::abs(x[i]), double(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(21);
  std::vector<Complex> x(256);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  std::vector<Complex> orig = x;
  fft_inplace(x);
  ifft_inplace(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(22);
  std::vector<Complex> x(128);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = Complex(rng.gaussian(), 0.0);
    time_energy += std::norm(v);
  }
  fft_inplace(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / double(x.size()), time_energy, 1e-8 * time_energy);
}

TEST(Fft, NonPowerOfTwoThrows) {
  std::vector<Complex> x(12);
  EXPECT_THROW(fft_inplace(x), PreconditionError);
}

/// O(N^2) DFT in long double: the reference the kernel is held against.
/// The phase index j*k is reduced mod N, so every term uses one of N
/// roots of unity evaluated once at long-double precision.
std::vector<Complex> naive_dft(const std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  const long double sign = inverse ? 1.0L : -1.0L;
  std::vector<long double> cos_table(n);
  std::vector<long double> sin_table(n);
  for (std::size_t m = 0; m < n; ++m) {
    const long double angle = sign * 2.0L * 3.141592653589793238462643383279503L *
                              static_cast<long double>(m) / static_cast<long double>(n);
    cos_table[m] = std::cos(angle);
    sin_table[m] = std::sin(angle);
  }
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    long double re = 0.0L;
    long double im = 0.0L;
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t m = (j * k) % n;
      const long double xr = x[j].real();
      const long double xi = x[j].imag();
      re += xr * cos_table[m] - xi * sin_table[m];
      im += xr * sin_table[m] + xi * cos_table[m];
    }
    if (inverse) {
      re /= static_cast<long double>(n);
      im /= static_cast<long double>(n);
    }
    out[k] = Complex(static_cast<double>(re), static_cast<double>(im));
  }
  return out;
}

/// max |got - want| / max |want|.
double relative_error(const std::vector<Complex>& got, const std::vector<Complex>& want) {
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return err / scale;
}

TEST(FftPlan, MatchesNaiveDftAtEverySize) {
  // Every N = 2^0 .. 2^12 covers both odd log2 N (the leading radix-2 pass)
  // and even log2 N (pure radix-4 stages), forward and inverse.
  Rng rng(25);
  for (unsigned bits = 0; bits <= 12; ++bits) {
    const std::size_t n = std::size_t{1} << bits;
    const double tol = 1e-12 * std::max(1.0, static_cast<double>(bits));
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    const FftPlan plan(n);
    EXPECT_EQ(plan.size(), n);
    std::vector<Complex> fwd = x;
    plan.forward(fwd);
    EXPECT_LE(relative_error(fwd, naive_dft(x, false)), tol) << "forward n=" << n;
    std::vector<Complex> inv = x;
    plan.inverse(inv);
    EXPECT_LE(relative_error(inv, naive_dft(x, true)), tol) << "inverse n=" << n;
  }
}

/// Bit reversal of `i` over log2(n) bits.
std::size_t bit_reverse(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) != 0 ? 1 : 0);
  }
  return r;
}

TEST(FftPlan, BitReversedPairMatchesNaiveDftAtEverySize) {
  // The permutation-free pair overlap-save runs: forward_to_bitrev leaves
  // DFT bin bitrev(i) at index i, and inverse_from_bitrev of that
  // bit-reversed spectrum returns N * x.
  Rng rng(27);
  for (unsigned bits = 0; bits <= 12; ++bits) {
    const std::size_t n = std::size_t{1} << bits;
    const double tol = 1e-12 * std::max(1.0, static_cast<double>(bits));
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    const std::vector<Complex> dft = naive_dft(x, false);
    const FftPlan plan(n);
    std::vector<double> re(n);
    std::vector<double> im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = x[i].real();
      im[i] = x[i].imag();
    }
    plan.forward_to_bitrev(re, im);
    std::vector<Complex> got(n);
    std::vector<Complex> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      got[i] = Complex(re[i], im[i]);
      want[i] = dft[bit_reverse(i, n)];
    }
    EXPECT_LE(relative_error(got, want), tol) << "forward n=" << n;

    for (std::size_t i = 0; i < n; ++i) {
      re[i] = want[i].real();
      im[i] = want[i].imag();
    }
    plan.inverse_from_bitrev(re, im);
    std::vector<Complex> back(n);
    for (std::size_t i = 0; i < n; ++i) {
      back[i] = Complex(re[i], im[i]) / static_cast<double>(n);
    }
    EXPECT_LE(relative_error(back, x), tol) << "inverse n=" << n;
  }
}

TEST(FftPlan, RoundTripAtOverlapSaveSizes) {
  // 2048 and 32768 are the block sizes choose_ols_fft_size picks for the
  // 255-tap band-pass and the 2205-tap chirp reference; 8192 is the
  // window-aware size the matched-filter detector runs on its chunks.
  Rng rng(26);
  for (const std::size_t n : {std::size_t{2048}, std::size_t{8192}, std::size_t{32768}}) {
    std::vector<Complex> x(n);
    for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
    const FftPlan plan(n);
    std::vector<Complex> y = x;
    plan.forward(y);
    plan.inverse(y);
    EXPECT_LE(relative_error(y, x), 1e-12 * std::log2(static_cast<double>(n))) << "n=" << n;
  }
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(12), PreconditionError);
  const FftPlan plan(8);
  std::vector<Complex> x(4);
  EXPECT_THROW(plan.forward(x), PreconditionError);
  std::vector<double> re(8);
  std::vector<double> im(4);
  EXPECT_THROW(plan.forward_to_bitrev(re, im), PreconditionError);
  EXPECT_THROW(plan.inverse_from_bitrev(im, re), PreconditionError);
}

TEST(FftReal, PadsToPowerOfTwo) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<Complex> spec = fft_real(x);
  EXPECT_EQ(spec.size(), 4u);
  const std::vector<Complex> spec2 = fft_real(x, 10);
  EXPECT_EQ(spec2.size(), 16u);
}

TEST(FftReal, ConjugateSymmetry) {
  Rng rng(23);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.gaussian();
  const std::vector<Complex> spec = fft_real(x);
  for (std::size_t k = 1; k < spec.size() / 2; ++k) {
    EXPECT_NEAR(spec[k].real(), spec[spec.size() - k].real(), 1e-10);
    EXPECT_NEAR(spec[k].imag(), -spec[spec.size() - k].imag(), 1e-10);
  }
}

TEST(FftConvolve, MatchesDirectConvolution) {
  Rng rng(24);
  std::vector<double> a(37), b(12);
  for (auto& v : a) v = rng.gaussian();
  for (auto& v : b) v = rng.gaussian();
  const std::vector<double> fast = fft_convolve(a, b);
  ASSERT_EQ(fast.size(), a.size() + b.size() - 1);
  for (std::size_t k = 0; k < fast.size(); ++k) {
    double direct = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const long long j = static_cast<long long>(k) - static_cast<long long>(i);
      if (j >= 0 && j < static_cast<long long>(b.size())) direct += a[i] * b[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(fast[k], direct, 1e-9);
  }
}

TEST(FftConvolve, DeltaIsIdentity) {
  const std::vector<double> x{1.0, -2.0, 3.0, 0.5};
  const std::vector<double> delta{1.0};
  const std::vector<double> y = fft_convolve(x, delta);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y[i], x[i], 1e-12);
}

}  // namespace
}  // namespace hyperear::dsp
