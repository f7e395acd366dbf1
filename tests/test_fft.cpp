#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace hyperear::dsp {
namespace {

using Complex = std::complex<double>;

/// Split re/im arrays of a complex signal, the layout FftPlan transforms.
struct Split {
  std::vector<double> re;
  std::vector<double> im;
  explicit Split(std::size_t n) : re(n, 0.0), im(n, 0.0) {}
  [[nodiscard]] std::size_t size() const { return re.size(); }
  [[nodiscard]] Complex at(std::size_t i) const { return {re[i], im[i]}; }
};

/// Bit reversal of `i` over log2(n) bits: forward_to_bitrev leaves DFT bin
/// k at index bit_reverse(k, n).
std::size_t bit_reverse(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) != 0 ? 1 : 0);
  }
  return r;
}

TEST(Fft, DeltaHasFlatSpectrum) {
  Split x(8);
  x.re[0] = 1.0;
  FftPlan(8).forward_to_bitrev(x.re, x.im);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x.re[i], 1.0, 1e-12);
    EXPECT_NEAR(x.im[i], 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  Split x(n);
  const std::size_t k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * kPi * static_cast<double>(k * i) / static_cast<double>(n);
    x.re[i] = std::cos(phase);
    x.im[i] = std::sin(phase);
  }
  FftPlan(n).forward_to_bitrev(x.re, x.im);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == bit_reverse(k, n)) {
      EXPECT_NEAR(std::abs(x.at(i)), double(n), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(x.at(i)), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RoundTripIdentity) {
  Rng rng(21);
  Split x(256);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.re[i] = rng.gaussian();
    x.im[i] = rng.gaussian();
  }
  const Split orig = x;
  const FftPlan plan(x.size());
  plan.forward_to_bitrev(x.re, x.im);
  plan.inverse_from_bitrev(x.re, x.im);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x.re[i] / 256.0, orig.re[i], 1e-10);
    EXPECT_NEAR(x.im[i] / 256.0, orig.im[i], 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(22);
  Split x(128);
  double time_energy = 0.0;
  for (double& v : x.re) {
    v = rng.gaussian();
    time_energy += v * v;
  }
  FftPlan(x.size()).forward_to_bitrev(x.re, x.im);
  double freq_energy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) freq_energy += std::norm(x.at(i));
  EXPECT_NEAR(freq_energy / double(x.size()), time_energy, 1e-8 * time_energy);
}

TEST(Fft, NonPowerOfTwoThrows) {
  EXPECT_THROW(FftPlan(12), PreconditionError);
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
    Split y(n);
    for (std::size_t i = 0; i < n; ++i) {
      y.re[i] = x[i].real();
      y.im[i] = x[i].imag();
    }
    const FftPlan plan(n);
    plan.forward_to_bitrev(y.re, y.im);
    plan.inverse_from_bitrev(y.re, y.im);
    std::vector<Complex> back(n);
    for (std::size_t i = 0; i < n; ++i) back[i] = y.at(i) / static_cast<double>(n);
    EXPECT_LE(relative_error(back, x), 1e-12 * std::log2(static_cast<double>(n)))
        << "n=" << n;
  }
}

TEST(FftPlan, RejectsBadSizes) {
  EXPECT_THROW(FftPlan(12), PreconditionError);
  const FftPlan plan(8);
  std::vector<double> re(8);
  std::vector<double> im(4);
  EXPECT_THROW(plan.forward_to_bitrev(re, im), PreconditionError);
  EXPECT_THROW(plan.inverse_from_bitrev(im, re), PreconditionError);
}

TEST(FftReal, ConjugateSymmetry) {
  // A real signal's spectrum is conjugate-symmetric: bin N - k is the
  // conjugate of bin k, read at their bit-reversed indices.
  Rng rng(23);
  const std::size_t n = 64;
  Split x(n);
  for (double& v : x.re) v = rng.gaussian();
  FftPlan(n).forward_to_bitrev(x.re, x.im);
  for (std::size_t k = 1; k < n / 2; ++k) {
    const Complex bin = x.at(bit_reverse(k, n));
    const Complex mirror = x.at(bit_reverse(n - k, n));
    EXPECT_NEAR(bin.real(), mirror.real(), 1e-10);
    EXPECT_NEAR(bin.imag(), -mirror.imag(), 1e-10);
  }
}

}  // namespace
}  // namespace hyperear::dsp
