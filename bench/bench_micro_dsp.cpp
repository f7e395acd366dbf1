/// Google-benchmark microbenchmarks of the primitives on HyperEar's hot
/// path: FFT, cross-correlation, matched-filter detection, FIR band-pass,
/// the augmented triangulation solve, and acoustic rendering. These bound
/// the end-to-end processing cost per session (which must run comfortably
/// on a phone-class core: the paper ships HyperEar as an app).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <span>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "dsp/chirp.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/ols.hpp"
#include "geom/triangulation.hpp"
#include "sim/acoustic_renderer.hpp"
#include "sim/scenario.hpp"

HYPEREAR_DEFINE_ALLOC_COUNTER()

namespace {

using namespace hyperear;

void BM_Fft(benchmark::State& state) {
  // Times the natural-order forward transform (DIF butterflies plus the
  // bit-reversal permutation) on a prebuilt plan; plan construction is a
  // once-per-context cost. The overlap-save loops skip the permutation, see
  // BM_OlsPair. 2048 and 8192 are the block sizes of the band-pass and
  // matched-filter convolvers; 32768 is the one-argument size for the chirp
  // reference.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<dsp::Complex> x(n);
  for (auto& v : x) v = dsp::Complex(rng.gaussian(), rng.gaussian());
  const dsp::FftPlan plan(n);
  std::vector<dsp::Complex> work(n);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), work.begin());
    plan.forward(work);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 11)->Arg(1 << 13)->Arg(1 << 15)->Arg(1 << 17);

void BM_OlsPair(benchmark::State& state) {
  // One overlap-save transform pair (lane fill, forward transform, spectrum
  // multiply, inverse transform, copy-out): the unit of work the band-pass
  // (255 taps, 2048-point blocks) and the matched filter (2205 taps,
  // 8192-point blocks) repeat along every channel. Pair (2, 3) is interior,
  // so both lanes are full.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t taps = n == 2048 ? 255 : 2205;
  Rng rng(7);
  const dsp::OlsConvolver conv(rng.gaussian_vector(taps), n);
  const std::size_t block = conv.block_size();
  const std::vector<double> x = rng.gaussian_vector(4 * block);
  std::vector<double> out(2 * block);
  dsp::Workspace ws;
  for (auto _ : state) {
    conv.convolve_pair_into(x, 0, x.size(), 2, true, 2 * block, out.size(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_OlsPair)->Arg(2048)->Arg(8192);

void BM_CorrelateValid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> x(n), h(2205);
  for (auto& v : x) v = rng.gaussian();
  for (auto& v : h) v = rng.gaussian();
  for (auto _ : state) {
    auto c = dsp::correlate_valid(x, h);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_CorrelateValid)->Arg(1 << 15)->Arg(1 << 17);

void BM_MatchedFilterDetect(benchmark::State& state) {
  // A chirp every 0.2 s over the given number of 44.1 kHz samples. 44100
  // (1 s) is a single short final chunk; 614400 (~14 s, a batch session's
  // channel) runs the detector's 131072-sample chunk schedule and its
  // correlation block geometry.
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::Chirp chirp{dsp::ChirpParams{}};
  Rng rng(3);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.gaussian(0.0, 0.01);
  for (int k = 0; 0.1 + 0.2 * k < static_cast<double>(n) / 44100.0; ++k) {
    const double t0 = 0.05 + 0.2 * k;
    const auto first = static_cast<std::size_t>(t0 * 44100.0);
    const std::size_t last = std::min(n, first + 2206);
    for (std::size_t i = first; i < last; ++i) {
      const double t = static_cast<double>(i) / 44100.0 - t0;
      if (t >= 0.0 && t <= 0.05) x[i] += chirp.value(t);
    }
  }
  const dsp::MatchedFilterDetector det(chirp.reference(44100.0), {});
  for (auto _ : state) {
    auto d = det.detect(x);
    benchmark::DoNotOptimize(d.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MatchedFilterDetect)->Arg(44100)->Arg(614400);

void BM_BandpassFilter(benchmark::State& state) {
  Rng rng(4);
  std::vector<double> x(44100);
  for (auto& v : x) v = rng.gaussian();
  const std::vector<double> taps = dsp::design_bandpass(2000.0, 6400.0, 44100.0, 255);
  for (auto _ : state) {
    auto y = dsp::filter_same(x, taps);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 44100);
}
BENCHMARK(BM_BandpassFilter);

void BM_SolveAugmented(benchmark::State& state) {
  geom::AugmentedTdoa in;
  in.slide_distance = 0.55;
  in.mic_separation = 0.1366;
  in.range_diff_mic1 = -0.004;
  in.range_diff_mic2 = -0.014;
  for (auto _ : state) {
    auto r = geom::solve_augmented(in);
    benchmark::DoNotOptimize(&r);
  }
}
BENCHMARK(BM_SolveAugmented);

void BM_RenderSecond(benchmark::State& state) {
  // Acoustic rendering cost per second of stereo audio (meeting room).
  sim::ScenarioConfig c;
  c.jitter = sim::ruler_jitter();
  Rng rng(5);
  const sim::PhoneSpec phone = sim::galaxy_s4();
  const sim::Speaker speaker(sim::SpeakerSpec{}, {8.0, 6.5, 1.3});
  sim::TrajectoryBuilder b({5.0, 6.5, 1.3}, 0.0);
  b.hold(1.0);
  const sim::Trajectory traj = b.build(sim::ruler_jitter(), rng);
  const sim::Environment env = sim::meeting_room_quiet();
  for (auto _ : state) {
    Rng r2(6);
    auto rec = sim::render_audio(speaker, phone, env, traj, 1.0, r2);
    benchmark::DoNotOptimize(rec.mic1.data());
  }
  state.SetItemsProcessed(state.iterations() * 44100);
}
BENCHMARK(BM_RenderSecond);

// ---------------------------------------------------------------------------
// BENCH_dsp.json: before/after rows for the two pipeline hot primitives.
//
// "monolithic-fft" reproduces the pre-overlap-save implementation (one FFT
// at the next power of two covering the WHOLE signal, via the reference
// fft_convolve path); "ols" is the shipping implementation (block
// overlap-save through a cached kernel spectrum + reusable workspace). Both
// compute the same function; the rows record the speedup and the per-op
// allocator traffic.

double time_ns_per_op(int reps, const std::function<void()>& op) {
  using BenchClock = std::chrono::steady_clock;
  op();  // warm-up: page in buffers, build lazy state
  const BenchClock::time_point t0 = BenchClock::now();
  for (int r = 0; r < reps; ++r) op();
  const double ns =
      std::chrono::duration<double, std::nano>(BenchClock::now() - t0).count();
  return ns / reps;
}

bench::BenchRow measure(const std::string& op, const std::string& variant,
                        std::size_t n, int reps, const std::function<void()>& fn) {
  bench::BenchRow row;
  row.op = op;
  row.variant = variant;
  row.n = n;
  const std::size_t bytes0 = bench::allocated_bytes();
  const int counted = reps + 1;  // the warm-up rep allocates like any other
  row.ns_per_op = time_ns_per_op(reps, fn);
  row.bytes_allocated = (bench::allocated_bytes() - bytes0) / static_cast<std::size_t>(counted);
  std::printf("%-22s %-16s n=%-8zu %12.0f ns/op %12zu bytes/op\n", op.c_str(),
              variant.c_str(), n, row.ns_per_op, row.bytes_allocated);
  return row;
}

/// Pre-PR filter_same: monolithic full convolution, then trim to "same".
std::vector<double> monolithic_filter_same(std::span<const double> x,
                                           std::span<const double> taps) {
  const std::vector<double> full = dsp::fft_convolve(x, taps);
  const std::size_t half = taps.size() / 2;
  std::vector<double> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = full[i + half];
  return out;
}

/// Pre-PR correlate_normalized: monolithic FFT correlation + normalization.
std::vector<double> monolithic_correlate_normalized(std::span<const double> x,
                                                    std::span<const double> h,
                                                    double h_norm) {
  const std::vector<double> hr(h.rbegin(), h.rend());
  const std::vector<double> full = dsp::fft_convolve(x, hr);
  std::vector<double> corr(x.size() - h.size() + 1);
  for (std::size_t k = 0; k < corr.size(); ++k) corr[k] = full[k + h.size() - 1];
  return dsp::normalize_correlation(corr, x, h.size(), h_norm);
}

void write_dsp_json() {
  const bool smoke = bench::smoke_mode();
  const std::vector<double> taps = dsp::design_bandpass(2000.0, 6400.0, 44100.0, 255);
  double taps_energy = 0.0;
  for (double v : taps) taps_energy += v * v;
  const double taps_norm = std::sqrt(taps_energy);

  const dsp::OlsConvolver filter_conv(taps);
  const dsp::OlsConvolver reversed_conv(std::vector<double>(taps.rbegin(), taps.rend()));

  std::vector<bench::BenchRow> rows;
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{1u << 12, 1u << 13}
            : std::vector<std::size_t>{1u << 16, 1u << 20};
  std::printf("\n=== BENCH_dsp.json rows (255-tap kernel) ===\n");
  for (const std::size_t n : sizes) {
    const int reps = smoke ? 1 : (n >= (1u << 20) ? 4 : 24);
    Rng rng(99);
    const std::vector<double> x = rng.gaussian_vector(n);
    dsp::Workspace ws;

    rows.push_back(measure("filter_same", "monolithic-fft", n, reps, [&] {
      auto y = monolithic_filter_same(x, taps);
      benchmark::DoNotOptimize(y.data());
    }));
    rows.push_back(measure("filter_same", "ols", n, reps, [&] {
      auto y = dsp::filter_same(x, filter_conv, &ws);
      benchmark::DoNotOptimize(y.data());
    }));
    rows.push_back(measure("correlate_normalized", "monolithic-fft", n, reps, [&] {
      auto y = monolithic_correlate_normalized(x, taps, taps_norm);
      benchmark::DoNotOptimize(y.data());
    }));
    std::vector<double> prefix_scratch;
    std::vector<double> norm_out;
    rows.push_back(measure("correlate_normalized", "ols", n, reps, [&] {
      auto corr = dsp::correlate_valid(x, reversed_conv, &ws);
      dsp::normalize_correlation_into(corr, x, taps.size(), taps_norm,
                                      prefix_scratch, norm_out);
      benchmark::DoNotOptimize(norm_out.data());
    }));
  }
  bench::write_bench_json("BENCH_dsp.json", rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_dsp_json();
  return 0;
}
