/// Google-benchmark microbenchmarks of the primitives on HyperEar's hot
/// path: the FFT and the overlap-save pair the matched filter runs,
/// matched-filter detection, the augmented triangulation solve, and
/// acoustic rendering, and the service's beacon-gated ASP stage. These
/// bound the end-to-end processing cost per
/// session (which must run comfortably on a phone-class core: the paper
/// ships HyperEar as an app).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/asp.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "dsp/chirp.hpp"
#include "dsp/fft.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/ols.hpp"
#include "geom/triangulation.hpp"
#include "sim/acoustic_renderer.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hyperear;

void BM_Fft(benchmark::State& state) {
  // Times the forward transform to a bit-reversed spectrum on split re/im
  // arrays and a prebuilt plan, as overlap-save runs it; plan construction
  // is a once-per-context cost. 8192 is the block size of the matched
  // filter's convolver, 32768 the one-argument size for the chirp
  // reference.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const std::vector<double> re = rng.gaussian_vector(n);
  const std::vector<double> im = rng.gaussian_vector(n);
  const dsp::FftPlan plan(n);
  std::vector<double> work_re(n);
  std::vector<double> work_im(n);
  for (auto _ : state) {
    std::copy(re.begin(), re.end(), work_re.begin());
    std::copy(im.begin(), im.end(), work_im.begin());
    plan.forward_to_bitrev(work_re, work_im);
    benchmark::DoNotOptimize(work_re.data());
    benchmark::DoNotOptimize(work_im.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 11)->Arg(1 << 13)->Arg(1 << 15)->Arg(1 << 17);

void BM_OlsPair(benchmark::State& state) {
  // One overlap-save transform pair of the matched filter's correlation
  // (lane fill, forward transform, spectrum multiply, inverse transform,
  // copy-out) at the detector's geometry: a kernel of the chirp
  // reference's 2205 taps on 8192-point blocks. The window is one pair of
  // lags, so both lanes are full.
  constexpr std::size_t kTaps = 2205;
  constexpr std::size_t kFftSize = 8192;
  Rng rng(7);
  const dsp::OlsConvolver conv(rng.gaussian_vector(kTaps), kFftSize);
  const std::size_t lags = 2 * conv.block_size();
  const std::vector<double> x = rng.gaussian_vector(lags + kTaps - 1);
  std::vector<double> out(lags);
  dsp::Workspace ws;
  for (auto _ : state) {
    conv.correlate_pairs_into(x, 0, out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_OlsPair);

/// `n` samples at 44.1 kHz of light noise with a default chirp every 0.2 s
/// from 0.05 s on.
std::vector<double> chirp_train(std::size_t n) {
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
  return x;
}

void BM_MatchedFilterDetect(benchmark::State& state) {
  // The full search of one channel, as the gated ASP stage runs it on its
  // head and on a fallback. A chirp every 0.2 s over the given number of
  // 44.1 kHz samples. 44100 (1 s) is four one-pair chunks, the last a
  // short final one; 614400 (~14 s, a batch session's channel) runs the
  // detector's one-pair chunk schedule (52 chunks) and its correlation
  // block geometry.
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> x = chirp_train(n);
  const dsp::Chirp chirp{dsp::ChirpParams{}};
  const dsp::MatchedFilterDetector det(chirp.reference(44100.0), {});
  dsp::DetectorWorkspace ws;
  std::vector<dsp::Detection> detections;
  for (auto _ : state) {
    det.detect_into(x, ws, detections);
    benchmark::DoNotOptimize(detections.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_MatchedFilterDetect)->Arg(44100)->Arg(614400);

void BM_GatedAsp(benchmark::State& state) {
  // The service ASP stage on BM_MatchedFilterDetect's recording in both
  // channels: a non-finite check of both, the full-search head (4 one-pair
  // chunks per channel), then one 4096-point stereo gate per beacon period
  // (61 at 614400 samples), pass 2 and the SFO fit, serially on a warm
  // workspace. The stage's detector runs the default AspOptions (threshold
  // 0.22, spacing 0.12 s), not BM_MatchedFilterDetect's DetectorConfig.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::StereoRecording rec;
  rec.sample_rate = 44100.0;
  rec.mic1 = chirp_train(n);
  rec.mic2 = rec.mic1;
  const core::PipelineContext context(core::PipelineConfig{}, dsp::ChirpParams{},
                                      44100.0);
  core::SessionWorkspace workspace;
  for (auto _ : state) {
    const core::AspResult asp = core::preprocess_audio(rec, 0.2, 1.0, context, workspace);
    benchmark::DoNotOptimize(asp.mic1.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_GatedAsp)->Arg(614400);

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

}  // namespace

BENCHMARK_MAIN();
