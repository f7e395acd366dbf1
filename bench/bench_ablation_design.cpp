/// Ablation bench for the design choices DESIGN.md Section 5 calls out:
///   1. sub-sample peak refinement (parabolic interpolation),
///   2. SFO correction (estimated vs nominal beacon period),
///   3. linear drift removal (Eq. 4),
///   4. gyro rotation-error correction (the Fig. 5 architecture box),
///   5. multi-slide aggregation depth (1 vs 3 vs 5 slides),
///   6. the paper's band-pass pre-filter, which the pipeline no longer
///      runs (the matched filter alone selects the chirp band).
/// Each row reports the 2D error at 6 m (hand-held) with exactly one knob
/// changed from the full pipeline. The band-pass rows filter the recording
/// before the pipeline sees it — the 255-tap design over the chirp band
/// +- 200 Hz that ASP used to run on each chunk, whose chunk windows were
/// exact slices of this whole-channel filter, so a pre-filtered row
/// reproduces the old default bit for bit. A final sweep compares raw and
/// pre-filtered audio in the busy mall below the paper's 3 dB.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/ols.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hyperear;

sim::ScenarioConfig scenario(int slides, bool chatting = false) {
  sim::ScenarioConfig c;
  c.phone = sim::galaxy_s4();
  c.environment = chatting ? sim::meeting_room_chatting() : sim::meeting_room_quiet();
  c.speaker_distance = 6.0;
  c.speaker_height = 1.3;
  c.phone_height = 1.3;
  c.slides_per_stature = slides;
  c.calibration_duration = 3.0;
  c.hold_duration = 0.7;
  c.jitter = sim::hand_jitter();
  // A little extra clock offset makes the SFO ablation visible.
  c.speaker_clock_ppm_sigma = 40.0;
  return c;
}

/// The session with both channels band-passed to the chirp band +- 200 Hz
/// (255 taps, "same" alignment).
sim::Session bandpassed(const sim::Session& s) {
  const dsp::OlsConvolver kernel(dsp::design_bandpass(s.prior.chirp.freq_low_hz - 200.0,
                                                      s.prior.chirp.freq_high_hz + 200.0,
                                                      s.audio.sample_rate, 255));
  dsp::Workspace ws;
  sim::Session out = s;
  dsp::filter_same_into(s.audio.mic1, kernel, out.audio.mic1, ws);
  dsp::filter_same_into(s.audio.mic2, kernel, out.audio.mic2, ws);
  return out;
}

std::vector<double> run(int n_trials, int slides,
                        const std::function<void(core::PipelineConfig&)>& tweak,
                        bool chatting = false, bool prefilter = false) {
  std::vector<double> errors;
  for (int t = 0; t < n_trials; ++t) {
    Rng rng(static_cast<std::uint64_t>(2100 + t * 53));
    sim::Session s = sim::make_localization_session(scenario(slides, chatting), rng);
    if (prefilter) s = bandpassed(s);
    core::PipelineConfig opts;
    tweak(opts);
    const auto fix = core::try_localize(s, opts);
    if (!fix.has_value() || !fix->valid) continue;
    errors.push_back(core::localization_error(*fix, s));
  }
  return errors;
}

/// One cell of the low-SNR sweep: the Fig. 19 3D protocol at 7 m in the
/// busy mall at `snr_db`, raw and pre-filtered on the same sessions.
void snr_cell(int n_trials, double snr_db) {
  struct Arm {
    const char* name;
    int valid = 0;
    double chirps = 0.0;
    std::vector<double> errors;
  };
  Arm arms[] = {{"raw", 0, 0.0, {}}, {"band-pass", 0, 0.0, {}}};
  for (int t = 0; t < n_trials; ++t) {
    sim::ScenarioConfig c;
    c.phone = sim::galaxy_s4();
    c.environment = sim::mall_busy_hour();
    c.environment.snr_db = snr_db;
    c.speaker_distance = 7.0;
    c.speaker_height = 0.5;
    c.phone_height = 1.3;
    c.two_statures = true;
    c.slides_per_stature = 5;
    c.calibration_duration = 3.0;
    c.hold_duration = 0.7;
    c.jitter = sim::hand_jitter();
    Rng rng(static_cast<std::uint64_t>(2200 + t * 61));
    c.slide_distance = rng.uniform(0.50, 0.60);
    const sim::Session raw = sim::make_localization_session(c, rng);
    const sim::Session filtered = bandpassed(raw);
    const sim::Session* inputs[] = {&raw, &filtered};
    core::PipelineConfig opts;
    opts.ttl.min_slide_distance = 0.45;
    for (std::size_t a = 0; a < 2; ++a) {
      Arm& arm = arms[a];
      const sim::Session& s = *inputs[a];
      core::StageMetrics metrics;
      const auto fix = core::try_localize(s, opts, &metrics);
      arm.chirps += 0.5 * static_cast<double>(metrics.chirps_mic1 + metrics.chirps_mic2);
      if (!fix.has_value() || !fix->valid) continue;
      ++arm.valid;
      arm.errors.push_back(core::localization_error(*fix, s));
    }
  }
  for (const Arm& arm : arms) {
    const Summary e = arm.errors.empty() ? Summary{} : summarize(arm.errors);
    std::printf("SNR %+5.1f dB %-10s valid %2d/%-2d chirps/mic %6.1f "
                "mean=%6.1fcm p90=%6.1fcm\n",
                snr_db, arm.name, arm.valid, n_trials, arm.chirps / n_trials,
                100.0 * e.mean, 100.0 * e.p90);
  }
}

}  // namespace

int main() {
  const int n_trials = bench::trials(8);
  std::printf("=== Design-choice ablations (S4, hand-held, 6 m, 2D) ===\n");

  bench::print_summary("full pipeline",
                       run(n_trials, 5, [](core::PipelineConfig&) {}));
  bench::print_summary("no SFO correction", run(n_trials, 5, [](core::PipelineConfig& o) {
                         o.asp.sfo_correction = false;
                       }));
  bench::print_summary("no drift correction (Eq. 4)",
                       run(n_trials, 5, [](core::PipelineConfig& o) {
                         o.ttl.displacement.drift_correction = false;
                       }));
  bench::print_summary("no rotation correction",
                       run(n_trials, 5, [](core::PipelineConfig& o) {
                         o.ttl.rotation_correction = false;
                       }));
  // The paper's band-pass targets out-of-band noise (Section VII-E), so
  // its comparison runs in the chatting room.
  bench::print_summary("full pipeline (chatting room)",
                       run(n_trials, 5, [](core::PipelineConfig&) {}, true));
  bench::print_summary("band-pass pre-filter (chatting room)",
                       run(n_trials, 5, [](core::PipelineConfig&) {}, true, true));
  bench::print_summary("1-slide session",
                       run(n_trials, 1, [](core::PipelineConfig&) {}));
  bench::print_summary("3-slide session",
                       run(n_trials, 3, [](core::PipelineConfig&) {}));
  bench::print_summary("5-slide session",
                       run(n_trials, 5, [](core::PipelineConfig&) {}));

  const int sweep_trials = bench::trials(16);
  std::printf("\n=== Band-pass pre-filter below the paper's SNR range "
              "(mall busy hour, S4, 7 m, 3D) ===\n");
  for (const double snr_db : {3.0, 0.0, -3.0, -6.0, -9.0}) snr_cell(sweep_trials, snr_db);
  return 0;
}
