#include "dsp/matched_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/asp.hpp"
#include "core/nlos.hpp"
#include "dsp/chirp.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "dsp/ols.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "support/oracles.hpp"

namespace hyperear::dsp {
namespace {

constexpr double kFs = 44100.0;

/// Render chirps at the given start times into a noisy buffer.
std::vector<double> make_recording(const Chirp& chirp, const std::vector<double>& starts,
                                   double duration, double noise_rms, Rng& rng,
                                   double gain = 1.0) {
  std::vector<double> x(static_cast<std::size_t>(duration * kFs), 0.0);
  for (auto& v : x) v = rng.gaussian(0.0, noise_rms);
  for (double t0 : starts) {
    for (std::size_t n = 0; n < x.size(); ++n) {
      const double t = static_cast<double>(n) / kFs - t0;
      if (t >= 0.0 && t <= chirp.params().duration_s) x[n] += gain * chirp.value(t);
    }
  }
  return x;
}

MatchedFilterDetector make_detector(const Chirp& chirp) {
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  return MatchedFilterDetector(chirp.reference(kFs), cfg);
}

std::vector<Detection> detect(const MatchedFilterDetector& det,
                              std::span<const double> recording) {
  DetectorWorkspace ws;
  std::vector<Detection> out;
  det.detect_into(recording, ws, out);
  return out;
}

TEST(MatchedFilter, DetectsSingleChirp) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(41);
  const std::vector<double> x = make_recording(chirp, {0.3}, 1.0, 0.01, rng);
  const auto detections = detect(make_detector(chirp), x);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_NEAR(detections[0].time_s, 0.3, 1e-4);
  EXPECT_GT(detections[0].score, 0.8);
}

TEST(MatchedFilter, SubSampleTiming) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(42);
  // A start time deliberately between samples.
  const double t0 = 0.3 + 0.4 / kFs;
  const std::vector<double> x = make_recording(chirp, {t0}, 1.0, 0.005, rng);
  const auto detections = detect(make_detector(chirp), x);
  ASSERT_EQ(detections.size(), 1u);
  // Sub-sample refinement should land within ~0.2 samples.
  EXPECT_NEAR(detections[0].time_s, t0, 0.25 / kFs);
}

TEST(MatchedFilter, PeriodicTrainAllFound) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(43);
  std::vector<double> starts;
  for (int i = 0; i < 12; ++i) starts.push_back(0.1 + 0.2 * i);
  const std::vector<double> x = make_recording(chirp, starts, 2.7, 0.02, rng);
  const auto detections = detect(make_detector(chirp), x);
  ASSERT_EQ(detections.size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_NEAR(detections[i].time_s, starts[i], 1e-4);
  }
}

TEST(MatchedFilter, NoFalsePositivesInNoise) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(44);
  const std::vector<double> x = make_recording(chirp, {}, 1.5, 0.1, rng);
  EXPECT_TRUE(detect(make_detector(chirp), x).empty());
}

TEST(MatchedFilter, SurvivesLowSnr) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(45);
  // In-band chirp RMS ~ 0.6 over its support; noise RMS 0.5 across the
  // band is roughly 0 dB broadband; the matched filter gain is ~23 dB.
  const std::vector<double> x = make_recording(chirp, {0.5, 0.7, 0.9}, 1.5, 0.5, rng);
  const auto detections = detect(make_detector(chirp), x);
  EXPECT_GE(detections.size(), 2u);
}

TEST(MatchedFilter, AmplitudeGateDropsWeakEcho) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(46);
  // Three strong arrivals plus one 10x weaker "echo" arrival well separated
  // in time (0.15 s after the last, beyond min spacing).
  std::vector<double> x = make_recording(chirp, {0.3, 0.5, 0.7}, 1.4, 0.01, rng);
  {
    Rng rng2(47);
    const std::vector<double> echo = make_recording(chirp, {0.85}, 1.4, 0.0, rng2, 0.1);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += echo[i];
  }
  const auto detections = detect(make_detector(chirp), x);
  ASSERT_EQ(detections.size(), 3u);
  for (const auto& d : detections) EXPECT_LT(d.time_s, 0.8);
}

TEST(MatchedFilter, StrongerArrivalWinsWithinSpacing) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(48);
  // Direct at 0.5 with an echo 30 ms later at half amplitude: one detection,
  // anchored on the direct (earlier, stronger) arrival.
  std::vector<double> x = make_recording(chirp, {0.5}, 1.2, 0.01, rng);
  {
    Rng rng2(49);
    const std::vector<double> echo = make_recording(chirp, {0.53}, 1.2, 0.0, rng2, 0.5);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += echo[i];
  }
  const auto detections = detect(make_detector(chirp), x);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_NEAR(detections[0].time_s, 0.5, 5e-4);
}

/// Pairs per chunk for a schedule that covers the whole recording (at
/// least the reference long) in one chunk.
std::size_t whole_pairs(const MatchedFilterDetector& det, std::size_t n) {
  const std::size_t lags = n - det.reference().size() + 1;
  return (lags + det.pair_lags() - 1) / det.pair_lags();
}

/// One run of a chunk schedule: the pass-1 candidates (lag order), the
/// detections, and the chunk passes.
struct ScheduleRun {
  std::vector<DetectionCandidate> candidates;
  std::vector<Detection> detections;
  std::vector<ChunkPass> passes;
};

/// Detect `x` on the schedule of `pairs` pairs per chunk the way the ASP
/// fan-out does: every chunk pass first — in reverse order, through one
/// shared scratch — then the stitch in schedule order.
ScheduleRun run_schedule(const MatchedFilterDetector& det, std::span<const double> x,
                         std::size_t pairs) {
  ScheduleRun r;
  const std::size_t chunks = det.chunk_count(x.size(), pairs);
  r.passes.resize(chunks);
  DetectorWorkspace scratch;
  for (std::size_t k = chunks; k-- > 0;) {
    const ChunkSpan span = det.chunk_span(k, x.size(), pairs);
    det.chunk_pass(x.subspan(span.start, span.size), span.start, span.final_chunk, scratch,
                   r.passes[k]);
  }
  DetectorWorkspace ws;
  DetectorStream stream;
  det.stream_begin(stream, ws);
  for (std::size_t k = 0; k < chunks; ++k) {
    det.stitch(r.passes[k], stream, ws);
    EXPECT_EQ(stream.chunks_streamed, k + 1);
    // Stitched candidates leave in lag order.
    for (std::size_t i = 1; i < ws.candidates.size(); ++i) {
      EXPECT_LT(ws.candidates[i - 1].global_index, ws.candidates[i].global_index);
    }
  }
  r.candidates = ws.candidates;
  det.stream_end(stream, ws, r.detections);
  return r;
}

/// Bit pattern of a double, so NaN results compare equal to themselves.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_detection(const Detection& a, const Detection& b,
                           const std::string& where) {
  EXPECT_EQ(bits(a.time_s), bits(b.time_s)) << where;
  EXPECT_EQ(bits(a.score), bits(b.score)) << where;
  EXPECT_EQ(bits(a.amplitude), bits(b.amplitude)) << where;
}

void expect_same_candidates(const std::vector<DetectionCandidate>& got,
                            const std::vector<DetectionCandidate>& want,
                            const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::string at = where + " candidate " + std::to_string(i);
    EXPECT_EQ(got[i].global_index, want[i].global_index) << at;
    EXPECT_EQ(bits(got[i].key), bits(want[i].key)) << at;
    expect_same_detection(got[i].detection, want[i].detection, at);
  }
}

void expect_same_detections(const std::vector<Detection>& got,
                            const std::vector<Detection>& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_detection(got[i], want[i], where + " detection " + std::to_string(i));
  }
}

/// The echo competition's runner as a scan of the whole min_spacing window
/// around lag i: the reference for core::strongest_competitor and, over a
/// whole recording's raw correlation, for the offline NLoS pass.
double oracle_echo_runner(std::span<const double> raw, std::size_t i,
                          std::size_t min_spacing, std::size_t exclusion) {
  const std::size_t lo = i > min_spacing ? i - min_spacing : 0;
  const std::size_t hi = std::min(i + min_spacing, raw.size() - 1);
  double runner = 0.0;
  for (std::size_t j = lo + 1; j + 1 <= hi; ++j) {
    const std::size_t gap = j > i ? j - i : i - j;
    if (gap < exclusion) continue;
    const double v = std::abs(raw[j]);
    if (v > runner && std::abs(raw[j]) >= std::abs(raw[j - 1]) &&
        std::abs(raw[j]) > std::abs(raw[j + 1])) {
      runner = v;
    }
  }
  return runner;
}

/// Pass 1 of the detector over the whole recording as ONE array, from the
/// public primitives alone — no chunk, no seam, no stitch: the
/// lag-anchored correlation, the pair-segmented normalizer, the fused
/// scan and refinement at the array neighbors. `raw_out` receives the
/// correlation.
std::vector<DetectionCandidate> oracle_candidates(const MatchedFilterDetector& det,
                                                  std::span<const double> x,
                                                  std::vector<double>* raw_out = nullptr) {
  const std::vector<double>& ref = det.reference();
  const DetectorConfig& cfg = det.config();
  const std::size_t m = ref.size();
  std::vector<double> raw(x.size() - m + 1);
  if (det.chunk_samples(1) * m > kDirectProductLimit) {
    const OlsConvolver ols(std::vector<double>(ref.rbegin(), ref.rend()),
                           choose_ols_fft_size(m, MatchedFilterDetector::kFftCostingWindow));
    Workspace fft;
    ols.correlate_pairs_into(x, 0, raw.data(), fft);
  } else {
    correlate_valid_direct_into(x, ref, raw);
  }
  double energy = 0.0;
  for (double v : ref) energy += v * v;
  std::vector<double> scratch;
  const WindowNormalizer norm(x, m, std::sqrt(energy), scratch, det.pair_lags());
  DetectorWorkspace ws;
  (void)scan_correlation(raw, norm, cfg.threshold, ws);
  std::vector<DetectionCandidate> out;
  for (const std::size_t i : ws.peaks) {
    DetectionCandidate c{Detection{}, std::abs(raw[i]), i};
    c.detection.score = raw[i] / norm.denominator(i);
    double offset = 0.0;
    double value = raw[i];
    if (i > 0 && i + 1 < raw.size()) {
      const ParabolicFit fit = parabolic_fit(raw[i - 1], raw[i], raw[i + 1]);
      offset = fit.offset;
      value = fit.value;
    }
    c.detection.time_s = (static_cast<double>(i) + offset) / cfg.sample_rate;
    c.detection.amplitude = std::abs(value);
    out.push_back(c);
  }
  if (raw_out != nullptr) *raw_out = std::move(raw);
  return out;
}

/// Run the incremental caller protocol on the schedule of `pairs` pairs:
/// reveal the recording in slices of the given sizes (cycled), process
/// every chunk as soon as STRICTLY more than its end is available
/// (certainly full, certainly non-final), then drain the rest once the
/// length is known.
std::vector<Detection> stream_detect(const MatchedFilterDetector& det,
                                     std::span<const double> x,
                                     const std::vector<std::size_t>& slice_sizes,
                                     std::size_t pairs) {
  const std::size_t ref_len = det.reference().size();
  const std::size_t chunk = det.chunk_samples(pairs);
  DetectorWorkspace ws;
  DetectorStream stream;
  det.stream_begin(stream, ws);
  std::size_t avail = 0;
  std::size_t cursor = 0;
  while (avail < x.size()) {
    avail = std::min(x.size(),
                     avail + slice_sizes[cursor++ % slice_sizes.size()]);
    while (avail > stream.next_start + chunk) {
      det.stream_chunk(x.subspan(stream.next_start, chunk), false, stream, ws);
    }
  }
  while (x.size() >= ref_len && stream.next_start <= x.size() - ref_len) {
    const std::size_t start = stream.next_start;
    const std::size_t len = std::min(chunk, x.size() - start);
    const bool final_chunk = start + len == x.size();
    det.stream_chunk(x.subspan(start, len), final_chunk, stream, ws);
    if (final_chunk) break;
  }
  std::vector<Detection> out;
  det.stream_end(stream, ws, out);
  return out;
}

TEST(MatchedFilter, ChunkingIsSeamless) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(50);
  // Recording much longer than one chunk, with a chirp near each boundary.
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  const MatchedFilterDetector detector(chirp.reference(kFs), cfg);
  const std::size_t pairs = 1;  // ~0.27 s chunks
  const double boundary = static_cast<double>(pairs * detector.pair_lags()) / kFs;
  const std::vector<double> starts{boundary - 0.02, 2.0 * boundary - 0.02, 1.0};
  const std::vector<double> x = make_recording(chirp, starts, 2.0, 0.01, rng);
  const auto detections = run_schedule(detector, x, pairs).detections;
  EXPECT_EQ(detections.size(), 3u);
}

TEST(MatchedFilter, MinSpacingInvariantToChunkPartition) {
  // Regression: min spacing was once enforced per chunk (plus a merge pass
  // that only compared adjacent chunks), so the set of survivors depended
  // on where the chunk boundaries fell. Three arrivals — the middle one
  // within min spacing of both neighbours — must resolve to the same two
  // survivors whether the cluster is split across small chunks or seen
  // whole by one big chunk.
  const Chirp chirp{ChirpParams{}};
  Rng rng(51);
  // With one-pair chunks of a 2205-sample reference (11976 lags) the lag
  // boundary at 2*11976 = 23952 splits the cluster below between the
  // middle and last arrival.
  const double t1 = 20000.0 / kFs;
  const double t2 = 22600.0 / kFs;
  const double t3 = 25200.0 / kFs;
  std::vector<double> x = make_recording(chirp, {t1}, 1.0, 0.005, rng, 0.5);
  {
    Rng r2(52);
    const auto b = make_recording(chirp, {t2}, 1.0, 0.0, r2, 0.6);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += b[i];
  }
  {
    Rng r3(53);
    const auto c = make_recording(chirp, {t3}, 1.0, 0.0, r3, 0.7);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += c[i];
  }
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  cfg.min_spacing_s = 5000.0 / kFs;  // middle conflicts with both ends
  const MatchedFilterDetector det(chirp.reference(kFs), cfg);
  ASSERT_EQ(det.pair_lags(), 11976u);
  const auto small_d = run_schedule(det, x, 1).detections;  // boundary inside the cluster
  const auto big_d = run_schedule(det, x, whole_pairs(det, x.size())).detections;

  // Strongest-first: the 0.7 arrival wins, evicts the 0.6 inside its
  // spacing window, and the 0.5 (far enough from the winner) survives.
  ASSERT_EQ(big_d.size(), 2u);
  ASSERT_EQ(small_d.size(), big_d.size());
  for (std::size_t i = 0; i < big_d.size(); ++i) {
    // Every chunk length runs the same transforms: not a bit may differ.
    EXPECT_EQ(small_d[i].time_s, big_d[i].time_s);
  }
  EXPECT_NEAR(big_d[0].time_s, t1, 1e-4);
  EXPECT_NEAR(big_d[1].time_s, t3, 1e-4);
}

TEST(MatchedFilter, ArrivalOnChunkSeamDetectedOnce) {
  // Land the correlation peak exactly on the final lag of a chunk: the
  // local-maximum test needs the first lag of the NEXT chunk, so the
  // candidate must be deferred across the seam — and must not be reported
  // by both chunks.
  const Chirp chirp{ChirpParams{}};
  Rng rng(54);
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  const std::vector<double>& ref = chirp.reference(kFs);
  const MatchedFilterDetector det(ref, cfg);
  const std::size_t peak = 3 * det.pair_lags() - 1;  // last lag of one-pair chunk 2
  const double t0 = static_cast<double>(peak) / kFs;
  const std::vector<double> x = make_recording(chirp, {t0}, 1.0, 0.005, rng);
  const auto detections = run_schedule(det, x, 1).detections;
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_NEAR(detections[0].time_s, t0, 1e-4);
}

TEST(MatchedFilter, StreamProtocolBitIdenticalToDetectAcrossChunkings) {
  // The detector half of the streaming tentpole: the stream_begin /
  // stream_chunk / stream_end protocol driven by ANY arrival pattern of
  // samples must reproduce detect() bit for bit — candidates are keyed to
  // the chunk schedule, never to how a caller buffered the audio.
  const Chirp chirp{ChirpParams{}};
  Rng rng(55);
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  const std::vector<double>& ref = chirp.reference(kFs);
  const MatchedFilterDetector det(ref, cfg);
  const std::size_t pair = det.pair_lags();
  const std::vector<double> starts{0.1, 2.0 * static_cast<double>(pair) / kFs - 0.01,
                                   static_cast<double>(4 * pair - 1) / kFs, 1.3};
  const std::vector<double> x = make_recording(chirp, starts, 1.6, 0.01, rng);
  const std::vector<Detection> expect = detect(det, x);
  ASSERT_EQ(expect.size(), starts.size());
  for (const std::vector<std::size_t>& slices :
       {std::vector<std::size_t>{x.size()}, std::vector<std::size_t>{1009},
        std::vector<std::size_t>{1u << 14},
        std::vector<std::size_t>{3, 8191, 1, 20011}}) {
    const std::vector<Detection> got = stream_detect(det, x, slices, det.chunk_pairs());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].time_s, expect[i].time_s) << i;
      EXPECT_EQ(got[i].score, expect[i].score) << i;
      EXPECT_EQ(got[i].amplitude, expect[i].amplitude) << i;
    }
  }
}

TEST(MatchedFilter, SeamLagsRefinedLikeOneChunk) {
  // Regression: a candidate on a chunk's first or last lag used to keep
  // its integer lag (refine_peak has no neighbor at an array edge) although
  // the missing neighbor is the adjacent chunk's edge lag, so an arrival
  // on a seam was reported up to half a sample off. Fractional arrivals on
  // both seam lags must match the schedule that sees the recording as one
  // chunk, in batch and streamed.
  const Chirp chirp{ChirpParams{}};
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  const std::vector<double>& ref = chirp.reference(kFs);
  const MatchedFilterDetector det(ref, cfg);
  const std::size_t seam = 3 * det.pair_lags();  // first lag of one-pair chunk 3
  std::uint64_t seed = 60;
  for (const std::size_t lag : {seam - 1, seam}) {
    for (const double frac : {0.25, -0.30, 0.45}) {
      Rng rng(seed++);
      const double t0 = (static_cast<double>(lag) + frac) / kFs;
      const std::vector<double> x = make_recording(chirp, {t0}, 1.0, 0.005, rng);
      const std::vector<Detection> want =
          run_schedule(det, x, whole_pairs(det, x.size())).detections;
      ASSERT_EQ(want.size(), 1u);
      // The correlation peak really sits on one of the two seam lags.
      const double peak_lag = std::floor(want[0].time_s * kFs + 0.5);
      ASSERT_TRUE(peak_lag == static_cast<double>(seam - 1) ||
                  peak_lag == static_cast<double>(seam))
          << "lag " << lag << " frac " << frac;
      const std::vector<std::size_t> slices{1009};
      for (const std::vector<Detection>& got :
           {run_schedule(det, x, 1).detections, stream_detect(det, x, slices, 1)}) {
        ASSERT_EQ(got.size(), 1u);
        EXPECT_NEAR(got[0].time_s, want[0].time_s, 1e-9)
            << "lag " << lag << " frac " << frac;
        EXPECT_NEAR(got[0].amplitude, want[0].amplitude, 1e-9 * want[0].amplitude)
            << "lag " << lag << " frac " << frac;
      }
    }
  }
}

/// A recording for the chunk-length property tests: a 0.2 s beacon train
/// with two echoes per arrival (10 ms and 35 ms late), plus lone arrivals
/// on, beside and within min_spacing of the seams of the one-pair grid,
/// and two pairs 55 lags (1.25 ms, just outside the echo-competition
/// exclusion) apart that straddle a seam, so a candidate beside the seam
/// has its strongest competitor just across it.
std::vector<double> seam_recording(const Chirp& chirp, std::size_t pair, Rng& rng) {
  std::vector<double> direct;
  for (int k = 0; k < 21; ++k) direct.push_back(0.07 + 0.2 * k);
  const auto at_lag = [](double lag) { return lag / kFs; };
  const auto p = static_cast<double>(pair);
  for (const double lag : {p - 1.0, 2.0 * p + 0.3, 3.0 * p - 1.4, 4.0 * p + 150.0,
                           6.0 * p - 2000.0, 8.0 * p + 4000.0, 10.0 * p - 0.5,
                           12.0 * p + 10.0, 12.0 * p - 45.0, 14.0 * p - 10.0,
                           14.0 * p + 45.0}) {
    direct.push_back(at_lag(lag));
  }
  std::vector<double> x = make_recording(chirp, direct, 4.6, 0.02, rng);
  for (const auto& [delay, gain] : {std::pair{0.010, 0.6}, std::pair{0.035, 0.3}}) {
    std::vector<double> echoes;
    for (const double t : direct) echoes.push_back(t + delay);
    Rng silent(0);
    const std::vector<double> e = make_recording(chirp, echoes, 4.6, 0.0, silent, gain);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += e[i];
  }
  return x;
}

TEST(MatchedFilter, DetectionsByteIdenticalForEveryChunkLength) {
  // The detector's contract: a chunk is any whole number of OLS pairs, and
  // every chunk length yields the same candidates and detections to the
  // last bit — the one-pair schedule every caller runs, a few small ones,
  // and the whole recording as one chunk. One config has a min_spacing
  // wider than a pair (reachable through asp.min_event_spacing_s), so the
  // min-spacing pass then spans several one-pair chunks.
  const Chirp chirp{ChirpParams{}};
  const std::vector<double>& ref = chirp.reference(kFs);
  DetectorConfig narrow;
  narrow.sample_rate = kFs;
  DetectorConfig wide = narrow;
  wide.min_spacing_s = 0.5 * 0.6;
  Rng rng(57);
  for (const DetectorConfig& cfg : {narrow, wide}) {
    const MatchedFilterDetector det(ref, cfg);
    const std::vector<double> x = seam_recording(chirp, det.pair_lags(), rng);
    const std::size_t whole = whole_pairs(det, x.size());
    const std::string name = "min_spacing " + std::to_string(cfg.min_spacing_s);
    EXPECT_EQ(det.chunk_pairs(), 1u) << name;
    const ScheduleRun want = run_schedule(det, x, whole);
    ASSERT_GE(want.detections.size(), 5u) << name;
    for (const std::size_t pairs : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
      const std::string where = name + " pairs " + std::to_string(pairs);
      const ScheduleRun got = run_schedule(det, x, pairs);
      ASSERT_EQ(got.passes.size(), det.chunk_count(x.size(), pairs)) << where;
      expect_same_candidates(got.candidates, want.candidates, where);
      expect_same_detections(got.detections, want.detections, where);
    }
    std::vector<Detection> batch;
    DetectorWorkspace ws;
    det.detect_into(x, ws, batch);
    expect_same_detections(batch, want.detections, name + " detect_into");
    expect_same_detections(stream_detect(det, x, {3, 8191, 1, 20011}, 1),
                           want.detections, name + " streamed");
  }
}

TEST(MatchedFilter, EchoWindowIsClippedOnlyAtTheRecordingEnds) {
  // The stitched candidates against a brute-force oracle over the whole
  // recording as one array: same lags, scores and refinement. Then the
  // offline NLoS pass over those candidates: each one's lag is its time
  // times the sample rate, rounded, and its echo runner is the largest
  // |raw| local maximum of (i - min_spacing, i + min_spacing) outside the
  // exclusion zone, found by scanning the whole recording's correlation —
  // whichever chunk the lags fall in.
  const Chirp chirp{ChirpParams{}};
  const std::vector<double>& ref = chirp.reference(kFs);
  DetectorConfig narrow;
  narrow.sample_rate = kFs;
  DetectorConfig wide = narrow;
  wide.min_spacing_s = 0.5 * 0.6;
  Rng rng(58);
  for (const DetectorConfig& cfg : {narrow, wide}) {
    const MatchedFilterDetector det(ref, cfg);
    const std::vector<double> x = seam_recording(chirp, det.pair_lags(), rng);
    std::vector<double> raw;
    const std::vector<DetectionCandidate> want = oracle_candidates(det, x, &raw);
    const std::string name = "min_spacing " + std::to_string(cfg.min_spacing_s);
    expect_same_candidates(run_schedule(det, x, 1).candidates, want, name);
    std::vector<Detection> detections;
    for (const DetectionCandidate& c : want) detections.push_back(c.detection);
    std::vector<core::ChirpEvent> events;
    core::convert_chirp_events(detections, events);
    const std::vector<double> ratios = core::echo_competition(det, x, events);
    ASSERT_EQ(ratios.size(), want.size()) << name;
    // The seams matter: some candidates' strongest competitor lies in
    // another one-pair chunk, beyond where a chunk-clipped window ends.
    const std::size_t chunk = det.pair_lags();
    const auto exclusion = static_cast<std::size_t>(1.2e-3 * kFs);
    std::size_t crossing = 0;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const DetectionCandidate& c = want[k];
      EXPECT_EQ(std::llround(c.detection.time_s * kFs),
                static_cast<long long>(c.global_index))
          << name << " candidate " << k;
      const double unclipped =
          oracle_echo_runner(raw, c.global_index, det.min_spacing_lags(), exclusion);
      EXPECT_EQ(bits(ratios[k]), bits(unclipped / c.detection.amplitude))
          << name << " candidate " << k;
      const std::size_t first = c.global_index / chunk * chunk;
      const std::size_t end = std::min(first + chunk, raw.size());
      const std::span<const double> own(raw.data() + first, end - first);
      const double clipped = oracle_echo_runner(own, c.global_index - first,
                                                det.min_spacing_lags(), exclusion);
      if (unclipped > clipped) ++crossing;
    }
    EXPECT_GT(crossing, 5u) << name;
  }
}

// --- chunk_pass + stitch ---------------------------------------------------

/// A detector small enough for the direct correlation path (one pair's
/// window x reference <= kDirectProductLimit), so the oracle computes its
/// raw correlation with the direct sum.
struct SmallDetector {
  static constexpr std::size_t kRef = 48;
  std::vector<double> reference;
  MatchedFilterDetector det;

  SmallDetector() : reference(make_reference()), det(reference, config()) {}

  /// A Hann-windowed 1.5-4.5 kHz chirp: its correlation main lobe spans
  /// several lags above the gate, so a peak on a seam lag has gated
  /// neighbors on the far side of the seam that the stitch must reject.
  static std::vector<double> make_reference() {
    std::vector<double> ref(kRef);
    const double n = static_cast<double>(kRef);
    for (std::size_t j = 0; j < kRef; ++j) {
      const double t = static_cast<double>(j) / kFs;
      const double duration = n / kFs;
      const double phase = 2.0 * kPi * (1500.0 * t + 0.5 * (3000.0 / duration) * t * t);
      const double hann = 0.5 - 0.5 * std::cos(2.0 * kPi * (static_cast<double>(j) + 0.5) / n);
      ref[j] = hann * std::sin(phase);
    }
    return ref;
  }
  static DetectorConfig config() {
    DetectorConfig cfg;
    cfg.sample_rate = kFs;
    cfg.min_spacing_s = 0.002;
    cfg.threshold = 0.5;
    return cfg;
  }
  /// Lags per chunk of the two-pair schedule the tests below run.
  [[nodiscard]] std::size_t chunk_lags() const { return 2 * det.pair_lags(); }
  /// Noise plus a copy of the reference starting at each of `lags`.
  std::vector<double> recording(std::size_t n, const std::vector<std::size_t>& lags,
                                std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<double> x = rng.gaussian_vector(n);
    for (double& v : x) v *= 0.02;
    for (const std::size_t lag : lags) {
      for (std::size_t j = 0; j < kRef; ++j) x[lag + j] += reference[j];
    }
    return x;
  }
};

TEST(MatchedFilter, ChunkPassAndStitchMatchTheSerialChunkStep) {
  // Chunk passes run out of order and stitched in order against the
  // detector's pass 1 computed serially over the whole recording as one
  // array (oracle_candidates), candidate for candidate and bit for bit.
  const SmallDetector small;
  ASSERT_LE(small.det.chunk_samples(1) * SmallDetector::kRef, kDirectProductLimit);
  const std::size_t hop = small.chunk_lags();
  const std::size_t ref = SmallDetector::kRef;
  // A peak exactly on a chunk's first lag (head), on a chunk's last lag
  // (tail, resolved by the next chunk), and alone in a one-lag final chunk
  // (head and final at once), plus interior peaks around them.
  // The correlation main lobe spans several gated lags, so each seam peak
  // leaves an edge candidate on the far side of the seam that the stitch
  // must drop: the rising lobe's last lag before a first-lag peak (a tail
  // that loses against the next chunk's first lag), or the falling lobe's
  // first lag after a last-lag peak (a head that fails the left-neighbor
  // test).
  struct Case {
    const char* name;
    std::size_t n;
    std::vector<std::size_t> lags;
    std::size_t seam_lag;
    std::size_t seam_chunk;  ///< the chunk whose first lag is at or after the seam
  };
  const std::vector<Case> cases{
      {"first lag", 5 * hop + 400, {2 * hop, 2 * hop + 300, 700}, 2 * hop, 2},
      {"last lag", 5 * hop + 400, {2 * hop - 1, 2 * hop - 400, 4 * hop + 10}, 2 * hop - 1,
       2},
      {"one-lag final chunk", 3 * hop + ref, {3 * hop, 3 * hop - 200}, 3 * hop, 3},
  };
  std::uint64_t seed = 91;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<double> x = small.recording(c.n, c.lags, seed++);
    const ScheduleRun run = run_schedule(small.det, x, 2);
    expect_same_candidates(run.candidates, oracle_candidates(small.det, x), c.name);
    const std::vector<ChunkPass>& passes = run.passes;
    ASSERT_GT(passes.size(), c.seam_chunk);
    EXPECT_TRUE(passes[c.seam_chunk].head.has_value());
    EXPECT_TRUE(passes[c.seam_chunk - 1].tail.has_value());
    if (c.n == 3 * hop + ref) {
      ASSERT_EQ(passes.size(), 4u);
      const ChunkSpan last = small.det.chunk_span(3, x.size(), 2);
      EXPECT_EQ(last.size, ref);  // one lag
      EXPECT_TRUE(last.final_chunk);
      EXPECT_FALSE(passes[3].tail.has_value());
    }
    // The seam peak is detected, on its lag.
    const std::vector<Detection> found = detect(small.det, x);
    const bool seen = std::any_of(found.begin(), found.end(), [&](const Detection& d) {
      return std::abs(d.time_s * kFs - static_cast<double>(c.seam_lag)) < 0.5;
    });
    EXPECT_TRUE(seen);
  }
}

TEST(MatchedFilter, ChunkScheduleMatchesTheStreamingLoop) {
  // chunk_count/chunk_span against the schedule loop every streaming
  // caller runs: chunks of whole pairs of lags, the last one clipped to
  // the recording's lags, each reading its lags plus reference - 1 samples.
  const SmallDetector small;
  const std::size_t ref = SmallDetector::kRef;
  for (const std::size_t pairs : {1u, 2u, 3u}) {
    const std::size_t chunk_lags = pairs * small.det.pair_lags();
    EXPECT_EQ(small.det.chunk_samples(pairs), chunk_lags + ref - 1);
    for (std::size_t n = 0; n < 4 * chunk_lags; n += (n < 2 * chunk_lags ? 1 : 7)) {
      std::vector<ChunkSpan> want;
      const std::size_t lags = n >= ref ? n - ref + 1 : 0;
      for (std::size_t start = 0; start < lags; start += chunk_lags) {
        const std::size_t end = std::min(start + chunk_lags, lags);
        want.push_back({start, end - start + ref - 1, end == lags});
      }
      ASSERT_EQ(small.det.chunk_count(n, pairs), want.size()) << "n " << n;
      for (std::size_t k = 0; k < want.size(); ++k) {
        const ChunkSpan got = small.det.chunk_span(k, n, pairs);
        EXPECT_EQ(got.start, want[k].start) << "n " << n << " k " << k;
        EXPECT_EQ(got.size, want[k].size) << "n " << n << " k " << k;
        EXPECT_EQ(got.final_chunk, want[k].final_chunk) << "n " << n << " k " << k;
        EXPECT_EQ(got.start + got.size == n, got.final_chunk) << "n " << n << " k " << k;
      }
    }
  }
}

TEST(MatchedFilter, DirectCorrelationReusesTheChunkBuffer) {
  // Below kDirectProductLimit the detector has no cached convolver and
  // correlates each chunk directly — into the workspace's raw buffer,
  // whose storage must survive from one detect_into call to the next.
  const SmallDetector small;
  const std::vector<double> x =
      small.recording(3 * small.chunk_lags() + 500, {100, 1500, 2500}, 95);
  DetectorWorkspace ws;
  std::vector<Detection> first;
  small.det.detect_into(x, ws, first);
  ASSERT_FALSE(first.empty());
  const double* raw = ws.raw.data();
  std::vector<Detection> second;
  small.det.detect_into(x, ws, second);
  EXPECT_EQ(ws.raw.data(), raw);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(bits(second[i].time_s), bits(first[i].time_s)) << i;
    EXPECT_EQ(bits(second[i].score), bits(first[i].score)) << i;
    EXPECT_EQ(bits(second[i].amplitude), bits(first[i].amplitude)) << i;
  }
}

/// Raw-correlation arrays that stress the competitor scan and the gate:
/// seeded noise, quantized plateaus, NaN/±Inf sprinkled in, constants, and
/// values on the gate's threshold to the last ulp.
std::vector<std::vector<double>> adversarial_raws(std::size_t n,
                                                  const WindowNormalizer& norm,
                                                  double threshold, Rng& rng) {
  std::vector<std::vector<double>> raws;
  raws.push_back(rng.gaussian_vector(n));
  std::vector<double> plateau = rng.gaussian_vector(n);
  for (double& v : plateau) v = std::round(2.0 * v) / 2.0;
  raws.push_back(plateau);
  std::vector<double> special = rng.gaussian_vector(n);
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; k += 7) {
    special[k] = std::array{std::numeric_limits<double>::quiet_NaN(), inf, -inf}[k % 3];
  }
  raws.push_back(special);
  raws.push_back(std::vector<double>(n, 0.0));
  raws.push_back(std::vector<double>(n, 1.5));
  std::vector<double> edge(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double on_gate = threshold * norm.denominator(k);
    const int ulps = static_cast<int>(k % 5) - 2;
    edge[k] = on_gate + ulps * std::numeric_limits<double>::epsilon() * on_gate;
    if (k % 11 == 0) edge[k] = on_gate / std::sqrt(2.0);  // the skip margin
  }
  raws.push_back(edge);
  return raws;
}

TEST(EchoCompetition, CompetitorScanMatchesWindowScanOracle) {
  // core::strongest_competitor, the offline NLoS pass's scan, must
  // reproduce the full window scan bit for bit: at every lag (including
  // the first and the last), for windows clipped at both ends of the
  // correlation, and for exclusion >= min_spacing.
  Rng rng(4242);
  const double threshold = 0.25;
  for (const std::size_t n : {1u, 2u, 3u, 255u, 256u, 257u, 512u, 513u, 1031u}) {
    const std::size_t h_size = 16;
    const std::vector<double> x = rng.gaussian_vector(n + h_size - 1);
    std::vector<double> prefix;
    const WindowNormalizer norm(x, h_size, 1.0, prefix);
    for (const std::vector<double>& raw : adversarial_raws(n, norm, threshold, rng)) {
      for (const std::size_t min_spacing :
           {0u, 1u, 2u, 128u, 255u, 256u, 257u, 384u, 512u, 2000u}) {
        const std::size_t exclusions[] = {0, 1, 52, min_spacing, min_spacing + 1};
        for (const std::size_t exclusion : exclusions) {
          for (std::size_t i = 0; i < n; ++i) {
            const double want = oracle_echo_runner(raw, i, min_spacing, exclusion);
            const double got = core::strongest_competitor(raw, i, min_spacing, exclusion);
            ASSERT_EQ(bits(got), bits(want))
                << "n=" << n << " i=" << i << " spacing=" << min_spacing
                << " exclusion=" << exclusion;
          }
        }
      }
    }
  }
}

TEST(EchoCompetition, FusedScanMatchesSeparatePasses) {
  // scan_correlation's gate and peak pick against the separate passes the
  // detector ran before: normalize, mask at the threshold, then test local
  // maxima of the masked |raw| inside the chunk.
  Rng rng(4343);
  const double threshold = 0.25;
  for (const std::size_t n : {1u, 2u, 3u, 256u, 257u, 1031u}) {
    const std::size_t h_size = 16;
    const std::vector<double> x = rng.gaussian_vector(n + h_size - 1);
    std::vector<double> prefix;
    const WindowNormalizer norm(x, h_size, 1.0, prefix);
    for (const std::vector<double>& raw : adversarial_raws(n, norm, threshold, rng)) {
      const std::vector<double> normalized =
          oracle::normalize_correlation(raw, x, h_size, 1.0);
      std::vector<double> masked(n);
      for (std::size_t k = 0; k < n; ++k) {
        masked[k] = normalized[k] >= threshold ? std::abs(raw[k]) : 0.0;
      }
      std::vector<std::size_t> want;
      for (std::size_t k = 0; k < n; ++k) {
        if (masked[k] < 1e-12) continue;
        if (k > 0 && !(masked[k] >= masked[k - 1])) continue;
        if (k + 1 < n && !(masked[k] > masked[k + 1])) continue;
        want.push_back(k);
      }
      DetectorWorkspace ws;
      const CorrelationScan scan = scan_correlation(raw, norm, threshold, ws);
      EXPECT_EQ(ws.peaks, want) << "n=" << n;
      EXPECT_EQ(bits(scan.first_masked), bits(masked.front())) << "n=" << n;
      EXPECT_EQ(bits(scan.last_masked), bits(masked.back())) << "n=" << n;
    }
  }
}

TEST(MatchedFilter, ShortRecordingClearsStaleStateAndTelemetry) {
  // Regression (the detect_into early-return bug): a recording shorter than
  // the reference used to return before clearing `out` and `ws.candidates`,
  // so a warmed workspace leaked the PREVIOUS session's detections into the
  // short one, and the telemetry counted chunks that never streamed. The
  // short path must behave exactly like a zero-chunk stream: outputs
  // cleared, candidates cleared, zero chunks / zero detections recorded.
  const Chirp chirp{ChirpParams{}};
  Rng rng(56);
  const MatchedFilterDetector det = make_detector(chirp);
  DetectorWorkspace ws;
  std::vector<Detection> out;

  // Warm the workspace with a real session so stale state exists.
  const std::vector<double> warm = make_recording(chirp, {0.3, 0.5}, 1.0, 0.01, rng);
  det.detect_into(warm, ws, out);
  ASSERT_EQ(out.size(), 2u);

  obs::MetricsRegistry m;
  const obs::ObsContext obs{&m, nullptr, 0};
  for (const std::size_t n : {std::size_t{0}, std::size_t{100},
                              det.reference().size() - 1}) {
    const std::vector<double> shorty(n, 0.0);
    det.detect_into(shorty, ws, out, &obs);
    EXPECT_TRUE(out.empty()) << "stale detections leaked, n=" << n;
    EXPECT_TRUE(ws.candidates.empty()) << "stale candidates leaked, n=" << n;
  }
  EXPECT_EQ(m.counter("detector.chunks_total").value(), 0.0);
  EXPECT_EQ(m.counter("detector.candidates_total").value(), 0.0);
  EXPECT_EQ(m.counter("detector.detections_total").value(), 0.0);
}

TEST(MatchedFilter, ConfigValidation) {
  const Chirp chirp{ChirpParams{}};
  DetectorConfig cfg;
  // The spacing becomes a lag count: anything but a positive finite value
  // is rejected before the conversion.
  for (const double spacing : {0.0, -0.1, std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(), 1e300}) {
    cfg.min_spacing_s = spacing;
    EXPECT_THROW(MatchedFilterDetector(chirp.reference(kFs), cfg), PreconditionError)
        << spacing;
  }
  cfg = DetectorConfig{};
  cfg.sample_rate = std::numeric_limits<double>::infinity();
  EXPECT_THROW(MatchedFilterDetector(chirp.reference(kFs), cfg), PreconditionError);
  cfg = DetectorConfig{};
  cfg.threshold = 1.5;
  EXPECT_THROW(MatchedFilterDetector(chirp.reference(kFs), cfg), PreconditionError);
  EXPECT_THROW(MatchedFilterDetector(std::vector<double>{}, DetectorConfig{}),
               PreconditionError);
}

TEST(MatchedFilter, ShortRecordingYieldsNothing) {
  const Chirp chirp{ChirpParams{}};
  const std::vector<double> x(100, 0.0);
  EXPECT_TRUE(detect(make_detector(chirp), x).empty());
}

/// One golden detection: refined arrival time (s), normalized score,
/// amplitude.
struct GoldenDetection {
  double time_s;
  double score;
  double amplitude;
};

// Recorded with the radix-2 std::complex FFT kernel the current one
// replaced, for the session built in GoldenSessionDetections below.
constexpr GoldenDetection kGoldenMic1[] = {
    {0.096460595437187491, 0.9004760269511165, 3.7053793279269502},
    {0.29646321876648996, 0.90273604181592615, 3.7321083278526905},
    {0.49646549951019586, 0.89886812003497862, 3.7205714058316959},
    {0.69646789133824749, 0.89135722849879706, 3.7297950508165618},
    {0.89647044651031416, 0.87639484329694717, 3.6851290165310377},
    {1.0964730527027027, 0.86062917962906049, 3.7005467755974575},
    {1.2964757472502013, 0.86661837751162041, 3.7021901355032978},
    {1.4964782582320373, 0.88330851589027948, 3.6891624425163196},
    {1.6964809726750136, 0.89431131563971955, 3.7191586093275366},
    {1.8964833438017834, 0.89911255763100673, 3.7232981099208233},
    {2.0964849503029375, 0.90309380836692443, 3.6991285855331832},
    {2.2964849952391426, 0.90567637845142523, 3.7053200216186633},
    {2.4965024330553232, 0.88977016414936205, 3.7055819408205073},
    {2.6965411055844437, 0.85946671875627134, 3.7123203360726733},
    {2.8965649682465227, 0.85536622570810728, 3.6617241284749955},
    {3.0965686302622992, 0.87880731967239101, 3.6784056375804797},
    {3.2965714085291902, 0.89227078856575881, 3.6943265249904589},
    {3.4965736873857955, 0.89892041782081977, 3.6871559825903528},
    {3.6965760287954383, 0.90284087653194434, 3.7030660180802788},
    {3.8965786971690322, 0.90023932939050255, 3.7010222170949465},
    {4.096580976834689, 0.89137028365508064, 3.6886616792764704},
};
constexpr GoldenDetection kGoldenMic2[] = {
    {0.096457945768628206, 0.89814793534532689, 3.7326337822145224},
    {0.29646042303016523, 0.90548380544265417, 3.7374849941790576},
    {0.49646281847312035, 0.90477520087668184, 3.7222959071562145},
    {0.69646522646212228, 0.90412140963700238, 3.7345178757451456},
    {0.8964679023796176, 0.89467258189774546, 3.7349653314266296},
    {1.0964699797558017, 0.88570698908255963, 3.7213147228711629},
    {1.2964727690072422, 0.86821171962381805, 3.7216282141110275},
    {1.4964756164217636, 0.87069903298661255, 3.7229348720755389},
    {1.6964782380836312, 0.8871164727208557, 3.7221093779344105},
    {1.8964807267939661, 0.89754320998046599, 3.7328351048524775},
    {2.0964832939054401, 0.90588480539158889, 3.7644068858532442},
    {2.2964924085440614, 0.8806005527174533, 3.7350450393515118},
    {2.4965285587565686, 0.9011618132684811, 3.6935352959741414},
    {2.696584803286143, 0.86765030035560164, 3.662602986533761},
    {2.8966157057379527, 0.89098800001632328, 3.656209559837559},
    {3.0966194802213431, 0.90149932270614075, 3.6560247116570213},
    {3.2966216703933848, 0.90351054150674015, 3.6724468686572331},
    {3.4966240650574854, 0.89934348615451554, 3.6507857013966278},
    {3.6966266355864255, 0.89021542944644949, 3.6513418020648247},
    {3.8966291261826842, 0.87827766097563309, 3.6631987808234463},
    {4.0966320194262442, 0.85984370408706601, 3.6373478561409422},
};

TEST(MatchedFilter, GoldenSessionDetections) {
  // Golden A/B guard for FFT-kernel changes: the pipeline's band-pass +
  // detect_into pass over both channels of one fixed seeded session must
  // reproduce the recorded detections — same count, times within 1e-9 s,
  // score and amplitude within 1e-9 relative. A kernel can be accurate
  // against a DFT and still move detections; this catches that.
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 1;
  c.calibration_duration = 2.0;
  c.jitter = sim::ruler_jitter();
  Rng rng(1212);
  const sim::Session s = sim::make_localization_session(c, rng);
  const double fs = s.audio.sample_rate;
  // The default AspOptions band (chirp band widened by 200 Hz, 255 taps)
  // and detector settings.
  const double lo = std::max(s.prior.chirp.freq_low_hz - 200.0, 50.0);
  const double hi = std::min(s.prior.chirp.freq_high_hz + 200.0, fs / 2.0 - 50.0);
  const OlsConvolver bandpass(design_bandpass(lo, hi, fs, 255));
  DetectorConfig cfg;
  cfg.sample_rate = fs;
  cfg.threshold = 0.22;
  cfg.min_spacing_s = 0.12;
  const Chirp chirp{s.prior.chirp};
  const MatchedFilterDetector det(chirp.reference(fs), cfg);

  const auto check = [&](const std::vector<double>& mic,
                         std::span<const GoldenDetection> golden, const char* name) {
    Workspace ws;
    std::vector<double> filtered;
    filter_same_into(mic, bandpass, filtered, ws);
    DetectorWorkspace dws;
    std::vector<Detection> got;
    det.detect_into(filtered, dws, got);
    ASSERT_EQ(got.size(), golden.size()) << name;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_NEAR(got[i].time_s, golden[i].time_s, 1e-9) << name << " #" << i;
      EXPECT_NEAR(got[i].score, golden[i].score, 1e-9 * std::abs(golden[i].score))
          << name << " #" << i;
      EXPECT_NEAR(got[i].amplitude, golden[i].amplitude,
                  1e-9 * std::abs(golden[i].amplitude))
          << name << " #" << i;
    }
  };
  check(s.audio.mic1, kGoldenMic1, "mic1");
  check(s.audio.mic2, kGoldenMic2, "mic2");
}

}  // namespace
}  // namespace hyperear::dsp
