#include "dsp/matched_filter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/chirp.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "dsp/ols.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"

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

TEST(MatchedFilter, DetectsSingleChirp) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(41);
  const std::vector<double> x = make_recording(chirp, {0.3}, 1.0, 0.01, rng);
  const auto detections = make_detector(chirp).detect(x);
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
  const auto detections = make_detector(chirp).detect(x);
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
  const auto detections = make_detector(chirp).detect(x);
  ASSERT_EQ(detections.size(), starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    EXPECT_NEAR(detections[i].time_s, starts[i], 1e-4);
  }
}

TEST(MatchedFilter, NoFalsePositivesInNoise) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(44);
  const std::vector<double> x = make_recording(chirp, {}, 1.5, 0.1, rng);
  EXPECT_TRUE(make_detector(chirp).detect(x).empty());
}

TEST(MatchedFilter, SurvivesLowSnr) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(45);
  // In-band chirp RMS ~ 0.6 over its support; noise RMS 0.5 across the
  // band is roughly 0 dB broadband; the matched filter gain is ~23 dB.
  const std::vector<double> x = make_recording(chirp, {0.5, 0.7, 0.9}, 1.5, 0.5, rng);
  const auto detections = make_detector(chirp).detect(x);
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
  const auto detections = make_detector(chirp).detect(x);
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
  const auto detections = make_detector(chirp).detect(x);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_NEAR(detections[0].time_s, 0.5, 5e-4);
}

TEST(MatchedFilter, ChunkingIsSeamless) {
  const Chirp chirp{ChirpParams{}};
  Rng rng(50);
  // Recording much longer than one chunk, with a chirp near each boundary.
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  cfg.chunk = 1u << 14;  // ~0.37 s chunks
  const double boundary = static_cast<double>(cfg.chunk) / kFs;
  const std::vector<double> starts{boundary - 0.02, 2.0 * boundary - 0.02, 1.0};
  const std::vector<double> x = make_recording(chirp, starts, 2.0, 0.01, rng);
  const MatchedFilterDetector detector(chirp.reference(kFs), cfg);
  const auto detections = detector.detect(x);
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
  // With chunk 8192 and a 2205-sample reference the hop is 5988, so the
  // lag boundary at 3*5988 = 17964 splits the cluster below between the
  // middle and last arrival.
  const double t1 = 14000.0 / kFs;
  const double t2 = 16600.0 / kFs;
  const double t3 = 19200.0 / kFs;
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
  DetectorConfig small_cfg;
  small_cfg.sample_rate = kFs;
  small_cfg.min_spacing_s = 5000.0 / kFs;  // middle conflicts with both ends
  small_cfg.chunk = 8192;                  // boundary lands inside the cluster
  DetectorConfig big_cfg = small_cfg;
  big_cfg.chunk = 1u << 16;  // the whole cluster fits in one chunk

  const std::vector<double>& ref = chirp.reference(kFs);
  const auto small_d = MatchedFilterDetector(ref, small_cfg).detect(x);
  const auto big_d = MatchedFilterDetector(ref, big_cfg).detect(x);

  // Strongest-first: the 0.7 arrival wins, evicts the 0.6 inside its
  // spacing window, and the 0.5 (far enough from the winner) survives.
  ASSERT_EQ(big_d.size(), 2u);
  ASSERT_EQ(small_d.size(), big_d.size());
  for (std::size_t i = 0; i < big_d.size(); ++i) {
    // Different chunk sizes use different FFT lengths, so allow rounding
    // differences in the refined times — but not a different decision.
    EXPECT_NEAR(small_d[i].time_s, big_d[i].time_s, 1e-6);
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
  cfg.chunk = 8192;
  const std::vector<double>& ref = chirp.reference(kFs);
  const std::size_t hop = cfg.chunk - (ref.size() - 1);
  const std::size_t peak = 4 * hop - 1;  // last lag of chunk 3
  const double t0 = static_cast<double>(peak) / kFs;
  const std::vector<double> x = make_recording(chirp, {t0}, 1.0, 0.005, rng);
  const auto detections = MatchedFilterDetector(ref, cfg).detect(x);
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_NEAR(detections[0].time_s, t0, 1e-4);
}

/// Run the incremental caller protocol: reveal the recording in slices of
/// the given sizes (cycled), process every chunk of the fixed schedule as
/// soon as STRICTLY more than its end is available (certainly full,
/// certainly non-final), then drain the tail once the length is known.
std::vector<Detection> stream_detect(const MatchedFilterDetector& det,
                                     std::span<const double> x,
                                     const std::vector<std::size_t>& slice_sizes,
                                     const obs::ObsContext* obs = nullptr) {
  const std::size_t ref_len = det.reference().size();
  const std::size_t chunk = det.config().chunk;
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
  while (stream.next_start < x.size()) {
    const std::size_t start = stream.next_start;
    const std::size_t len = std::min(chunk, x.size() - start);
    if (len < ref_len) break;
    const bool final_chunk = start + len == x.size();
    det.stream_chunk(x.subspan(start, len), final_chunk, stream, ws);
    if (final_chunk) break;
  }
  std::vector<Detection> out;
  det.stream_end(stream, ws, out, obs);
  return out;
}

TEST(MatchedFilter, StreamProtocolBitIdenticalToDetectAcrossChunkings) {
  // The detector half of the streaming tentpole: the stream_begin /
  // stream_chunk / stream_end protocol driven by ANY arrival pattern of
  // samples must reproduce detect() bit for bit — candidates are keyed to
  // the fixed chunk schedule, never to how a caller buffered the audio.
  const Chirp chirp{ChirpParams{}};
  Rng rng(55);
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  cfg.chunk = 8192;  // several chunks, arrivals near the seams
  const std::vector<double>& ref = chirp.reference(kFs);
  const std::size_t hop = cfg.chunk - (ref.size() - 1);
  const std::vector<double> starts{0.1, 2.0 * static_cast<double>(hop) / kFs - 0.01,
                                   static_cast<double>(4 * hop - 1) / kFs, 1.3};
  const std::vector<double> x = make_recording(chirp, starts, 1.6, 0.01, rng);
  const MatchedFilterDetector det(ref, cfg);
  const std::vector<Detection> expect = det.detect(x);
  ASSERT_EQ(expect.size(), starts.size());
  for (const std::vector<std::size_t>& slices :
       {std::vector<std::size_t>{x.size()}, std::vector<std::size_t>{1009},
        std::vector<std::size_t>{1u << 14},
        std::vector<std::size_t>{3, 8191, 1, 20011}}) {
    const std::vector<Detection> got = stream_detect(det, x, slices);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].time_s, expect[i].time_s) << i;
      EXPECT_EQ(got[i].score, expect[i].score) << i;
      EXPECT_EQ(got[i].amplitude, expect[i].amplitude) << i;
      EXPECT_EQ(got[i].echo_competition, expect[i].echo_competition) << i;
    }
  }
}

TEST(MatchedFilter, SeamLagsRefinedLikeOneChunk) {
  // Regression: a candidate on a chunk's first or last lag used to keep
  // its integer lag (refine_peak has no neighbor at an array edge) although
  // the missing neighbor is the adjacent chunk's edge lag, so an arrival
  // on a seam was reported up to half a sample off. Fractional arrivals on
  // both seam lags must match a detector that sees the recording as one
  // chunk, in batch and streamed.
  const Chirp chirp{ChirpParams{}};
  DetectorConfig cfg;
  cfg.sample_rate = kFs;
  cfg.chunk = 8192;
  DetectorConfig whole_cfg = cfg;
  whole_cfg.chunk = 1u << 16;  // the whole 1 s recording in one chunk
  const std::vector<double>& ref = chirp.reference(kFs);
  const MatchedFilterDetector det(ref, cfg);
  const MatchedFilterDetector whole(ref, whole_cfg);
  const std::size_t hop = cfg.chunk - (ref.size() - 1);
  const std::size_t seam = 4 * hop;  // first lag of chunk 4
  std::uint64_t seed = 60;
  for (const std::size_t lag : {seam - 1, seam}) {
    for (const double frac : {0.25, -0.30, 0.45}) {
      Rng rng(seed++);
      const double t0 = (static_cast<double>(lag) + frac) / kFs;
      const std::vector<double> x = make_recording(chirp, {t0}, 1.0, 0.005, rng);
      const std::vector<Detection> want = whole.detect(x);
      ASSERT_EQ(want.size(), 1u);
      // The correlation peak really sits on one of the two seam lags.
      const double peak_lag = std::floor(want[0].time_s * kFs + 0.5);
      ASSERT_TRUE(peak_lag == static_cast<double>(seam - 1) ||
                  peak_lag == static_cast<double>(seam))
          << "lag " << lag << " frac " << frac;
      const std::vector<std::size_t> slices{1009};
      for (const std::vector<Detection>& got :
           {det.detect(x), stream_detect(det, x, slices)}) {
        ASSERT_EQ(got.size(), 1u);
        EXPECT_NEAR(got[0].time_s, want[0].time_s, 1e-9)
            << "lag " << lag << " frac " << frac;
        EXPECT_NEAR(got[0].amplitude, want[0].amplitude, 1e-9 * want[0].amplitude)
            << "lag " << lag << " frac " << frac;
      }
    }
  }
}

/// Bit pattern of a double, so NaN results compare equal to themselves.
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// --- chunk_pass + stitch ---------------------------------------------------

/// A detector small enough for the direct correlation path (chunk x
/// reference <= kDirectProductLimit), so a test can recompute its raw
/// correlation bit for bit with the planless correlate_valid.
struct SmallDetector {
  static constexpr std::size_t kRef = 48;
  static constexpr std::size_t kChunk = 1024;
  static constexpr std::size_t kHop = kChunk - (kRef - 1);
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
    cfg.chunk = kChunk;
    cfg.min_spacing_s = 0.002;
    cfg.threshold = 0.5;
    return cfg;
  }
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
static_assert(SmallDetector::kChunk * SmallDetector::kRef <= kDirectProductLimit);

/// The detector's per-chunk step as one serial function, in the form it
/// had before it split into chunk_pass + stitch: correlate, scan, then
/// resolve the pending tail, test the head against the previous chunk and
/// defer the new tail, all in one loop over the peaks.
struct OracleStream {
  struct Pending {
    DetectionCandidate candidate;
    std::size_t chunk_start = 0;
    std::optional<double> left_raw;
    double peak_raw = 0.0;
    double runner = 0.0;
  };
  std::optional<Pending> pending;
  double prev_last_masked = 0.0;
  double prev_last_raw = 0.0;
  bool have_prev = false;
  std::vector<DetectionCandidate> candidates;
};

void oracle_finish(Detection& d, std::size_t start, std::size_t i,
                   std::optional<double> left, double peak, std::optional<double> right,
                   double runner) {
  double offset = 0.0;
  double value = peak;
  if (left && right) {
    const ParabolicFit fit = parabolic_fit(*left, peak, *right);
    offset = fit.offset;
    value = fit.value;
  }
  d.time_s = (static_cast<double>(start) + (static_cast<double>(i) + offset)) / kFs;
  d.amplitude = std::abs(value);
  d.echo_competition = d.amplitude > 0.0 ? runner / d.amplitude : 0.0;
}

void oracle_stream_chunk(const MatchedFilterDetector& det, std::span<const double> seg,
                         std::size_t start, bool final_chunk, OracleStream& st) {
  const std::vector<double>& ref = det.reference();
  const DetectorConfig& cfg = det.config();
  const auto min_spacing = static_cast<std::size_t>(cfg.min_spacing_s * cfg.sample_rate);
  const auto exclusion = static_cast<std::size_t>(1.2e-3 * cfg.sample_rate);
  double energy = 0.0;
  for (double v : ref) energy += v * v;
  const std::vector<double> raw = correlate_valid(seg, ref);
  std::vector<double> prefix;
  const WindowNormalizer norm(seg, ref.size(), std::sqrt(energy), prefix);
  DetectorWorkspace ws;
  const CorrelationScan scan = scan_correlation(raw, norm, cfg.threshold, ws);
  if (st.pending) {
    OracleStream::Pending& p = *st.pending;
    if (p.candidate.key > scan.first_masked) {
      oracle_finish(p.candidate.detection, p.chunk_start,
                    p.candidate.global_index - p.chunk_start, p.left_raw, p.peak_raw,
                    raw.front(), p.runner);
      st.candidates.push_back(p.candidate);
    }
    st.pending.reset();
  }
  for (const std::size_t i : ws.peaks) {
    if (i == 0 && st.have_prev && !(scan.first_masked >= st.prev_last_masked)) continue;
    std::optional<double> left;
    if (i > 0) {
      left = raw[i - 1];
    } else if (st.have_prev) {
      left = st.prev_last_raw;
    }
    const double runner = echo_runner(ws.local_max, ws.block_max, i, min_spacing, exclusion);
    DetectionCandidate c{Detection{}, std::abs(raw[i]), start + i};
    c.detection.score = raw[i] / norm.denominator(i);
    if (i + 1 == raw.size() && !final_chunk) {
      st.pending = OracleStream::Pending{c, start, left, raw[i], runner};
      continue;
    }
    std::optional<double> right;
    if (i + 1 < raw.size()) right = raw[i + 1];
    oracle_finish(c.detection, start, i, left, raw[i], right, runner);
    st.candidates.push_back(c);
  }
  st.prev_last_masked = scan.last_masked;
  st.prev_last_raw = raw.back();
  st.have_prev = true;
}

void expect_same_candidate(const DetectionCandidate& a, const DetectionCandidate& b,
                           const std::string& where) {
  EXPECT_EQ(a.global_index, b.global_index) << where;
  EXPECT_EQ(bits(a.key), bits(b.key)) << where;
  EXPECT_EQ(bits(a.detection.time_s), bits(b.detection.time_s)) << where;
  EXPECT_EQ(bits(a.detection.score), bits(b.detection.score)) << where;
  EXPECT_EQ(bits(a.detection.amplitude), bits(b.detection.amplitude)) << where;
  EXPECT_EQ(bits(a.detection.echo_competition), bits(b.detection.echo_competition))
      << where;
}

/// Pass every chunk of `x` first — in reverse order, through one shared
/// scratch — then stitch in schedule order, checking the stitched
/// candidates and the pending tail against the oracle after every chunk.
/// Returns the chunk passes.
std::vector<ChunkPass> expect_split_matches_oracle(const MatchedFilterDetector& det,
                                                   std::span<const double> x) {
  const std::size_t chunks = det.chunk_count(x.size());
  std::vector<ChunkPass> passes(chunks);
  DetectorWorkspace scratch;
  for (std::size_t k = chunks; k-- > 0;) {
    const ChunkSpan span = det.chunk_span(k, x.size());
    det.chunk_pass(x.subspan(span.start, span.size), span.start, span.final_chunk, scratch,
                   passes[k]);
  }
  DetectorWorkspace ws;
  DetectorStream stream;
  det.stream_begin(stream, ws);
  OracleStream oracle;
  for (std::size_t k = 0; k < chunks; ++k) {
    const ChunkSpan span = det.chunk_span(k, x.size());
    det.stitch(passes[k], stream, ws);
    oracle_stream_chunk(det, x.subspan(span.start, span.size), span.start,
                        span.final_chunk, oracle);
    const std::string where = "after chunk " + std::to_string(k);
    EXPECT_EQ(stream.next_start, span.start + (det.config().chunk - (det.reference().size() - 1)));
    EXPECT_EQ(stream.chunks_streamed, k + 1);
    EXPECT_EQ(bits(stream.prev_last_masked), bits(oracle.prev_last_masked)) << where;
    EXPECT_EQ(bits(stream.prev_last_raw), bits(oracle.prev_last_raw)) << where;
    EXPECT_EQ(ws.candidates.size(), oracle.candidates.size()) << where;
    for (std::size_t i = 0; i < std::min(ws.candidates.size(), oracle.candidates.size()); ++i) {
      expect_same_candidate(ws.candidates[i], oracle.candidates[i],
                            where + " candidate " + std::to_string(i));
    }
    EXPECT_EQ(stream.pending.has_value(), oracle.pending.has_value()) << where;
    if (stream.pending && oracle.pending) {
      const DetectorStream::Pending& got = *stream.pending;
      const OracleStream::Pending& want = *oracle.pending;
      expect_same_candidate(got.edge.candidate, want.candidate, where + " pending");
      EXPECT_EQ(got.chunk_start, want.chunk_start) << where;
      EXPECT_EQ(got.edge.inner_raw, want.left_raw) << where;
      EXPECT_EQ(bits(got.edge.peak_raw), bits(want.peak_raw)) << where;
      EXPECT_EQ(bits(got.edge.runner), bits(want.runner)) << where;
    }
  }
  return passes;
}

TEST(MatchedFilter, ChunkPassAndStitchMatchTheSerialChunkStep) {
  const SmallDetector small;
  const std::size_t hop = SmallDetector::kHop;
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
    const std::vector<ChunkPass> passes = expect_split_matches_oracle(small.det, x);
    ASSERT_GT(passes.size(), c.seam_chunk);
    EXPECT_TRUE(passes[c.seam_chunk].head.has_value());
    EXPECT_TRUE(passes[c.seam_chunk - 1].tail.has_value());
    if (c.n == 3 * hop + ref) {
      ASSERT_EQ(passes.size(), 4u);
      const ChunkSpan last = small.det.chunk_span(3, x.size());
      EXPECT_EQ(last.size, ref);  // one lag
      EXPECT_TRUE(last.final_chunk);
      EXPECT_FALSE(passes[3].tail.has_value());
    }
    // The seam peak is detected, on its lag.
    const std::vector<Detection> found = small.det.detect(x);
    const bool seen = std::any_of(found.begin(), found.end(), [&](const Detection& d) {
      return std::abs(d.time_s * kFs - static_cast<double>(c.seam_lag)) < 0.5;
    });
    EXPECT_TRUE(seen);
  }
}

TEST(MatchedFilter, ChunkScheduleMatchesTheStreamingLoop) {
  // chunk_count/chunk_span against the schedule loop every streaming
  // caller runs: advance by the hop, stop after the final chunk, drop a
  // tail shorter than the reference.
  const SmallDetector small;
  const std::size_t chunk = SmallDetector::kChunk;
  const std::size_t ref = SmallDetector::kRef;
  const std::size_t hop = SmallDetector::kHop;
  for (std::size_t n = 0; n < 4 * chunk; n += (n < 2 * chunk ? 1 : 7)) {
    std::vector<ChunkSpan> want;
    for (std::size_t start = 0; start < n; start += hop) {
      const std::size_t end = std::min(start + chunk, n);
      if (end - start < ref) break;
      want.push_back({start, end - start, end == n});
      if (end == n) break;
    }
    ASSERT_EQ(small.det.chunk_count(n), want.size()) << "n " << n;
    for (std::size_t k = 0; k < want.size(); ++k) {
      const ChunkSpan got = small.det.chunk_span(k, n);
      EXPECT_EQ(got.start, want[k].start) << "n " << n << " k " << k;
      EXPECT_EQ(got.size, want[k].size) << "n " << n << " k " << k;
      EXPECT_EQ(got.final_chunk, want[k].final_chunk) << "n " << n << " k " << k;
    }
  }
}

TEST(MatchedFilter, DirectCorrelationReusesTheChunkBuffer) {
  // Below kDirectProductLimit the detector has no cached convolver and
  // correlates each chunk directly — into the workspace's raw buffer,
  // whose storage must survive from one detect_into call to the next.
  const SmallDetector small;
  const std::vector<double> x =
      small.recording(3 * SmallDetector::kHop + 500, {100, 1500, 2500}, 95);
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
    EXPECT_EQ(bits(second[i].echo_competition), bits(first[i].echo_competition)) << i;
  }
}

/// The echo competition as the detector computed it before the range-max
/// index: a scan of the whole min_spacing window around lag i. Kept as the
/// oracle for echo_runner.
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

/// Raw-correlation arrays that stress the range-max index and the gate:
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

TEST(EchoCompetition, RangeMaxMatchesWindowScanOracle) {
  // echo_runner over scan_correlation's local-max index must reproduce the
  // full window scan bit for bit: at every lag (including the first and the
  // last), for windows clipped at both chunk edges, for ranges straddling
  // or exactly filling a kEchoBlock block, and for exclusion >= min_spacing.
  Rng rng(4242);
  const double threshold = 0.25;
  for (const std::size_t n : {1u, 2u, 3u, 255u, 256u, 257u, 512u, 513u, 1031u}) {
    const std::size_t h_size = 16;
    const std::vector<double> x = rng.gaussian_vector(n + h_size - 1);
    std::vector<double> prefix;
    const WindowNormalizer norm(x, h_size, 1.0, prefix);
    for (const std::vector<double>& raw : adversarial_raws(n, norm, threshold, rng)) {
      DetectorWorkspace ws;
      (void)scan_correlation(raw, norm, threshold, ws);
      ASSERT_EQ(ws.local_max.size(), n);
      EXPECT_EQ(ws.local_max.front(), 0.0);
      EXPECT_EQ(ws.local_max.back(), 0.0);
      for (const std::size_t min_spacing :
           {0u, 1u, 2u, 128u, 255u, 256u, 257u, 384u, 512u, 2000u}) {
        const std::size_t exclusions[] = {0, 1, 52, min_spacing, min_spacing + 1};
        for (const std::size_t exclusion : exclusions) {
          for (std::size_t i = 0; i < n; ++i) {
            const double want = oracle_echo_runner(raw, i, min_spacing, exclusion);
            const double got =
                echo_runner(ws.local_max, ws.block_max, i, min_spacing, exclusion);
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
      std::vector<double> normalized;
      std::vector<double> oracle_prefix;
      normalize_correlation_into(raw, x, h_size, 1.0, oracle_prefix, normalized);
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
  cfg.chunk = 100;  // smaller than the reference
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
  EXPECT_TRUE(make_detector(chirp).detect(x).empty());
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
