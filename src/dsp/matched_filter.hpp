#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dsp/correlation.hpp"
#include "dsp/ols.hpp"
#include "dsp/peak.hpp"

/// @file matched_filter.hpp
/// Chirp arrival detection (paper Section IV-A, after BeepBeep): the
/// recording is cross-correlated with the reference chirp; correlation
/// maxima significantly above the background are chirp arrivals. Arrival
/// times are refined to sub-sample precision by parabolic interpolation.
///
/// Two statistics are used together: the *normalized* correlation (shape
/// match, in [0,1]) gates candidates against noise, while the *raw*
/// correlation (amplitude) ranks them — a clean multipath echo landing in a
/// quiet stretch can out-"shape-match" the direct arrival, but in LoS it is
/// always weaker, so amplitude ranking and a relative amplitude gate keep
/// the direct path.

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::dsp {

/// One detected chirp arrival.
struct Detection {
  double time_s = 0.0;    ///< arrival time of the chirp START, sub-sample
  double score = 0.0;     ///< normalized correlation in [0, 1]
  double amplitude = 0.0; ///< raw matched-filter output (energy-normalized ref)
  /// Strongest competing correlation peak near this arrival (outside the
  /// autocorrelation main lobe), as a fraction of the winner. A clear
  /// direct path dominates its window (small values); an obstructed path
  /// leaves several reflections of similar strength (values near 1) — the
  /// NLoS cue used by core::assess_line_of_sight.
  double echo_competition = 0.0;
};

/// Detector configuration. The chunk schedule is not configurable: the
/// detections are the same for every chunk length, and each caller picks
/// its own (`MatchedFilterDetector::batch_pairs`/`streaming_pairs`).
struct DetectorConfig {
  double sample_rate = 44100.0;
  /// Minimum normalized correlation for a peak to count as a chirp.
  double threshold = 0.25;
  /// Minimum spacing between detections, seconds (should be < beacon period
  /// but much larger than the chirp length). Also the half-width of the
  /// echo-competition window.
  double min_spacing_s = 0.1;
  /// Drop detections whose raw amplitude is below this fraction of the
  /// median detection amplitude (weak echoes / noise flukes). Set to 0 to
  /// disable.
  double relative_amplitude_gate = 0.35;
};

/// A chunk-local peak awaiting the global min-spacing pass.
struct DetectionCandidate {
  Detection detection;
  double key = 0.0;  ///< masked correlation height (selection strength)
  std::size_t global_index = 0;  ///< unrefined correlation lag in the recording
};

/// One chunk of a detector schedule: recording samples [start, start +
/// size), and whether the chunk ends the recording. Its correlation lags
/// are [start, start + size - reference + 1).
struct ChunkSpan {
  std::size_t start = 0;
  std::size_t size = 0;
  bool final_chunk = false;
};

/// A local maximum of the |raw| correlation at recording lag `lag`: at
/// least its left and above its right neighbor. Echo-competition material.
struct EchoPeak {
  std::size_t lag = 0;
  double value = 0.0;
};

/// What the detector's chunk-local pass (`MatchedFilterDetector::chunk_pass`)
/// hands the serial stitch. Everything in it is a function of the chunk's
/// samples alone, so the chunks of a recording can be passed in any order,
/// on any threads, and stitched afterwards in schedule order.
struct ChunkPass {
  /// A candidate whose echo ratio the stitch completes. `runner` is the
  /// strongest |raw| local maximum of its echo window among the chunk's
  /// inner lags (all but the first and the last); the stitch adds the
  /// chunk's edge lags and the neighboring chunks' lags.
  struct Peak {
    DetectionCandidate candidate;
    double runner = 0.0;
    /// The recording lags [inner_begin, inner_end) that `runner` covers:
    /// the chunk's inner lags.
    std::size_t inner_begin = 0;
    std::size_t inner_end = 0;
  };
  std::size_t start = 0;  ///< recording index of the chunk's first sample and lag
  std::size_t lags = 0;   ///< correlation lags in the chunk
  bool final_chunk = false;
  /// Candidates at every other peak lag, in ascending lag order: time,
  /// score and amplitude are final.
  std::vector<Peak> interior;
  /// A peak on lag 0: its local-maximum test and refinement need the
  /// previous chunk's last lag, so the stitch finishes it.
  std::optional<Peak> head;
  /// A peak on the last lag of a non-final chunk: held pending until the
  /// next chunk's first lag. Only score, key and lag are final.
  std::optional<Peak> tail;
  /// What a neighbor's echo windows can read of the chunk's first and last
  /// min_spacing lags, ascending: every |raw| local maximum within the
  /// exclusion half-width of either end, and beyond it only the maxima
  /// that no lag nearer that end exceeds. A few dozen per chunk, so a
  /// stored pass stays small.
  std::vector<EchoPeak> edge_maxima;
  double first_masked = 0.0;  ///< gated |raw| at lag 0
  double last_masked = 0.0;   ///< gated |raw| at the last lag
  double first_raw = 0.0;     ///< raw correlation at lag 0
  double second_raw = 0.0;    ///< raw correlation at lag 1 (chunks of >= 2 lags)
  double penult_raw = 0.0;    ///< raw correlation at the second-to-last lag (ditto)
  double last_raw = 0.0;      ///< raw correlation at the last lag
};

/// Mutable scratch for matched-filter detection, reusable across `detect`
/// calls, channels, and sessions: the per-chunk correlation buffers, the
/// echo-competition index, the normalizer scratch, and the stitch's
/// staging. Like `dsp::Workspace` it is single-owner state — own one per
/// call stack (core::SessionWorkspace embeds one per channel slot) and
/// never share it across threads. Buffer contents carry no information
/// between streams; only capacity is retained, so a warmed workspace makes
/// detection allocation-free in the steady state while the detections stay
/// bit-identical to a fresh one.
///
/// `chunk_pass` uses the per-chunk members (fft through prefix); the stitch
/// and `stream_end` use the staging (deferred through selected). A caller
/// that runs chunk passes elsewhere (core's ASP fan-out and
/// StreamingSession, on the thread's core::ChunkScratch) leaves the
/// per-chunk members of its stitching workspace empty.
struct DetectorWorkspace {
  using Candidate = DetectionCandidate;

  Workspace fft;                      ///< FFT scratch for the OLS pair loop
  std::vector<double> raw;            ///< per-chunk raw correlation
  std::vector<double> local_max;      ///< per-chunk |raw| local maxima (echo index)
  std::vector<double> block_max;      ///< per-kEchoBlock maxima of local_max
  std::vector<std::size_t> peaks;     ///< per-chunk gated local-max lags
  std::vector<double> prefix;         ///< normalizer scratch (energies, prefix sums)
  ChunkPass pass;                     ///< chunk-pass staging of a serial caller
  /// Stitched candidates whose echo window reaches lags not yet stitched,
  /// in lag order.
  std::vector<ChunkPass::Peak> deferred;
  /// Stitched |raw| local maxima that a deferred or future candidate's
  /// echo window can reach, in lag order.
  std::vector<EchoPeak> echo_maxima;
  std::vector<double> amps;           ///< amplitude-gate scratch
  std::vector<Candidate> candidates;  ///< pass-1 output, in lag order
  std::vector<Candidate> selected;    ///< pass-2 staging
};

/// Lags per entry of the block-maximum index over a chunk's local maxima.
inline constexpr std::size_t kEchoBlock = 256;

/// What `scan_correlation` reports about a chunk's gated statistic at its
/// two edge lags, which the cross-chunk local-maximum test compares.
struct CorrelationScan {
  double first_masked = 0.0;  ///< gated |raw| at lag 0
  double last_masked = 0.0;   ///< gated |raw| at the last lag
};

/// The detector's per-chunk pass over one chunk's raw correlation, in one
/// sweep over the lags. At each lag it gates: |raw| counts only where the
/// normalized correlation raw / norm.denominator(k) reaches `threshold`
/// (lags that provably cannot, such as raw <= 0, skip the sqrt/div). It
/// writes `ws.peaks`: every lag whose gated value is >= 1e-12, >= its left
/// and > its right neighbor, where the neighbor test is skipped on a side
/// that lies outside the chunk (the caller resolves it across the seam).
/// It writes `ws.local_max`: |raw| at every interior lag that is >= its
/// left and > its right neighbor, else 0, and 0 at both ends (a NaN fails
/// every comparison, so it never counts and never lets a neighbor count).
/// It writes `ws.block_max`: the maximum of each kEchoBlock-lag block of
/// local_max. `raw` may be `ws.raw`. Exposed for
/// the oracle tests of the echo competition.
CorrelationScan scan_correlation(std::span<const double> raw,
                                 const WindowNormalizer& norm, double threshold,
                                 DetectorWorkspace& ws);

/// Echo competition at lag i of a chunk: the largest local_max[j] over
/// lo < j < hi, with lo = max(i - min_spacing, 0) and
/// hi = min(i + min_spacing, size - 1), excluding |j - i| < exclusion; 0
/// when nothing qualifies. Two range-maximum queries over the block
/// maxima plus the partial blocks at their ends, so the cost is
/// O(min_spacing / kEchoBlock + kEchoBlock) rather than a scan of the
/// 2 * min_spacing window. `local_max`/`block_max` come from
/// scan_correlation.
[[nodiscard]] double echo_runner(std::span<const double> local_max,
                                 std::span<const double> block_max, std::size_t i,
                                 std::size_t min_spacing, std::size_t exclusion);

/// Resumable cursor for incremental (streaming) detection: the cross-chunk
/// state of the stitch, lifted out so a caller can run a chunk schedule
/// itself as samples arrive. Plain data — persist one per live stream
/// (next to the stream's DetectorWorkspace, whose staging vectors carry
/// the deferred candidates, the echo maxima and the pass-1 output between
/// calls) and drive it with MatchedFilterDetector::stream_begin /
/// stream_chunk (or chunk_pass + stitch) / stream_end. `detect_into` is
/// itself written as begin -> chunk loop -> end over this struct, so the
/// streamed and batch spellings share every instruction.
struct DetectorStream {
  /// The previous chunk's last-lag candidate, held until the next chunk's
  /// first lag is known: that lag resolves its right-neighbor comparison
  /// and is the right point of its parabolic refinement.
  std::optional<ChunkPass::Peak> pending;
  double prev_last_masked = 0.0;  ///< previous chunk's final masked value
  double prev_last_raw = 0.0;     ///< previous chunk's final raw correlation
  double prev_penult_raw = 0.0;   ///< and the raw correlation one lag before
  bool have_prev = false;
  std::size_t chunks_streamed = 0;
  /// Recording index of the next chunk's first sample (and lag). Chunks
  /// cover whole OLS pairs of lags, so the schedule is a function of the
  /// recording length and the pairs per chunk — never of how a caller
  /// buffered it.
  std::size_t next_start = 0;
};

/// Matched-filter detector for a fixed reference waveform.
///
/// Construction is the expensive part: an overlap-save convolver for the
/// reversed reference (kernel spectrum + FFT plan at the block size chosen
/// for the reference length) is built once, so every pair of every chunk
/// of every `detect` call streams against the cached spectrum instead of
/// re-transforming the template. The detector is immutable after
/// construction — one instance can serve concurrent `detect` calls from
/// many threads (core::PipelineContext shares one per engine); each call
/// keeps its own scratch.
///
/// Detections are a function of the recording alone. The correlation runs
/// on a lag-anchored grid of OLS pairs (`pair_lags()` lags each), and a
/// chunk is any whole number of pairs, so every chunk length produces the
/// same bytes: the raw correlation comes from the same transforms, the
/// normalizer restarts at every pair, local maxima and refinement read
/// their neighbors across seams, echo windows are clipped only at the ends
/// of the recording, and the `min_spacing_s` rule is enforced once,
/// globally, strongest-first.
class MatchedFilterDetector {
 public:
  /// `reference` is the sampled chirp (unit energy recommended); must be
  /// non-empty. `config.min_spacing_s` must be positive and finite.
  MatchedFilterDetector(std::vector<double> reference, const DetectorConfig& config);

  /// Detect all chirp arrivals in the recording. Processes the input in
  /// chunks of `batch_pairs()` pairs so memory stays bounded for long
  /// sessions.
  ///
  /// `obs` (obs/trace.hpp) optionally receives detector telemetry —
  /// chunks streamed, raw candidates, surviving detections, and the
  /// normalized-score distribution — on its metrics registry. Null (the
  /// default) records nothing; the detections are byte-identical either
  /// way. Many threads may detect() with the same ObsContext concurrently
  /// (the registry shards its write path).
  [[nodiscard]] std::vector<Detection> detect(
      std::span<const double> recording,
      const obs::ObsContext* obs = nullptr) const;

  /// `detect` through caller-owned scratch: detections land in `out`
  /// (cleared first) and every intermediate buffer lives in `ws`, so a
  /// warmed workspace makes the whole call allocation-free apart from
  /// growth of `out` itself. `detect` above is a thin wrapper over it
  /// with a call-local workspace, bit-identical by construction.
  void detect_into(std::span<const double> recording, DetectorWorkspace& ws,
                   std::vector<Detection>& out,
                   const obs::ObsContext* obs = nullptr) const;

  /// Streaming protocol. Detection of a recording of (eventual) length N
  /// with P pairs per chunk is
  ///   stream_begin(st, ws);
  ///   for k < chunk_count(N, P): stream_chunk(seg of chunk_span(k, N, P), final, st, ws);
  ///   stream_end(st, ws, out, obs);
  /// Chunk k covers lags [k*P*pair_lags(), (k+1)*P*pair_lags()) clipped to
  /// the recording's N - reference + 1 lags, and the samples those lags
  /// read; `final_chunk` is true iff it holds the last lag. An incremental
  /// caller may process a chunk as soon as MORE than its full extent of
  /// samples exist (it is then certainly full and non-final), and the rest
  /// once the length is known. For every P the detections are
  /// byte-identical to `detect_into`, which runs P = batch_pairs(); pass 2
  /// (global min-spacing) and the amplitude gate run in `stream_end`, over
  /// candidates accumulated in `ws.candidates`. The telemetry differs only
  /// in the chunk count.
  void stream_begin(DetectorStream& stream, DetectorWorkspace& ws) const;

  /// Process the chunk starting at stream.next_start: exactly `chunk_pass`
  /// into `ws.pass` followed by `stitch`.
  void stream_chunk(std::span<const double> seg, bool final_chunk,
                    DetectorStream& stream, DetectorWorkspace& ws) const;

  /// The chunk-local half of `stream_chunk`: correlate the chunk starting
  /// at recording index `start` (a multiple of pair_lags()), normalize,
  /// gate, pick peaks and rank echo competitors, all inside the chunk.
  /// `seg` holds at least one lag (reference().size() samples); unless
  /// `final_chunk`, its lags are a whole number of pairs. Peaks that need
  /// no sample of another chunk are finished into `out.interior`; the
  /// edge-lag peaks, the edge values and the edge echo maxima go to the
  /// other fields of `out` for the stitch. Reads nothing but `seg` and
  /// writes only `scratch`'s per-chunk buffers and `out`, so many chunks
  /// may be passed concurrently, each with its own scratch and out.
  void chunk_pass(std::span<const double> seg, std::size_t start, bool final_chunk,
                  DetectorWorkspace& scratch, ChunkPass& out) const;

  /// The serial half of `stream_chunk`: apply the cross-chunk rules to the
  /// chunk pass of the chunk starting at stream.next_start (checked). It
  /// resolves the previous chunk's pending tail against this chunk's first
  /// lag, runs the head's left-neighbor test against the previous chunk's
  /// last lag, decides whether the two seam lags are echo maxima, defers
  /// this chunk's tail, and completes the echo window of every candidate
  /// whose window has been stitched, appending those to `ws.candidates` in
  /// lag order. A candidate within min_spacing of the chunk's end waits in
  /// `ws.deferred` for the next chunk's leading maxima.
  void stitch(const ChunkPass& pass, DetectorStream& stream,
              DetectorWorkspace& ws) const;

  /// Number of chunks of `pairs` pairs (>= 1) covering a recording of `n`
  /// samples: 0 when it is shorter than the reference.
  [[nodiscard]] std::size_t chunk_count(std::size_t n, std::size_t pairs) const;
  /// Chunk `index` (< chunk_count(n, pairs)) of that schedule.
  [[nodiscard]] ChunkSpan chunk_span(std::size_t index, std::size_t n,
                                     std::size_t pairs) const;

  /// Correlation lags per OLS pair: twice the convolver's block.
  [[nodiscard]] std::size_t pair_lags() const { return 2 * block_; }
  /// Samples of a full chunk of `pairs` pairs.
  [[nodiscard]] std::size_t chunk_samples(std::size_t pairs) const {
    return pairs * pair_lags() + reference_.size() - 1;
  }
  /// Pairs per batch chunk: the pair count whose lags come nearest to
  /// kBatchChunkSamples - reference + 1 (11 for the 2205-sample default
  /// reference). Large chunks keep batch correlation windows long and the
  /// fan-out's tasks few.
  [[nodiscard]] std::size_t batch_pairs() const { return batch_pairs_; }
  /// Pairs per streaming chunk: the fewest whose lags cover min_spacing
  /// (1 by default), so a live stream holds little audio and a candidate's
  /// echo window reaches at most one chunk ahead.
  [[nodiscard]] std::size_t streaming_pairs() const { return streaming_pairs_; }
  /// min_spacing_s in lags.
  [[nodiscard]] std::size_t min_spacing_lags() const { return min_spacing_; }

  /// Flush nothing — the final chunk resolves every candidate — then run
  /// the global min-spacing pass and the relative amplitude gate over
  /// `ws.candidates`, write the surviving detections to `out` (cleared
  /// first), and record detector telemetry for the whole stream on `obs`.
  /// Requires that the stream's last stitched chunk was final (or that no
  /// chunk was stitched). The stream is exhausted afterwards; reuse
  /// requires stream_begin.
  void stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                  std::vector<Detection>& out,
                  const obs::ObsContext* obs = nullptr) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<double>& reference() const { return reference_; }

  /// The chunk length the detector's FFT size is costed for (the
  /// two-argument `choose_ols_fft_size`), and the batch chunk length the
  /// pair count approximates: ~3 s at 44.1 kHz.
  static constexpr std::size_t kBatchChunkSamples = std::size_t{1} << 17;

 private:
  /// Lag-anchored valid correlation of one chunk against the reference
  /// into `ws.raw`: OLS pairs through the cached reversed-template
  /// convolver, or the direct sum when the reference is short enough.
  void correlate_chunk(std::span<const double> seg, std::size_t start,
                       DetectorWorkspace& ws) const;
  /// The echo runner of a stitched peak over its whole window: its
  /// in-chunk runner, raised by the stitched maxima of the window's lags
  /// outside the chunk's inner lags.
  [[nodiscard]] double full_runner(const ChunkPass::Peak& peak,
                                   const std::vector<EchoPeak>& maxima) const;

  std::vector<double> reference_;
  DetectorConfig config_;
  double reference_norm_ = 0.0;  ///< L2 norm of the reference
  std::size_t block_ = 0;        ///< OLS block: lags per correlation block
  std::size_t min_spacing_ = 0;  ///< min_spacing_s in lags
  std::size_t exclusion_ = 0;    ///< echo exclusion half-width in lags
  std::size_t batch_pairs_ = 1;
  std::size_t streaming_pairs_ = 1;
  /// Overlap-save convolver for the time-reversed reference; engaged
  /// unless one pair's window times the reference is small enough for
  /// the direct sum (the rule every other convolution spelling uses).
  std::optional<OlsConvolver> ols_;
};

}  // namespace hyperear::dsp
