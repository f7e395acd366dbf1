#pragma once

#include <array>
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
///
/// `detect_into` (and its chunk pass and stitch) is the full search: every
/// lag of the recording. The service ASP stage runs it only over a head
/// and then searches gates around the beacon's predicted arrivals with
/// `gate_pass`, the same gate, peak and refinement rules over a window of
/// gate lags and their neighbours, both microphones in one transform pair
/// (core/asp.hpp). The full search stays for that head, for a fallback
/// when the head yields no schedule, for the offline NLoS pass and as the
/// tests' oracle.

namespace hyperear::obs {
struct ObsContext;
}

namespace hyperear::dsp {

/// One detected chirp arrival.
struct Detection {
  double time_s = 0.0;    ///< arrival time of the chirp START, sub-sample
  double score = 0.0;     ///< normalized correlation in [0, 1]
  double amplitude = 0.0; ///< raw matched-filter output (energy-normalized ref)
};

/// Detector configuration. The chunk schedule is not configurable: the
/// detections are the same for every chunk length, and every caller runs
/// chunks of `MatchedFilterDetector::chunk_pairs()` pairs.
struct DetectorConfig {
  double sample_rate = 44100.0;
  /// Minimum normalized correlation for a peak to count as a chirp.
  double threshold = 0.25;
  /// Minimum spacing between detections, seconds (should be < beacon period
  /// but much larger than the chirp length).
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

/// What the detector's chunk-local pass (`MatchedFilterDetector::chunk_pass`)
/// hands the serial stitch. Everything in it is a function of the chunk's
/// samples alone, so the chunks of a recording can be passed in any order,
/// on any threads, and stitched afterwards in schedule order.
struct ChunkPass {
  std::size_t start = 0;  ///< recording index of the chunk's first sample and lag
  std::size_t lags = 0;   ///< correlation lags in the chunk
  bool final_chunk = false;
  /// Candidates at every other peak lag, in ascending lag order: time,
  /// score and amplitude are final.
  std::vector<DetectionCandidate> interior;
  /// A peak on lag 0: its local-maximum test and refinement need the
  /// previous chunk's last lag, so the stitch finishes it.
  std::optional<DetectionCandidate> head;
  /// A peak on the last lag of a non-final chunk: held pending until the
  /// next chunk's first lag. Only score, key and lag are final.
  std::optional<DetectionCandidate> tail;
  double first_masked = 0.0;  ///< gated |raw| at lag 0
  double last_masked = 0.0;   ///< gated |raw| at the last lag
  double first_raw = 0.0;     ///< raw correlation at lag 0
  double second_raw = 0.0;    ///< raw correlation at lag 1 (chunks of >= 2 lags)
  double penult_raw = 0.0;    ///< raw correlation at the second-to-last lag (ditto)
  double last_raw = 0.0;      ///< raw correlation at the last lag
};

/// One gate of beacon-gated detection (`MatchedFilterDetector::gate_pass`):
/// the candidates of both microphones at gate lags [lo, hi], every one
/// final, as the full search would have found them there.
struct GatePass {
  std::size_t lo = 0;           ///< first gate lag
  std::size_t hi = 0;           ///< last gate lag
  std::size_t window_lags = 0;  ///< lags scanned per channel: gate lags and neighbours
  /// Per channel (mic1, mic2), in ascending lag order.
  std::array<std::vector<DetectionCandidate>, 2> candidates;
};

/// Mutable scratch for matched-filter detection, reusable across `detect_into`
/// calls, channels, and sessions: the per-chunk correlation buffers, the
/// normalizer scratch, and the stitch's staging. Like `dsp::Workspace` it
/// is single-owner state — own one per call stack (core::SessionWorkspace
/// embeds one per channel slot) and never share it across threads. Buffer contents carry no information
/// between streams; only capacity is retained, so a warmed workspace makes
/// detection allocation-free in the steady state while the detections stay
/// bit-identical to a fresh one.
///
/// `chunk_pass` and `gate_pass` use the per-chunk members (fft through
/// prefix); the stitch and `stream_end` use the staging (amps through
/// selected). A caller
/// that runs chunk passes elsewhere (core's ASP fan-out and
/// StreamingSession, on the thread's core::ChunkScratch) leaves the
/// per-chunk members of its stitching workspace empty.
struct DetectorWorkspace {
  using Candidate = DetectionCandidate;

  Workspace fft;                      ///< FFT scratch for the OLS pair loop
  std::vector<double> raw;            ///< per-chunk raw correlation
  std::vector<std::size_t> peaks;     ///< per-chunk gated local-max lags
  std::vector<double> prefix;         ///< normalizer scratch (energies, prefix sums)
  ChunkPass pass;                     ///< chunk-pass staging of a serial caller
  std::vector<double> amps;           ///< amplitude-gate scratch
  std::vector<Candidate> candidates;  ///< pass-1 output, in lag order until `select`
  std::vector<Candidate> selected;    ///< pass-2 staging
};

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
/// `raw` may be `ws.raw`. Exposed for the oracle test of the fused gate
/// and peak pick.
CorrelationScan scan_correlation(std::span<const double> raw,
                                 const WindowNormalizer& norm, double threshold,
                                 DetectorWorkspace& ws);

/// Resumable cursor for incremental (streaming) detection: the cross-chunk
/// state of the stitch, lifted out so a caller can run a chunk schedule
/// itself as samples arrive. Plain data — persist one per live stream
/// (next to the stream's DetectorWorkspace, whose `candidates` carry the
/// pass-1 output between calls) and drive it with
/// MatchedFilterDetector::stream_begin / chunk_pass + stitch per chunk /
/// stream_end. `detect_into` is itself written as begin -> chunk loop ->
/// end over this struct, so the streamed and batch spellings share every
/// instruction.
struct DetectorStream {
  /// The previous chunk's last-lag candidate, held until the next chunk's
  /// first lag is known: that lag resolves its right-neighbor comparison
  /// and is the right point of its parabolic refinement.
  std::optional<DetectionCandidate> pending;
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
/// of every `detect_into` call streams against the cached spectrum instead of
/// re-transforming the template. The detector is immutable after
/// construction — one instance can serve concurrent `detect_into` calls from
/// many threads (core::PipelineContext shares one per engine); each call
/// keeps its own scratch.
///
/// Detections are a function of the recording alone. The correlation runs
/// on a lag-anchored grid of OLS pairs (`pair_lags()` lags each), and a
/// chunk is any whole number of pairs, so every chunk length produces the
/// same bytes: the raw correlation comes from the same transforms, the
/// normalizer restarts at every pair, local maxima and refinement read
/// their neighbors across seams, and the `min_spacing_s` rule is enforced
/// once, globally, strongest-first.
class MatchedFilterDetector {
 public:
  /// `reference` is the sampled chirp (unit energy recommended); must be
  /// non-empty. `config.min_spacing_s` must be positive and finite.
  MatchedFilterDetector(std::vector<double> reference, const DetectorConfig& config);

  /// Detect all chirp arrivals in the recording into `out` (cleared
  /// first). Processes the input in chunks of `chunk_pairs()` pairs so
  /// memory stays bounded for long sessions, and every intermediate buffer
  /// lives in `ws`, so a warmed workspace makes the whole call
  /// allocation-free apart from growth of `out` itself.
  ///
  /// `obs` (obs/trace.hpp) optionally receives detector telemetry —
  /// chunks streamed, raw candidates, surviving detections, and the
  /// normalized-score distribution — on its metrics registry. Null (the
  /// default) records nothing; the detections are byte-identical either
  /// way. Many threads may detect_into() with the same ObsContext
  /// concurrently (the registry shards its write path).
  void detect_into(std::span<const double> recording, DetectorWorkspace& ws,
                   std::vector<Detection>& out,
                   const obs::ObsContext* obs = nullptr) const;

  /// Streaming protocol. Detection of a recording of (eventual) length N
  /// with P pairs per chunk is
  ///   stream_begin(st, ws);
  ///   for k < chunk_count(N, P), span = chunk_span(k, N, P):
  ///     chunk_pass(seg of span, span.start, span.final_chunk, ws, ws.pass);
  ///     stitch(ws.pass, st, ws);
  ///   stream_end(st, ws, out, obs);
  /// Chunk k covers lags [k*P*pair_lags(), (k+1)*P*pair_lags()) clipped to
  /// the recording's N - reference + 1 lags, and the samples those lags
  /// read; `final_chunk` is true iff it holds the last lag. An incremental
  /// caller may process a chunk as soon as MORE than its full extent of
  /// samples exist (it is then certainly full and non-final: every chunk
  /// but the last of the schedule over the samples so far), and the rest
  /// once the length is known. For every P the detections are
  /// byte-identical to `detect_into`, which runs P = chunk_pairs(); pass 2
  /// (global min-spacing) and the amplitude gate run in `stream_end`, over
  /// candidates accumulated in `ws.candidates`. The telemetry differs only
  /// in the chunk count.
  void stream_begin(DetectorStream& stream, DetectorWorkspace& ws) const;

  /// The chunk-local half of a chunk's step: correlate the chunk starting
  /// at recording index `start` (a multiple of pair_lags()), normalize,
  /// gate and pick peaks, all inside the chunk. `seg` holds at least one
  /// lag (reference().size() samples); unless `final_chunk`, its lags are
  /// a whole number of pairs. Peaks that need no sample of another chunk
  /// are finished into `out.interior`; the edge-lag peaks and the edge
  /// values go to the other fields of `out` for the stitch. Reads nothing
  /// but `seg` and writes only `scratch`'s per-chunk buffers and `out`, so
  /// many chunks may be passed concurrently, each with its own scratch and
  /// out.
  void chunk_pass(std::span<const double> seg, std::size_t start, bool final_chunk,
                  DetectorWorkspace& scratch, ChunkPass& out) const;

  /// The serial half of a chunk's step: apply the cross-chunk rules to the
  /// chunk pass of the chunk starting at stream.next_start (checked). It
  /// resolves the previous chunk's pending tail against this chunk's first
  /// lag, runs the head's left-neighbor test against the previous chunk's
  /// last lag, and appends the resolved tail, the head and the interior
  /// candidates to `ws.candidates`, in lag order and final at once; this
  /// chunk's tail waits in `stream.pending` for the next chunk's first lag.
  void stitch(const ChunkPass& pass, DetectorStream& stream,
              DetectorWorkspace& ws) const;

  /// Beacon-gated detection of gate lags [lo, hi] of both microphones in
  /// one transform pair of the gate convolver (`gate_fft_size()`), mic1's
  /// window in the re lane and mic2's in the im lane. `mic1` and `mic2`
  /// hold recording samples [x_start, x_start + size) and must cover the
  /// gate's window: the samples of lags lo - 1 through hi + 1, the
  /// neighbours the local-maximum test and the refinement read, or through
  /// hi when `final_gate` (hi is then the recording's last lag, tested
  /// one-sided as the full search's final chunk tests it). Requires lo >=
  /// 1 and at most 2 * gate_half_width() + 1 gate lags. Per channel the
  /// normalizer spans the window's samples, and the gate and peak rules
  /// are `scan_correlation`'s; a neighbour lag is never a candidate.
  /// Like `chunk_pass` it reads nothing but the windows and writes only
  /// `scratch`'s per-chunk buffers and `out`.
  void gate_pass(std::span<const double> mic1, std::span<const double> mic2,
                 std::size_t x_start, std::size_t lo, std::size_t hi, bool final_gate,
                 DetectorWorkspace& scratch, GatePass& out) const;

  /// The serial half of a gate: append channel `channel`'s candidates of
  /// `pass` to `ws.candidates`. Gates follow the stream's last stitched
  /// chunk or gate in lag order; the first may start on that pass's last
  /// lag, which it decides afresh, so a tail still pending there is
  /// dropped (a chunk's last lag outside every gate is never a candidate).
  void stitch_gate(const GatePass& pass, std::size_t channel, DetectorStream& stream,
                   DetectorWorkspace& ws) const;

  /// Lags on each side of a gate's centre: G = (gate_fft_size() -
  /// reference - 2) / 2, so a window of 2G + 1 gate lags and their two
  /// neighbours fits one transform. 944 lags (21 ms) for the 2205-tap chirp.
  [[nodiscard]] std::size_t gate_half_width() const { return gate_half_; }
  /// Transform size of the gate convolver: the smallest power of two that
  /// fits a window whose gate reaches at least a quarter of the reference
  /// to each side (reference + 2 + 2 * ceil(reference / 4) samples), 4096
  /// for the 2205-tap chirp.
  [[nodiscard]] std::size_t gate_fft_size() const { return gate_.fft_size(); }

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
  /// Pairs per chunk of the one schedule that batch detection, the ASP
  /// fan-out and live streams all run: one for every config, so a live
  /// stream holds little audio and a thread's chunk scratch stays one
  /// pair's working set. Every cross-chunk rule reads only the seam lags,
  /// and the min-spacing rule runs over the whole stream in `stream_end`.
  [[nodiscard]] static constexpr std::size_t chunk_pairs() { return 1; }
  /// min_spacing_s in lags.
  [[nodiscard]] std::size_t min_spacing_lags() const { return min_spacing_; }

  /// Pass 2 over the candidates stitched so far: the global min-spacing
  /// pass, strongest first, then the relative amplitude gate, into `out`
  /// (cleared first). It ranks `ws.candidates` in place, by strength and
  /// then lag, a total order, so the detections do not depend on the
  /// order the candidates had. A caller may therefore select mid-stream
  /// (beacon-gated ASP fits its schedule to the head's selection) and
  /// stitch on: the stitches only append, in lag order, after the ranked
  /// ones.
  void select(DetectorWorkspace& ws, std::vector<Detection>& out) const;

  /// Flush nothing — the final chunk resolves every candidate — then run
  /// `select` over `ws.candidates` into `out` and record detector
  /// telemetry for the whole stream on `obs`.
  /// Requires that the stream's last stitched chunk was final (or that no
  /// chunk was stitched). The stream is exhausted afterwards; reuse
  /// requires stream_begin.
  void stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                  std::vector<Detection>& out,
                  const obs::ObsContext* obs = nullptr) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<double>& reference() const { return reference_; }

  /// The window the detector's FFT size is costed for (the two-argument
  /// `choose_ols_fft_size`): ~3 s at 44.1 kHz. Only the block size reads
  /// it, so the pair grid is a function of the reference alone; no chunk
  /// of the schedule has this length.
  static constexpr std::size_t kFftCostingWindow = std::size_t{1} << 17;

  /// Lag-anchored valid correlation of the samples `seg`, which start at
  /// recording index `start` (a multiple of pair_lags()), against the
  /// reference into `ws.raw`: OLS pairs through the cached
  /// reversed-template convolver, or the direct sum when the reference is
  /// short enough. The pair grid is anchored to the recording, so a lag
  /// holds the same bits whichever segment computed it: a chunk pass, or
  /// the whole recording at start 0. Reserves `ws`'s per-chunk buffers
  /// for a full chunk.
  void correlate(std::span<const double> seg, std::size_t start,
                 DetectorWorkspace& ws) const;

 private:
  std::vector<double> reference_;
  DetectorConfig config_;
  double reference_norm_ = 0.0;  ///< L2 norm of the reference
  std::size_t block_ = 0;        ///< OLS block: lags per correlation block
  std::size_t min_spacing_ = 0;  ///< min_spacing_s in lags
  /// Overlap-save convolver for the time-reversed reference; engaged
  /// unless one pair's window times the reference is small enough for
  /// the direct sum (the rule every other convolution spelling uses).
  std::optional<OlsConvolver> ols_;
  OlsConvolver gate_;            ///< reversed reference at gate_fft_size()
  std::size_t gate_half_ = 0;    ///< gate_half_width()
};

}  // namespace hyperear::dsp
