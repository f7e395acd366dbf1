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

/// Detector configuration.
struct DetectorConfig {
  double sample_rate = 44100.0;
  /// Minimum normalized correlation for a peak to count as a chirp.
  double threshold = 0.25;
  /// Minimum spacing between detections, seconds (should be < beacon period
  /// but much larger than the chirp length).
  double min_spacing_s = 0.1;
  /// Streaming chunk length in samples (power of two keeps FFTs cheap).
  std::size_t chunk = 1u << 17;
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

/// One chunk of the detector's fixed schedule: recording samples
/// [start, start + size), and whether the chunk ends the recording.
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
  /// A peak on one of the chunk's edge lags. Its neighbor on the far side
  /// of the seam belongs to the adjacent chunk, so the stitch finishes it:
  /// the lag-0 peak (`head`) needs the previous chunk's last values for its
  /// local-maximum test and refinement; the last-lag peak of a non-final
  /// chunk (`tail`) is held pending until the next chunk's first lag.
  struct Edge {
    /// Score, key and lag are final; time, amplitude and echo ratio are
    /// filled by the stitch.
    DetectionCandidate candidate;
    double peak_raw = 0.0;  ///< raw correlation at the edge lag
    /// Raw correlation at the in-chunk neighbor: lag 1 for the head (none
    /// in a one-lag chunk), the second-to-last lag for the tail.
    std::optional<double> inner_raw;
    double runner = 0.0;  ///< strongest competing echo in the chunk
  };
  std::size_t start = 0;  ///< recording index of the chunk's first sample
  /// Finished candidates at every other peak lag, in ascending lag order.
  std::vector<DetectionCandidate> interior;
  std::optional<Edge> head;
  std::optional<Edge> tail;
  double first_masked = 0.0;  ///< gated |raw| at lag 0
  double last_masked = 0.0;   ///< gated |raw| at the last lag
  double first_raw = 0.0;     ///< raw correlation at lag 0
  double last_raw = 0.0;      ///< raw correlation at the last lag
};

/// Mutable scratch for matched-filter detection, reusable across `detect`
/// calls, channels, and sessions: the per-chunk correlation buffers, the
/// echo-competition index, the prefix-sum scratch, and the candidate
/// staging vectors. Like `dsp::Workspace` it is single-owner state — own
/// one per call stack (core::SessionWorkspace embeds one per channel slot)
/// and never share it across threads. Buffer contents carry no information
/// between calls; only capacity is retained, so a warmed workspace makes
/// detection allocation-free in the steady state while the detections stay
/// bit-identical to a fresh one.
///
/// `chunk_pass` uses the per-chunk members (fft through prefix); the stitch
/// and `stream_end` use the candidate staging. A caller that runs chunk
/// passes elsewhere (core's ASP fan-out and StreamingSession, on the
/// thread's core::ChunkScratch) leaves the per-chunk members of its
/// stitching workspace empty.
struct DetectorWorkspace {
  using Candidate = DetectionCandidate;

  Workspace fft;                      ///< FFT scratch for the OLS chunk loop
  std::vector<double> raw;            ///< per-chunk raw correlation
  std::vector<double> local_max;      ///< per-chunk |raw| local maxima (echo index)
  std::vector<double> block_max;      ///< per-kEchoBlock maxima of local_max
  std::vector<std::size_t> peaks;     ///< per-chunk gated local-max lags
  std::vector<double> prefix;         ///< prefix-sum scratch (normalization)
  ChunkPass pass;                     ///< chunk-pass staging of a serial caller
  std::vector<double> amps;           ///< amplitude-gate scratch
  std::vector<Candidate> candidates;  ///< pass-1 output, in stitch order
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
/// state of the stitch, lifted out so a caller can run the chunk schedule
/// itself as samples arrive. Plain data — persist one per live stream
/// (next to the stream's DetectorWorkspace, whose `candidates` vector
/// accumulates the pass-1 output between calls) and drive it with
/// MatchedFilterDetector::stream_begin / stream_chunk (or chunk_pass +
/// stitch) / stream_end. `detect_into` is itself written as begin -> chunk
/// loop -> end over this struct, so the streamed and batch spellings share
/// every instruction.
struct DetectorStream {
  /// The previous chunk's last-lag candidate, held until the next chunk's
  /// first lag is known: that lag resolves its right-neighbor comparison
  /// and is the right point of its parabolic refinement.
  struct Pending {
    ChunkPass::Edge edge;
    std::size_t chunk_start = 0;  ///< first sample of the candidate's chunk
  };
  std::optional<Pending> pending;
  double prev_last_masked = 0.0;  ///< previous chunk's final masked value
  double prev_last_raw = 0.0;     ///< previous chunk's final raw correlation
  bool have_prev = false;
  std::size_t chunks_streamed = 0;
  /// Recording index of the next chunk's first sample. Chunks advance by
  /// the fixed hop (chunk - reference + 1), so the schedule is a function
  /// of the recording length alone — never of how a caller buffered it.
  std::size_t next_start = 0;
};

/// Matched-filter detector for a fixed reference waveform.
///
/// Construction is the expensive part: an overlap-save convolver for the
/// reversed reference (kernel spectrum + FFT plan at the block size chosen
/// for the reference length) is built once, so every chunk of every
/// `detect` call streams against the cached spectrum instead of
/// re-transforming the template. The detector is immutable after
/// construction — one instance can serve concurrent `detect` calls from
/// many threads (core::PipelineContext shares one per batch engine); each
/// `detect` call keeps its own scratch `Workspace`.
///
/// `detect` output is invariant to how the recording is chunked: candidate
/// peaks are collected per chunk and the `min_spacing_s` rule is enforced
/// once, globally, strongest-first — two arrivals straddling a chunk
/// boundary obey exactly the spacing semantics of arrivals inside one
/// chunk.
class MatchedFilterDetector {
 public:
  /// `reference` is the sampled chirp (unit energy recommended); must be
  /// non-empty and shorter than config.chunk / 2.
  MatchedFilterDetector(std::vector<double> reference, const DetectorConfig& config);

  /// Detect all chirp arrivals in the recording. Processes the input in
  /// overlapping chunks so memory stays bounded for long sessions.
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
  /// growth of `out` itself. This is the canonical spelling the pipeline's
  /// SessionWorkspace path uses; `detect` above is a thin wrapper over it
  /// with a call-local workspace, bit-identical by construction.
  void detect_into(std::span<const double> recording, DetectorWorkspace& ws,
                   std::vector<Detection>& out,
                   const obs::ObsContext* obs = nullptr) const;

  /// Streaming protocol. Detection of a recording of (eventual) length N is
  ///   stream_begin(st, ws);
  ///   for each chunk of the fixed schedule: stream_chunk(seg, final, st, ws);
  ///   stream_end(st, ws, out, obs);
  /// where the schedule is the one `detect_into` runs: chunks start at
  /// st.next_start (0, hop, 2*hop, ... with hop = chunk - reference + 1)
  /// and span min(config().chunk, N - start) samples; a chunk shorter than
  /// the reference is never processed (its lags don't exist), and
  /// `final_chunk` is true iff the chunk ends the recording. An incremental
  /// caller may process a chunk as soon as MORE than `start + chunk`
  /// samples exist (the chunk is then certainly full and non-final), and
  /// the remaining <= 1 chunk at end of stream; detections and telemetry
  /// are then bit-identical to `detect_into` on the whole recording —
  /// pass 2 (global min-spacing) and the amplitude gate run in
  /// `stream_end`, over candidates accumulated in `ws.candidates`.
  void stream_begin(DetectorStream& stream, DetectorWorkspace& ws) const;

  /// Process the chunk starting at stream.next_start. `seg` holds recording
  /// samples [stream.next_start, stream.next_start + seg.size()) and must
  /// satisfy reference().size() <= seg.size() <= config().chunk, with
  /// seg.size() == config().chunk unless `final_chunk`. Advances
  /// stream.next_start by the hop. Exactly `chunk_pass` into `ws.pass`
  /// followed by `stitch`.
  void stream_chunk(std::span<const double> seg, bool final_chunk,
                    DetectorStream& stream, DetectorWorkspace& ws) const;

  /// The chunk-local half of `stream_chunk`: correlate the chunk starting
  /// at recording index `start`, normalize, gate, pick peaks and rank echo
  /// competitors, all inside the chunk. Peaks that need no sample of
  /// another chunk are finished into `out.interior`; the edge-lag peaks and
  /// the edge values go to the other fields of `out` for the stitch. Same
  /// preconditions on `seg` as `stream_chunk`. Reads nothing but `seg`
  /// and writes only `scratch`'s per-chunk buffers and `out`, so many
  /// chunks may be passed concurrently, each with its own scratch and out.
  void chunk_pass(std::span<const double> seg, std::size_t start, bool final_chunk,
                  DetectorWorkspace& scratch, ChunkPass& out) const;

  /// The serial half of `stream_chunk`: apply the cross-chunk rules to the
  /// chunk pass of the chunk starting at stream.next_start (checked). It
  /// resolves the previous chunk's pending tail against this chunk's first
  /// lag, runs the head's left-neighbor test against the previous chunk's
  /// last lag, appends the surviving candidates to `ws.candidates` in lag
  /// order, defers this chunk's tail, and advances the stream by the hop.
  void stitch(const ChunkPass& pass, DetectorStream& stream,
              DetectorWorkspace& ws) const;

  /// Number of chunks `detect_into` processes for a recording of `n`
  /// samples: the hop schedule up to the first chunk that reaches the end,
  /// minus that chunk when it is shorter than the reference.
  [[nodiscard]] std::size_t chunk_count(std::size_t n) const;
  /// Chunk `index` (< chunk_count(n)) of the schedule over `n` samples.
  [[nodiscard]] ChunkSpan chunk_span(std::size_t index, std::size_t n) const;

  /// Flush the pending boundary candidate, run the global min-spacing pass
  /// and the relative amplitude gate over `ws.candidates`, write the
  /// surviving detections to `out` (cleared first), and record detector
  /// telemetry for the whole stream on `obs`. The stream is exhausted
  /// afterwards; reuse requires stream_begin.
  void stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                  std::vector<Detection>& out,
                  const obs::ObsContext* obs = nullptr) const;

  [[nodiscard]] const DetectorConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<double>& reference() const { return reference_; }

 private:
  /// Valid-mode correlation of one chunk against the reference into
  /// `ws.raw`, streaming through the cached reversed-template convolver
  /// when the product is large enough for the FFT path to pay off.
  void correlate_chunk(std::span<const double> seg, DetectorWorkspace& ws) const;
  /// Chunk-to-chunk advance: consecutive chunks overlap by reference - 1
  /// samples, so their correlation lags are contiguous.
  [[nodiscard]] std::size_t hop() const { return config_.chunk - (reference_.size() - 1); }

  std::vector<double> reference_;
  DetectorConfig config_;
  double reference_norm_ = 0.0;  ///< L2 norm of the reference
  /// Overlap-save convolver for the time-reversed reference; engaged when
  /// full chunks take the FFT path.
  std::optional<OlsConvolver> ols_;
};

}  // namespace hyperear::dsp
