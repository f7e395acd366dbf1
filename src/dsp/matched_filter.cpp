#include "dsp/matched_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "dsp/correlation.hpp"
#include "dsp/peak.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hyperear::dsp {

namespace {

/// The |raw| local-maximum rule of echo competition: `mid` when it is at
/// least its left and above its right neighbor, else 0. Two selects rather
/// than `&&`, so the compiler emits no branch.
double echo_local_max(double left, double mid, double right) {
  const double right_ok = mid > right ? mid : 0.0;
  return mid >= left ? right_ok : 0.0;
}

/// Complete a candidate's detection at lag i of the chunk starting at
/// `start`: the arrival time refined by the parabola through the lag and
/// its two neighbors when both exist (with a neighbor missing the lag stays
/// on the grid, as refine_peak does at an array edge), the amplitude at the
/// vertex, and the echo ratio against `runner`.
void finish_detection(Detection& d, std::size_t start, std::size_t i,
                      std::optional<double> left, double peak,
                      std::optional<double> right, double runner, double sample_rate) {
  double offset = 0.0;
  double value = peak;
  if (left && right) {
    const ParabolicFit fit = parabolic_fit(*left, peak, *right);
    offset = fit.offset;
    value = fit.value;
  }
  d.time_s =
      (static_cast<double>(start) + (static_cast<double>(i) + offset)) / sample_rate;
  d.amplitude = std::abs(value);
  d.echo_competition = d.amplitude > 0.0 ? runner / d.amplitude : 0.0;
}

}  // namespace

CorrelationScan scan_correlation(std::span<const double> raw,
                                 const WindowNormalizer& norm, double threshold,
                                 DetectorWorkspace& ws) {
  const std::size_t n = raw.size();
  require(n >= 1, "scan_correlation: empty correlation");
  require(threshold > 0.0, "scan_correlation: threshold must be positive");
  ws.local_max.resize(n);
  ws.block_max.resize((n + kEchoBlock - 1) / kEchoBlock);
  ws.peaks.clear();
  // Lags that cannot clear the gate skip its sqrt/div: raw <= 0 (the
  // threshold is positive), and raw^2 < skip_margin * energy, i.e. a
  // normalized value below threshold / sqrt(2). Passing the gate needs
  // raw^2 >= threshold^2 * h^2 * energy up to a few ulps of rounding, far
  // inside the factor-2 margin as long as no product underflows, which
  // `skip_margin >= 1e-250` ensures (with the energy floor >= 1e-30); an
  // overflowing bound is safe, since an accepted raw^2 overflows with it.
  // Every other lag takes the exact test.
  const double h = norm.h_norm();
  double skip_margin = 0.5 * threshold * threshold * h * h;
  if (!(skip_margin >= 1e-250)) skip_margin = 0.0;
  const auto gated = [&](std::size_t k) {
    const double r = raw[k];
    // Both cheap tests are evaluated unconditionally: the sign of raw flips
    // every few lags, so a branch on it would mispredict.
    const bool pos = r > 0.0;
    const bool near = !(r * r < skip_margin * norm.energy(k));
    if (!(pos && near)) return 0.0;
    return r / norm.denominator(k) >= threshold ? r : 0.0;  // r > 0: r == |r|
  };
  // Rolling three-lag windows (left, mid, right) of the gated and the
  // ungated |raw|: lag j is decided once lag j + 1 is known. Lag 0 has no
  // left neighbor in the chunk: m_left = 0 makes its gated test one-sided
  // (a peak is >= 1e-12 anyway), a NaN a_left keeps it out of local_max.
  const double first_masked = gated(0);
  double m_left = 0.0;
  double m_mid = first_masked;
  double a_left = std::numeric_limits<double>::quiet_NaN();
  double a_mid = std::abs(raw[0]);
  std::size_t j = 0;
  for (std::size_t b = 0; b < ws.block_max.size(); ++b) {
    double block = 0.0;
    const std::size_t end = std::min((b + 1) * kEchoBlock, n - 1);
    for (; j < end; ++j) {
      const double m_right = gated(j + 1);
      const double a_right = std::abs(raw[j + 1]);
      if (m_mid >= 1e-12 && m_mid >= m_left && m_mid > m_right) ws.peaks.push_back(j);
      const double lm = echo_local_max(a_left, a_mid, a_right);
      ws.local_max[j] = lm;
      block = std::max(block, lm);
      m_left = m_mid;
      m_mid = m_right;
      a_left = a_mid;
      a_mid = a_right;
    }
    ws.block_max[b] = block;
  }
  // The last lag's right neighbor is outside the chunk.
  ws.local_max[n - 1] = 0.0;
  if (m_mid >= 1e-12 && m_mid >= m_left) ws.peaks.push_back(n - 1);
  return {first_masked, m_mid};
}


double echo_runner(std::span<const double> local_max, std::span<const double> block_max,
                   std::size_t i, std::size_t min_spacing, std::size_t exclusion) {
  const std::size_t n = local_max.size();
  double best = 0.0;
  const auto take = [&best](double v) {
    if (v > best) best = v;
  };
  // Largest local_max over the inclusive lag range [lo, hi].
  const auto range = [&](std::size_t lo, std::size_t hi) {
    if (lo > hi) return;
    const std::size_t first = lo / kEchoBlock;
    const std::size_t last = hi / kEchoBlock;
    if (first == last) {
      for (std::size_t j = lo; j <= hi; ++j) take(local_max[j]);
      return;
    }
    for (std::size_t j = lo; j < (first + 1) * kEchoBlock; ++j) take(local_max[j]);
    for (std::size_t b = first + 1; b < last; ++b) take(block_max[b]);
    for (std::size_t j = last * kEchoBlock; j <= hi; ++j) take(local_max[j]);
  };
  // Window (lo, hi) exclusive; the exclusion zone splits it in two.
  const std::size_t lo = i > min_spacing ? i - min_spacing : 0;
  const std::size_t hi = std::min(i + min_spacing, n - 1);
  if (hi < lo + 2) return best;
  if (i >= exclusion) range(lo + 1, std::min(i - exclusion, hi - 1));
  range(std::max(lo + 1, i + exclusion), hi - 1);
  return best;
}

// NOLINTNEXTLINE(hyperear-hotpath) -- one-time plan construction: the detector takes ownership of its reference
MatchedFilterDetector::MatchedFilterDetector(std::vector<double> reference,
                                             const DetectorConfig& config)
    : reference_(std::move(reference)), config_(config) {
  require(!reference_.empty(), "MatchedFilterDetector: empty reference");
  require(config_.sample_rate > 0.0, "MatchedFilterDetector: bad sample rate");
  require(config_.chunk >= 2 * reference_.size(),
          "MatchedFilterDetector: chunk must be at least twice the reference length");
  require(config_.threshold > 0.0 && config_.threshold < 1.0,
          "MatchedFilterDetector: threshold must be in (0, 1)");
  double energy = 0.0;
  for (double v : reference_) energy += v * v;
  require(energy > 0.0, "MatchedFilterDetector: zero-energy reference");
  reference_norm_ = std::sqrt(energy);
  // Precompute the reversed-reference overlap-save convolver: every chunk
  // of every detect call streams against its cached kernel spectrum, so the
  // reference is never re-transformed per chunk (or per detect call), and
  // odd-sized tail chunks reuse the same plan instead of a bespoke
  // transform. Small signal/reference products take the direct path in
  // correlate_valid, where an FFT would not pay off.
  if (config_.chunk * reference_.size() > kDirectProductLimit) {
    ols_.emplace(std::vector<double>(reference_.rbegin(), reference_.rend()),
                 choose_ols_fft_size(reference_.size(), config_.chunk));
  }
}

void MatchedFilterDetector::correlate_chunk(std::span<const double> seg,
                                            DetectorWorkspace& ws) const {
  if (!ols_) {
    // No cached convolver means every full chunk is below the direct-path
    // threshold, where the planless overload evaluates directly: take that
    // path into the persistent chunk buffer.
    correlate_valid_direct_into(seg, reference_, ws.raw);
    return;
  }
  // The into-spelling takes the same direct path as the planless overload
  // for small tails, keeping results bit-identical with or without the
  // cache — and writes into the persistent chunk buffer.
  correlate_valid_into(seg, *ols_, ws.raw, ws.fft);
}

// NOLINTBEGIN(hyperear-hotpath) -- convenience wrapper: allocates call-local scratch; steady-state callers use detect_into
std::vector<Detection> MatchedFilterDetector::detect(
    std::span<const double> recording, const obs::ObsContext* obs) const {
  DetectorWorkspace ws;
  std::vector<Detection> out;
  detect_into(recording, ws, out, obs);
  return out;
}
// NOLINTEND(hyperear-hotpath) -- end of convenience wrapper

void MatchedFilterDetector::detect_into(std::span<const double> recording,
                                        DetectorWorkspace& ws,
                                        std::vector<Detection>& out,
                                        const obs::ObsContext* obs) const {
  // The batch spelling IS the streaming protocol run to completion over
  // the fixed chunk schedule — one implementation, so the two paths cannot
  // drift. A recording shorter than the reference streams zero chunks and
  // still passes through stream_end, which clears the output and staging
  // and keeps the telemetry consistent.
  DetectorStream stream;
  stream_begin(stream, ws);
  const std::size_t chunks = chunk_count(recording.size());
  for (std::size_t k = 0; k < chunks; ++k) {
    const ChunkSpan span = chunk_span(k, recording.size());
    stream_chunk(recording.subspan(span.start, span.size), span.final_chunk, stream, ws);
  }
  stream_end(stream, ws, out, obs);
}

std::size_t MatchedFilterDetector::chunk_count(std::size_t n) const {
  const std::size_t ref_len = reference_.size();
  const std::size_t chunk = config_.chunk;
  if (n < ref_len) return 0;
  if (n <= chunk) return 1;
  // Chunk k is the last when k * hop + chunk >= n; that chunk is dropped
  // when it holds fewer samples than the reference (its lags don't exist).
  const std::size_t last = (n - chunk + hop() - 1) / hop();
  return n - last * hop() < ref_len ? last : last + 1;
}

ChunkSpan MatchedFilterDetector::chunk_span(std::size_t index, std::size_t n) const {
  const std::size_t start = index * hop();
  HE_EXPECTS(start < n);
  const std::size_t size = std::min(config_.chunk, n - start);
  return {start, size, start + size == n};
}

void MatchedFilterDetector::stream_begin(DetectorStream& stream,
                                         DetectorWorkspace& ws) const {
  // Pass 1 (chunk_pass + stitch, per chunk) collects every above-threshold
  // local maximum per chunk, WITHOUT spacing-gating inside the chunk —
  // spacing is a global property and is enforced once over all chunks in
  // stream_end, so the detections cannot depend on where the chunk
  // boundaries happened to fall. Correlation lags are contiguous across
  // chunks (chunks overlap by ref_len - 1 samples), and the local-maximum
  // test and the parabolic refinement read their neighbors across chunk
  // boundaries: the stitch resolves a first-lag candidate against the
  // previous chunk's last values, and holds a last-lag candidate pending
  // until the next chunk's first lag is known.
  stream = DetectorStream{};
  ws.candidates.clear();
}

void MatchedFilterDetector::stream_chunk(std::span<const double> seg, bool final_chunk,
                                         DetectorStream& stream,
                                         DetectorWorkspace& ws) const {
  chunk_pass(seg, stream.next_start, final_chunk, ws, ws.pass);
  stitch(ws.pass, stream, ws);
}

void MatchedFilterDetector::chunk_pass(std::span<const double> seg, std::size_t start,
                                       bool final_chunk, DetectorWorkspace& scratch,
                                       ChunkPass& out) const {
  const std::size_t ref_len = reference_.size();
  require(seg.size() >= ref_len && seg.size() <= config_.chunk,
          "stream_chunk: segment must span [reference, chunk] samples");
  require(final_chunk || seg.size() == config_.chunk,
          "stream_chunk: only the final chunk may be short");
  const auto min_spacing =
      static_cast<std::size_t>(config_.min_spacing_s * config_.sample_rate);
  const auto exclusion = static_cast<std::size_t>(1.2e-3 * config_.sample_rate);

  correlate_chunk(seg, scratch);
  const std::vector<double>& raw = scratch.raw;
  // Candidate gating on the normalized statistic, ranking on amplitude:
  // one pass suppresses sub-threshold shapes, finds local maxima of the
  // gated |raw|, and indexes the ungated |raw| local maxima for the echo
  // competition below.
  const WindowNormalizer norm(seg, ref_len, reference_norm_, scratch.prefix);
  const CorrelationScan scan = scan_correlation(raw, norm, config_.threshold, scratch);

  out.start = start;
  out.interior.clear();
  out.head.reset();
  out.tail.reset();
  out.first_masked = scan.first_masked;
  out.last_masked = scan.last_masked;
  out.first_raw = raw.front();
  out.last_raw = raw.back();
  const std::size_t last = raw.size() - 1;
  for (const std::size_t i : scratch.peaks) {
    // Echo competition: strongest |raw| local max in the same window but
    // outside the exclusion zone around the winner (the autocorrelation
    // main lobe plus near sidelobes span ~1 ms; only arrivals beyond that
    // are genuine competing paths).
    const double runner =
        echo_runner(scratch.local_max, scratch.block_max, i, min_spacing, exclusion);
    DetectionCandidate c{Detection{}, std::abs(raw[i]), start + i};
    c.detection.score = raw[i] / norm.denominator(i);
    if (i == 0) {
      // The left neighbor is the previous chunk's last lag. A non-final
      // chunk is full, hence longer than one lag, so a head is never also
      // a pending tail.
      std::optional<double> right;
      if (last > 0) right = raw[1];
      out.head = ChunkPass::Edge{c, raw[0], right, runner};
      continue;
    }
    if (i == last && !final_chunk) {
      // The right neighbor lives in the next chunk.
      out.tail = ChunkPass::Edge{c, raw[i], raw[i - 1], runner};
      continue;
    }
    std::optional<double> right;
    if (i < last) right = raw[i + 1];
    // Refine timing on the raw correlation around the winning sample.
    finish_detection(c.detection, start, i, raw[i - 1], raw[i], right, runner,
                     config_.sample_rate);
    out.interior.push_back(c);
  }
}

void MatchedFilterDetector::stitch(const ChunkPass& pass, DetectorStream& stream,
                                   DetectorWorkspace& ws) const {
  require(pass.start == stream.next_start, "stitch: chunk out of schedule order");
  ++stream.chunks_streamed;
  // The previous chunk's tail can be resolved now that its right neighbor
  // (this chunk's first lag) is known.
  if (stream.pending) {
    const DetectorStream::Pending& p = *stream.pending;
    if (p.edge.candidate.key > pass.first_masked) {
      DetectionCandidate c = p.edge.candidate;
      finish_detection(c.detection, p.chunk_start, c.global_index - p.chunk_start,
                       p.edge.inner_raw, p.edge.peak_raw, pass.first_raw,
                       p.edge.runner, config_.sample_rate);
      ws.candidates.push_back(c);
    }
    stream.pending.reset();
  }
  // The head's local-maximum test and refinement read the previous chunk's
  // last lag as the left neighbor.
  if (pass.head &&
      !(stream.have_prev && !(pass.first_masked >= stream.prev_last_masked))) {
    std::optional<double> left;
    if (stream.have_prev) left = stream.prev_last_raw;
    DetectionCandidate c = pass.head->candidate;
    finish_detection(c.detection, pass.start, 0, left, pass.head->peak_raw,
                     pass.head->inner_raw, pass.head->runner, config_.sample_rate);
    ws.candidates.push_back(c);
  }
  ws.candidates.insert(ws.candidates.end(), pass.interior.begin(), pass.interior.end());
  if (pass.tail) stream.pending = DetectorStream::Pending{*pass.tail, pass.start};
  stream.prev_last_masked = pass.last_masked;
  stream.prev_last_raw = pass.last_raw;
  stream.have_prev = true;
  stream.next_start = pass.start + hop();
}

void MatchedFilterDetector::stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                                       std::vector<Detection>& out,
                                       const obs::ObsContext* obs) const {
  using Candidate = DetectorWorkspace::Candidate;
  out.clear();
  const auto min_spacing =
      static_cast<std::size_t>(config_.min_spacing_s * config_.sample_rate);
  // The recording ended right at a chunk boundary (the tail was shorter
  // than the reference): the held-back candidate has no right neighbor and
  // stands.
  if (stream.pending) {
    const DetectorStream::Pending& p = *stream.pending;
    DetectionCandidate c = p.edge.candidate;
    finish_detection(c.detection, p.chunk_start, c.global_index - p.chunk_start,
                     p.edge.inner_raw, p.edge.peak_raw, std::nullopt, p.edge.runner,
                     config_.sample_rate);
    ws.candidates.push_back(c);
    stream.pending.reset();
  }

  // Pass 2: enforce min_spacing once, globally, strongest-first — the same
  // greedy rule find_peaks applies inside a single chunk, so two arrivals
  // straddling a chunk boundary obey exactly the spacing semantics of
  // arrivals within one chunk (regression: an ascending-amplitude chain
  // across boundaries used to collapse to its last element).
  std::sort(ws.candidates.begin(), ws.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.global_index < b.global_index;
            });
  ws.selected.clear();
  for (const Candidate& c : ws.candidates) {
    bool ok = true;
    for (const Candidate& a : ws.selected) {
      const std::size_t gap = c.global_index > a.global_index
                                  ? c.global_index - a.global_index
                                  : a.global_index - c.global_index;
      if (gap < min_spacing) {
        ok = false;
        break;
      }
    }
    if (ok) ws.selected.push_back(c);
  }
  std::sort(ws.selected.begin(), ws.selected.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global_index < b.global_index;
            });
  out.reserve(ws.selected.size());
  for (const Candidate& c : ws.selected) out.push_back(c.detection);

  // Relative amplitude gate: direct arrivals have comparable strength; far
  // echoes and noise flukes fall well below the median and are dropped.
  if (config_.relative_amplitude_gate > 0.0 && out.size() >= 3) {
    ws.amps.clear();
    ws.amps.reserve(out.size());
    for (const Detection& d : out) ws.amps.push_back(d.amplitude);
    const double gate = config_.relative_amplitude_gate * median(ws.amps);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].amplitude >= gate) out[kept++] = out[i];
    }
    out.resize(kept);
  }

  if (obs != nullptr && obs->metrics != nullptr) {
    obs::MetricsRegistry& m = *obs->metrics;
    m.counter("detector.chunks_total").inc(static_cast<double>(stream.chunks_streamed));
    m.counter("detector.candidates_total").inc(static_cast<double>(ws.candidates.size()));
    m.counter("detector.detections_total").inc(static_cast<double>(out.size()));
    static constexpr double kScoreBounds[] = {0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
    const obs::Histogram scores = m.histogram("detector.detection_score", kScoreBounds);
    for (const Detection& d : out) scores.observe(d.score);
  }
}

}  // namespace hyperear::dsp
