#include "dsp/matched_filter.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/stats.hpp"
#include "dsp/correlation.hpp"
#include "dsp/peak.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hyperear::dsp {

namespace {

/// Transform size of the gate convolver: the smallest power of two whose
/// window holds the reference plus gate lags reaching at least a quarter
/// of the reference to each side, and their two neighbours.
std::size_t gate_fft_size_for(std::size_t reference) {
  return next_pow2(reference + 2 + 2 * ((reference + 3) / 4));
}

/// Refine a candidate's detection at recording lag k: the arrival time
/// from the parabola through the lag and its two neighbors when both exist
/// (with a neighbor missing the lag stays on the grid, as refine_peak does
/// at an array edge), and the amplitude at the vertex. The time is read
/// from the recording lag, so it does not depend on where chunks begin.
void refine_detection(Detection& d, std::size_t k, std::optional<double> left,
                      double peak, std::optional<double> right, double sample_rate) {
  double offset = 0.0;
  double value = peak;
  if (left && right) {
    const ParabolicFit fit = parabolic_fit(*left, peak, *right);
    offset = fit.offset;
    value = fit.value;
  }
  d.time_s = (static_cast<double>(k) + offset) / sample_rate;
  d.amplitude = std::abs(value);
}

}  // namespace

CorrelationScan scan_correlation(std::span<const double> raw,
                                 const WindowNormalizer& norm, double threshold,
                                 DetectorWorkspace& ws) {
  const std::size_t n = raw.size();
  require(n >= 1, "scan_correlation: empty correlation");
  require(threshold > 0.0, "scan_correlation: threshold must be positive");
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
  // A rolling three-lag window (left, mid, right) of the gated |raw|: lag
  // j is decided once lag j + 1 is known. Lag 0 has no left neighbor in
  // the chunk: m_left = 0 makes its test one-sided (a peak is >= 1e-12
  // anyway).
  const double first_masked = gated(0);
  double m_left = 0.0;
  double m_mid = first_masked;
  for (std::size_t j = 0; j + 1 < n; ++j) {
    const double m_right = gated(j + 1);
    if (m_mid >= 1e-12 && m_mid >= m_left && m_mid > m_right) ws.peaks.push_back(j);
    m_left = m_mid;
    m_mid = m_right;
  }
  // The last lag's right neighbor is outside the chunk.
  if (m_mid >= 1e-12 && m_mid >= m_left) ws.peaks.push_back(n - 1);
  return {first_masked, m_mid};
}


// NOLINTNEXTLINE(hyperear-hotpath) -- one-time plan construction: the detector takes ownership of its reference
MatchedFilterDetector::MatchedFilterDetector(std::vector<double> reference,
                                             const DetectorConfig& config)
    : reference_(std::move(reference)),
      config_(config),
      gate_(reference_.empty()
                ? std::vector<double>{0.0}
                : std::vector<double>(reference_.rbegin(), reference_.rend()),
            gate_fft_size_for(reference_.size())) {
  require(!reference_.empty(), "MatchedFilterDetector: empty reference");
  require(std::isfinite(config_.sample_rate) && config_.sample_rate > 0.0,
          "MatchedFilterDetector: bad sample rate");
  require(config_.threshold > 0.0 && config_.threshold < 1.0,
          "MatchedFilterDetector: threshold must be in (0, 1)");
  // Converting a NaN or out-of-range spacing to a lag count would be
  // undefined behaviour; 2^52 lags is far beyond any recording.
  const double spacing = config_.min_spacing_s * config_.sample_rate;
  require(config_.min_spacing_s > 0.0 && spacing < 0x1p52,
          "MatchedFilterDetector: min_spacing_s must be positive and finite");
  min_spacing_ = static_cast<std::size_t>(spacing);
  double energy = 0.0;
  for (double v : reference_) energy += v * v;
  require(energy > 0.0, "MatchedFilterDetector: zero-energy reference");
  reference_norm_ = std::sqrt(energy);
  // The pair grid is a function of the reference alone: the FFT size is
  // costed for kFftCostingWindow windows whatever chunks a caller runs,
  // and the direct-vs-OLS choice compares one pair's window with the
  // product limit every other convolution spelling uses.
  const std::size_t m = reference_.size();
  const std::size_t fft_size = choose_ols_fft_size(m, kFftCostingWindow);
  block_ = fft_size - m + 1;
  if (chunk_samples(1) * m > kDirectProductLimit) {
    ols_.emplace(std::vector<double>(reference_.rbegin(), reference_.rend()), fft_size);
  }
  gate_half_ = (gate_.fft_size() - m - 2) / 2;
}

void MatchedFilterDetector::correlate(std::span<const double> seg, std::size_t start,
                                      DetectorWorkspace& ws) const {
  require(seg.size() >= reference_.size(),
          "correlate: segment shorter than the reference");
  require(start % pair_lags() == 0, "correlate: segment must start on an OLS pair");
  // Size the per-chunk buffers for a full chunk of the schedule up front: a
  // thread whose first pass is a short final chunk would otherwise grow
  // them geometrically past one chunk on its next full one.
  const std::size_t lags = seg.size() - reference_.size() + 1;
  const std::size_t chunk_lags = chunk_pairs() * pair_lags();
  ws.raw.reserve(std::max(lags, chunk_lags));
  ws.prefix.reserve(chunk_lags + pair_lags() + reference_.size());
  if (!ols_) {
    // The direct sum computes every lag on its own, so it is chunk-invariant
    // as it stands.
    correlate_valid_direct_into(seg, reference_, ws.raw);
    return;
  }
  ws.raw.resize(lags);
  ols_->correlate_pairs_into(seg, start, ws.raw.data(), ws.fft);
}

void MatchedFilterDetector::detect_into(std::span<const double> recording,
                                        DetectorWorkspace& ws,
                                        std::vector<Detection>& out,
                                        const obs::ObsContext* obs) const {
  // The batch spelling IS the streaming protocol run to completion over
  // the one chunk schedule — one implementation, so the two paths cannot
  // drift. A recording shorter than the reference streams zero chunks and
  // still passes through stream_end, which clears the output and staging
  // and keeps the telemetry consistent.
  DetectorStream stream;
  stream_begin(stream, ws);
  const std::size_t chunks = chunk_count(recording.size(), chunk_pairs());
  for (std::size_t k = 0; k < chunks; ++k) {
    const ChunkSpan span = chunk_span(k, recording.size(), chunk_pairs());
    stream_chunk(recording.subspan(span.start, span.size), span.final_chunk, stream, ws);
  }
  stream_end(stream, ws, out, obs);
}

std::size_t MatchedFilterDetector::chunk_count(std::size_t n, std::size_t pairs) const {
  require(pairs >= 1, "chunk_count: a chunk holds at least one pair");
  const std::size_t m = reference_.size();
  if (n < m) return 0;
  const std::size_t chunk_lags = pairs * pair_lags();
  return (n - m + 1 + chunk_lags - 1) / chunk_lags;
}

ChunkSpan MatchedFilterDetector::chunk_span(std::size_t index, std::size_t n,
                                            std::size_t pairs) const {
  const std::size_t m = reference_.size();
  const std::size_t chunk_lags = pairs * pair_lags();
  HE_EXPECTS(pairs >= 1 && n >= m && index * chunk_lags < n - m + 1);
  const std::size_t lags = n - m + 1;
  const std::size_t start = index * chunk_lags;
  const std::size_t end = std::min(start + chunk_lags, lags);
  return {start, end - start + m - 1, end == lags};
}

void MatchedFilterDetector::stream_begin(DetectorStream& stream,
                                         DetectorWorkspace& ws) const {
  // Pass 1 (chunk_pass + stitch, per chunk) collects every above-threshold
  // local maximum, WITHOUT spacing-gating inside the chunk — spacing is a
  // global property and is enforced once over all chunks in stream_end,
  // so the detections cannot depend on where the chunk boundaries
  // happened to fall. Correlation lags are contiguous across chunks, and
  // every rule that reads a neighbor lag — the local-maximum test and the
  // parabolic refinement — reads it across chunk boundaries in the stitch.
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
  require(seg.size() >= ref_len, "chunk_pass: segment shorter than the reference");
  const std::size_t lags = seg.size() - ref_len + 1;
  require(final_chunk || lags % pair_lags() == 0,
          "chunk_pass: only the final chunk may end inside an OLS pair");

  correlate(seg, start, scratch);
  const std::vector<double>& raw = scratch.raw;
  // Candidate gating on the normalized statistic, ranking on amplitude:
  // one pass suppresses sub-threshold shapes and finds local maxima of the
  // gated |raw|. The normalizer restarts at every pair.
  const WindowNormalizer norm(seg, ref_len, reference_norm_, scratch.prefix, pair_lags());
  const CorrelationScan scan = scan_correlation(raw, norm, config_.threshold, scratch);

  out.start = start;
  out.lags = lags;
  out.final_chunk = final_chunk;
  out.interior.clear();
  out.head.reset();
  out.tail.reset();
  out.first_masked = scan.first_masked;
  out.last_masked = scan.last_masked;
  out.first_raw = raw.front();
  out.last_raw = raw.back();
  out.second_raw = lags >= 2 ? raw[1] : 0.0;
  out.penult_raw = lags >= 2 ? raw[lags - 2] : 0.0;
  const std::size_t last = lags - 1;
  for (const std::size_t i : scratch.peaks) {
    DetectionCandidate p{Detection{}, std::abs(raw[i]), start + i};
    p.detection.score = raw[i] / norm.denominator(i);
    if (i == 0) {
      // The left neighbor is the previous chunk's last lag. A non-final
      // chunk spans whole pairs, hence more than one lag, so a head is
      // never also a pending tail.
      out.head = p;
      continue;
    }
    if (i == last && !final_chunk) {
      // The right neighbor lives in the next chunk.
      out.tail = p;
      continue;
    }
    std::optional<double> right;
    if (i < last) right = raw[i + 1];
    // Refine timing on the raw correlation around the winning sample.
    refine_detection(p.detection, start + i, raw[i - 1], raw[i], right,
                     config_.sample_rate);
    out.interior.push_back(p);
  }
}

void MatchedFilterDetector::stitch(const ChunkPass& pass, DetectorStream& stream,
                                   DetectorWorkspace& ws) const {
  require(pass.start == stream.next_start, "stitch: chunk out of schedule order");
  ++stream.chunks_streamed;
  const double fs = config_.sample_rate;
  // The previous chunk's last lag now has its right neighbor: resolve its
  // held-back candidate.
  if (stream.pending && stream.pending->key > pass.first_masked) {
    DetectionCandidate c = *stream.pending;
    refine_detection(c.detection, c.global_index, stream.prev_penult_raw,
                     stream.prev_last_raw, pass.first_raw, fs);
    ws.candidates.push_back(c);
  }
  stream.pending.reset();
  // The head's local-maximum test and refinement read the previous chunk's
  // last lag as the left neighbor.
  if (pass.head &&
      !(stream.have_prev && !(pass.first_masked >= stream.prev_last_masked))) {
    std::optional<double> left;
    if (stream.have_prev) left = stream.prev_last_raw;
    std::optional<double> right;
    if (pass.lags >= 2) right = pass.second_raw;
    DetectionCandidate c = *pass.head;
    refine_detection(c.detection, pass.start, left, pass.first_raw, right, fs);
    ws.candidates.push_back(c);
  }
  ws.candidates.insert(ws.candidates.end(), pass.interior.begin(), pass.interior.end());
  stream.pending = pass.tail;
  stream.prev_last_masked = pass.last_masked;
  stream.prev_last_raw = pass.last_raw;
  stream.prev_penult_raw = pass.penult_raw;
  stream.have_prev = true;
  stream.next_start = pass.start + pass.lags;
}

void MatchedFilterDetector::gate_pass(std::span<const double> mic1,
                                      std::span<const double> mic2, std::size_t x_start,
                                      std::size_t lo, std::size_t hi, bool final_gate,
                                      DetectorWorkspace& scratch, GatePass& out) const {
  const std::size_t m = reference_.size();
  require(lo >= 1 && lo <= hi && hi - lo <= 2 * gate_half_,
          "gate_pass: a gate holds 1 to 2G + 1 lags after lag 0");
  // Window lag 0 is the gate's left neighbour, and the last window lag its
  // right one unless the gate ends the recording.
  const std::size_t first = lo - 1;
  const std::size_t lags = hi - lo + (final_gate ? 2 : 3);
  const std::size_t size = lags + m - 1;
  require(mic1.size() == mic2.size() && first >= x_start &&
              first - x_start + size <= mic1.size(),
          "gate_pass: the window lies outside the samples");
  const std::span<const double> w1 = mic1.subspan(first - x_start, size);
  const std::span<const double> w2 = mic2.subspan(first - x_start, size);
  const OlsConvolver::LagPair raw = gate_.correlate_two(w1, w2, scratch.fft);
  out.lo = lo;
  out.hi = hi;
  out.window_lags = lags;
  for (std::size_t ch = 0; ch < 2; ++ch) {
    const std::span<const double> x = ch == 0 ? w1 : w2;
    const std::span<const double> r = ch == 0 ? raw.first : raw.second;
    const WindowNormalizer norm(x, m, reference_norm_, scratch.prefix);
    (void)scan_correlation(r, norm, config_.threshold, scratch);
    std::vector<DetectionCandidate>& cands = out.candidates[ch];
    cands.clear();
    for (const std::size_t i : scratch.peaks) {
      // Both neighbours of a gate lag are in the window, bar the right one
      // of a gate ending the recording; the neighbours themselves are read
      // but never decided here.
      if (i == 0 || (i == lags - 1 && !final_gate)) continue;
      DetectionCandidate p{Detection{}, std::abs(r[i]), first + i};
      p.detection.score = r[i] / norm.denominator(i);
      std::optional<double> right;
      if (i + 1 < lags) right = r[i + 1];
      refine_detection(p.detection, first + i, r[i - 1], r[i], right,
                       config_.sample_rate);
      cands.push_back(p);
    }
  }
}

void MatchedFilterDetector::stitch_gate(const GatePass& pass, std::size_t channel,
                                        DetectorStream& stream,
                                        DetectorWorkspace& ws) const {
  require(channel < 2 && pass.lo + 1 >= stream.next_start,
          "stitch_gate: gate out of lag order");
  stream.pending.reset();
  const std::vector<DetectionCandidate>& cands = pass.candidates[channel];
  ws.candidates.insert(ws.candidates.end(), cands.begin(), cands.end());
  stream.next_start = pass.hi + 1;
}

void MatchedFilterDetector::stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                                       std::vector<Detection>& out,
                                       const obs::ObsContext* obs) const {
  require(!stream.pending, "stream_end: the recording's final chunk was not stitched");
  select(ws, out);

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

void MatchedFilterDetector::select(DetectorWorkspace& ws,
                                   std::vector<Detection>& out) const {
  using Candidate = DetectorWorkspace::Candidate;
  out.clear();

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
      if (gap < min_spacing_) {
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
}

}  // namespace hyperear::dsp
