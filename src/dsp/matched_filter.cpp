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
  exclusion_ = static_cast<std::size_t>(1.2e-3 * config_.sample_rate);
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
  chunk_pairs_ = std::max<std::size_t>(1, (min_spacing_ + pair_lags() - 1) / pair_lags());
}

void MatchedFilterDetector::correlate_chunk(std::span<const double> seg, std::size_t start,
                                            DetectorWorkspace& ws) const {
  // Size the per-chunk buffers for a full chunk of the schedule up front: a
  // thread whose first pass is a short final chunk would otherwise grow
  // them geometrically past one chunk on its next full one.
  const std::size_t lags = seg.size() - reference_.size() + 1;
  const std::size_t full = std::max(lags, chunk_pairs_ * pair_lags());
  ws.raw.reserve(full);
  ws.local_max.reserve(full);
  ws.prefix.reserve(full + pair_lags() + reference_.size());
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
  const std::size_t chunks = chunk_count(recording.size(), chunk_pairs_);
  for (std::size_t k = 0; k < chunks; ++k) {
    const ChunkSpan span = chunk_span(k, recording.size(), chunk_pairs_);
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
  // every rule that reads a neighbor lag — the local-maximum test, the
  // parabolic refinement, the echo window — reads it across chunk
  // boundaries in the stitch.
  stream = DetectorStream{};
  ws.deferred.clear();
  ws.echo_maxima.clear();
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
  require(start % pair_lags() == 0, "chunk_pass: chunk must start on an OLS pair");
  require(final_chunk || lags % pair_lags() == 0,
          "chunk_pass: only the final chunk may end inside an OLS pair");

  correlate_chunk(seg, start, scratch);
  const std::vector<double>& raw = scratch.raw;
  // Candidate gating on the normalized statistic, ranking on amplitude:
  // one pass suppresses sub-threshold shapes, finds local maxima of the
  // gated |raw|, and indexes the ungated |raw| local maxima for the echo
  // competition below. The normalizer restarts at every pair.
  const WindowNormalizer norm(seg, ref_len, reference_norm_, scratch.prefix, pair_lags());
  const CorrelationScan scan = scan_correlation(raw, norm, config_.threshold, scratch);

  out.start = start;
  out.lags = lags;
  out.final_chunk = final_chunk;
  out.interior.clear();
  out.head.reset();
  out.tail.reset();
  out.edge_maxima.clear();
  out.first_masked = scan.first_masked;
  out.last_masked = scan.last_masked;
  out.first_raw = raw.front();
  out.last_raw = raw.back();
  out.second_raw = lags >= 2 ? raw[1] : 0.0;
  out.penult_raw = lags >= 2 ? raw[lags - 2] : 0.0;
  const std::size_t last = lags - 1;
  for (const std::size_t i : scratch.peaks) {
    // Echo competition: strongest |raw| local max in the window but
    // outside the exclusion zone around the winner (the autocorrelation
    // main lobe plus near sidelobes span ~1 ms; only arrivals beyond that
    // are genuine competing paths). The stitch extends it past the chunk.
    ChunkPass::Peak p{DetectionCandidate{Detection{}, std::abs(raw[i]), start + i},
                      echo_runner(scratch.local_max, scratch.block_max, i, min_spacing_,
                                  exclusion_),
                      start + 1, start + last};
    p.candidate.detection.score = raw[i] / norm.denominator(i);
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
    refine_detection(p.candidate.detection, start + i, raw[i - 1], raw[i], right,
                     config_.sample_rate);
    out.interior.push_back(p);
  }
  // What a neighbor's echo window can reach of this chunk, sparsely. A
  // window from a later chunk covers a suffix of the last min_spacing
  // lags, one from an earlier chunk a prefix of the first min_spacing,
  // except that the exclusion zone of a candidate just across the seam
  // may cut it anywhere in the last (first) `exclusion` lags. Those lags
  // go out whole; of the rest, only the maxima that no lag nearer the
  // seam exceeds, since a suffix (prefix) maximum is always one of them.
  // local_max is 0 off the maxima and on the two edge lags, whose status
  // the stitch decides.
  const std::vector<double>& lm = scratch.local_max;
  std::vector<EchoPeak>& edge = out.edge_maxima;
  const std::size_t reach = std::min(min_spacing_, lags);
  const std::size_t dense = std::min(exclusion_, reach);
  const auto put = [&](std::size_t j) {
    if (lm[j] > 0.0) edge.push_back({start + j, lm[j]});
  };
  const auto put_record = [&](std::size_t j, double& record) {
    if (lm[j] > record) {
      record = lm[j];
      edge.push_back({start + j, record});
    }
  };
  for (std::size_t j = 0; j < dense; ++j) put(j);
  double record = 0.0;
  for (std::size_t j = dense; j < reach; ++j) put_record(j, record);
  const std::size_t trailing = edge.size();
  record = 0.0;
  for (std::size_t j = lags - dense; j-- > lags - reach;) put_record(j, record);
  std::reverse(edge.begin() + static_cast<std::ptrdiff_t>(trailing), edge.end());
  for (std::size_t j = lags - dense; j < lags; ++j) put(j);
  // A chunk shorter than 2 * min_spacing exported overlapping ranges.
  if (lags - reach < reach) {
    std::sort(edge.begin(), edge.end(),
              [](const EchoPeak& a, const EchoPeak& b) { return a.lag < b.lag; });
  }
}

double MatchedFilterDetector::full_runner(const ChunkPass::Peak& peak,
                                          const std::vector<EchoPeak>& maxima) const {
  // The window is lags (i - min_spacing, i + min_spacing) less the
  // exclusion zone; the stitched maxima never include the recording's
  // first or last lag, which have one neighbor only, so the window is
  // clipped at the recording's ends and nowhere else.
  const std::size_t i = peak.candidate.global_index;
  const std::size_t lo = i >= min_spacing_ ? i - min_spacing_ + 1 : 0;
  const std::size_t hi = i + min_spacing_;
  double best = peak.runner;
  const auto scan = [&](std::size_t from, std::size_t to) {
    if (from >= to) return;
    auto it = std::lower_bound(maxima.begin(), maxima.end(), from,
                               [](const EchoPeak& e, std::size_t lag) { return e.lag < lag; });
    for (; it != maxima.end() && it->lag < to; ++it) {
      const std::size_t gap = it->lag > i ? it->lag - i : i - it->lag;
      if (gap >= exclusion_ && it->value > best) best = it->value;
    }
  };
  scan(lo, std::min(hi, peak.inner_begin));
  scan(std::max(lo, peak.inner_end), hi);
  return best;
}

void MatchedFilterDetector::stitch(const ChunkPass& pass, DetectorStream& stream,
                                   DetectorWorkspace& ws) const {
  require(pass.start == stream.next_start, "stitch: chunk out of schedule order");
  ++stream.chunks_streamed;
  const double fs = config_.sample_rate;
  if (stream.have_prev) {
    // The previous chunk's last lag now has its right neighbor: decide
    // whether it is an echo maximum, and resolve its held-back candidate.
    const double seam_max = echo_local_max(std::abs(stream.prev_penult_raw),
                                           std::abs(stream.prev_last_raw),
                                           std::abs(pass.first_raw));
    if (seam_max > 0.0) ws.echo_maxima.push_back({pass.start - 1, seam_max});
    if (stream.pending && stream.pending->candidate.key > pass.first_masked) {
      ChunkPass::Peak p = *stream.pending;
      refine_detection(p.candidate.detection, p.candidate.global_index,
                       stream.prev_penult_raw, stream.prev_last_raw, pass.first_raw, fs);
      ws.deferred.push_back(p);
    }
    stream.pending.reset();
    // This chunk's first lag is an echo maximum only with both neighbors:
    // not the recording's first lag, nor the last (a one-lag final chunk).
    if (pass.lags >= 2) {
      const double first_max = echo_local_max(std::abs(stream.prev_last_raw),
                                              std::abs(pass.first_raw),
                                              std::abs(pass.second_raw));
      if (first_max > 0.0) ws.echo_maxima.push_back({pass.start, first_max});
    }
  }
  ws.echo_maxima.insert(ws.echo_maxima.end(), pass.edge_maxima.begin(),
                        pass.edge_maxima.end());
  // The head's local-maximum test and refinement read the previous chunk's
  // last lag as the left neighbor.
  if (pass.head &&
      !(stream.have_prev && !(pass.first_masked >= stream.prev_last_masked))) {
    std::optional<double> left;
    if (stream.have_prev) left = stream.prev_last_raw;
    std::optional<double> right;
    if (pass.lags >= 2) right = pass.second_raw;
    ChunkPass::Peak p = *pass.head;
    refine_detection(p.candidate.detection, pass.start, left, pass.first_raw, right, fs);
    ws.deferred.push_back(p);
  }
  ws.deferred.insert(ws.deferred.end(), pass.interior.begin(), pass.interior.end());
  if (pass.tail) stream.pending = *pass.tail;
  stream.prev_last_masked = pass.last_masked;
  stream.prev_last_raw = pass.last_raw;
  stream.prev_penult_raw = pass.penult_raw;
  stream.have_prev = true;
  const std::size_t end = pass.start + pass.lags;
  stream.next_start = end;

  // Every lag's echo status is known through end - 2 (the last lag waits
  // for the next chunk), or everywhere once the chunk is final. A
  // candidate whose window (i - min_spacing, i + min_spacing) is covered
  // is complete; candidates leave in lag order.
  std::size_t done = 0;
  for (; done < ws.deferred.size(); ++done) {
    const ChunkPass::Peak& p = ws.deferred[done];
    if (!pass.final_chunk && p.candidate.global_index + min_spacing_ + 1 > end) break;
    DetectionCandidate c = p.candidate;
    const double runner = full_runner(p, ws.echo_maxima);
    c.detection.echo_competition =
        c.detection.amplitude > 0.0 ? runner / c.detection.amplitude : 0.0;
    ws.candidates.push_back(c);
  }
  ws.deferred.erase(ws.deferred.begin(),
                    ws.deferred.begin() + static_cast<std::ptrdiff_t>(done));
  // Drop the maxima no remaining window reaches: every later candidate
  // lies at or after `floor`, so its window starts above floor - min_spacing.
  std::size_t floor = end;
  if (stream.pending) floor = stream.pending->candidate.global_index;
  if (!ws.deferred.empty()) floor = std::min(floor, ws.deferred.front().candidate.global_index);
  const auto keep = std::find_if(ws.echo_maxima.begin(), ws.echo_maxima.end(),
                                 [&](const EchoPeak& e) { return e.lag + min_spacing_ > floor; });
  ws.echo_maxima.erase(ws.echo_maxima.begin(), keep);
}

void MatchedFilterDetector::stream_end(DetectorStream& stream, DetectorWorkspace& ws,
                                       std::vector<Detection>& out,
                                       const obs::ObsContext* obs) const {
  using Candidate = DetectorWorkspace::Candidate;
  require(!stream.pending && ws.deferred.empty(),
          "stream_end: the recording's final chunk was not stitched");
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
