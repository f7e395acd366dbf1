#include "core/streaming_session.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/pipeline_context.hpp"
#include "core/pipeline_detail.hpp"
#include "core/session_workspace.hpp"
#include "obs/clock.hpp"

namespace hyperear::core {

const char* to_string(StreamPhase phase) {
  switch (phase) {
    case StreamPhase::calibrating: return "calibrating";
    case StreamPhase::sliding_1: return "sliding_1";
    case StreamPhase::sliding_2: return "sliding_2";
    case StreamPhase::solving: return "solving";
    case StreamPhase::done: return "done";
  }
  return "unknown";
}

StreamingSession::StreamingSession(sim::Session meta, PipelineConfig config,
                                   std::shared_ptr<const PipelineContext> context,
                                   SessionWorkspace* workspace, SdfOptions sdf)
    : meta_(std::move(meta)),
      config_(config),
      sdf_(sdf),
      shared_context_(std::move(context)) {
  require(meta_.audio.mic1.empty() && meta_.audio.mic2.empty(),
          "StreamingSession: meta audio must be empty (samples arrive via push)");
  if (workspace != nullptr) {
    ws_ = workspace;
  } else {
    owned_workspace_ = std::make_unique<SessionWorkspace>();
    ws_ = owned_workspace_.get();
  }
  ws_->reset();
  // The batch path's plan rule. Plan failure is remembered, not thrown —
  // finalize classifies it as an asp-stage error in batch order (after the
  // empty-recording check), so the streamed and batch error taxonomies
  // agree.
  try {
    context_ = &detail::resolve_context(shared_context_.get(), config_.asp,
                                        meta_.prior.chirp, meta_.audio.sample_rate,
                                        local_context_);
  } catch (...) {
    ctx_error_ = std::current_exception();
  }
  if (context_ != nullptr) {
    // The ring's high-water mark over the head: run_detector leaves at
    // most one chunk behind and one ingest slice adds at most the slice,
    // so a ring reserved at that bound never regrows.
    const dsp::MatchedFilterDetector& det = context_->detector();
    head_chunks_ =
        detail::head_chunks(det, context_->asp_options(), meta_.prior.nominal_period);
    reserve_rings(det.chunk_samples(det.chunk_pairs()) + kIngestSlice);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      ChannelWorkspace& cw = ws_->channel(slot);
      det.stream_begin(cw.stream, cw.detector);
    }
  }
  slide1_mark_s_ = meta_.prior.calibration_duration;
  if (meta_.prior.two_statures && meta_.imu.size() > 0 && meta_.imu.sample_rate > 0.0) {
    // The protocol's second stature occupies the back half of the motion
    // record; the midpoint between the calibration head and the IMU end is
    // a meta-derived (hence chunking-invariant) stand-in for the actual
    // stature-change instant, which only the solve can estimate.
    const double imu_end =
        static_cast<double>(meta_.imu.size()) / meta_.imu.sample_rate;
    slide2_mark_s_ = 0.5 * (slide1_mark_s_ + std::max(imu_end, slide1_mark_s_));
  }
}

void StreamingSession::push(std::span<const double> mic1, std::span<const double> mic2) {
  require(!finalized_, "StreamingSession: push after finalize");
  require(mic1.size() == mic2.size(),
          "StreamingSession: channel slices must have equal lengths");
  if (mic1.empty()) return;
  // The batch path's order: mic1's first bad sample, then mic2's.
  detail::require_finite(mic1, "mic1", total_);
  detail::require_finite(mic2, "mic2", total_);
  // Plans failed to build: keep counting samples (finalize reports errors
  // in batch order) but retain nothing — memory stays bounded even for a
  // stream that can never be processed.
  if (context_ == nullptr) {
    total_ += mic1.size();
    return;
  }
  const obs::MonotonicTime t0 = obs::monotonic_now();
  const ThreadScratchLease lease;
  // Append and detect one bounded slice at a time, so a large push (a
  // whole recording, a drained inbox) never holds more than the ring's
  // reserved bound. Detection is chunking-invariant, so the slicing
  // changes no result.
  for (std::size_t pos = 0; pos < mic1.size(); pos += kIngestSlice) {
    const std::size_t n = std::min(kIngestSlice, mic1.size() - pos);
    append(channels_[0], mic1.subspan(pos, n), total_);
    append(channels_[1], mic2.subspan(pos, n), total_);
    total_ += n;
    note_retained();
    run_detector(false, lease.scratch());
  }
  asp_ms_ += obs::ms_since(t0);
}

void StreamingSession::append(Channel& ch, std::span<const double> slice,
                              std::size_t first) {
  // Between gates the ring may start past the samples so far: the samples
  // before the next gate's window are never read.
  const std::size_t skip =
      ch.ring_start > first ? std::min(slice.size(), ch.ring_start - first) : 0;
  HE_EXPECTS(skip > 0 || first == ch.ring_start + ch.ring.size());
  const std::size_t capacity = ch.ring.capacity();
  ch.ring.insert(ch.ring.end(), slice.begin() + static_cast<std::ptrdiff_t>(skip),
                 slice.end());
  HE_ENSURES(ch.ring.capacity() == capacity);  // reserved at the bound
}

void StreamingSession::reserve_rings(std::size_t capacity) {
  for (Channel& ch : channels_) {
    // The kept samples move into a ring reserved at the new bound, and the
    // old ring's storage is released.
    // NOLINTBEGIN(hyperear-hotpath) -- at most twice per session: at open and past the head
    std::vector<double> ring;
    ring.reserve(capacity);
    // NOLINTEND(hyperear-hotpath) -- end of the fresh ring
    ring.assign(ch.ring.begin(), ch.ring.end());
    ch.ring.swap(ring);
    HE_ENSURES(ch.ring.size() <= capacity && ch.ring.capacity() == capacity);
  }
}

void StreamingSession::compact(std::size_t keep) {
  // Runs once per chunk or gate, so the erase is O(1) amortized per
  // incoming sample.
  for (Channel& ch : channels_) {
    if (keep <= ch.ring_start) continue;
    const std::size_t drop = std::min(keep - ch.ring_start, ch.ring.size());
    ch.ring.erase(ch.ring.begin(), ch.ring.begin() + static_cast<std::ptrdiff_t>(drop));
    ch.ring_start = keep;
  }
}

void StreamingSession::run_detector(bool drain_all, ChunkScratch& scratch) {
  if (!gates_) run_chunks(drain_all, scratch);
  if (gates_) run_gates(drain_all, scratch);
}

void StreamingSession::after_pass(std::size_t frontier) {
  collect_candidates(0, channels_[0]);
  collect_candidates(1, channels_[1]);
  scan_zero_crossings(false);
  advance_phase(frontier);
}

void StreamingSession::run_chunks(bool drain_all, ChunkScratch& scratch) {
  const dsp::MatchedFilterDetector& det = context_->detector();
  const std::size_t pairs = det.chunk_pairs();
  // Before the end of the stream, lay the schedule over the samples so
  // far: every chunk of it but the last is then certainly full and
  // certainly not the recording's last, exactly as the schedule over the
  // true length will say. At the end of the stream the length is known
  // and the remaining chunks run through the final one. Both rings
  // always hold the same span of samples. Until the head is planned only
  // its chunks run.
  const std::size_t chunks = det.chunk_count(total_, pairs);
  while (next_chunk_ < (planned_ ? chunks : std::min(chunks, head_chunks_))) {
    const dsp::ChunkSpan span = det.chunk_span(next_chunk_, total_, pairs);
    if (span.final_chunk && !drain_all) return;
    for (std::size_t slot = 0; slot < 2; ++slot) {
      Channel& ch = channels_[slot];
      ChannelWorkspace& cw = ws_->channel(slot);
      const std::span<const double> seg(ch.ring.data() + (span.start - ch.ring_start),
                                        span.size);
      det.chunk_pass(seg, span.start, span.final_chunk, scratch.detector,
                     scratch.detector.pass);
      det.stitch(scratch.detector.pass, cw.stream, cw.detector);
      ws_->asp_work().correlated_lags += scratch.detector.pass.lags;
    }
    after_pass(span.start + span.size);
    ++next_chunk_;
    // Nothing reads the rings after the recording's last chunk, whose
    // next start may lie past their end.
    if (span.final_chunk) return;
    // Keep the samples from the next chunk's start, or, once the head has
    // scheduled gates, from the first gate's window.
    std::size_t keep = ws_->channel(0).stream.next_start;
    if (!planned_ && next_chunk_ == head_chunks_) {
      planned_ = true;
      gates_ = detail::plan_gates(*context_, *ws_, meta_.prior.nominal_period, keep);
      if (gates_) {
        keep = gates_->lo(0) - 1;
      } else {
        ws_->asp_work().fallback = true;
      }
    }
    compact(keep);
    if (gates_) {
      // Past the head a ring holds at most one gate window, which fits the
      // gate transform, plus one ingest slice.
      reserve_rings(det.gate_fft_size() + kIngestSlice);
      return;
    }
  }
}

void StreamingSession::run_gates(bool drain_all, ChunkScratch& scratch) {
  const dsp::MatchedFilterDetector& det = context_->detector();
  const std::size_t m = det.reference().size();
  // The schedule over the samples so far, as for chunks: a gate that is
  // not the last of it has its right neighbour lag, hence its whole
  // window, and is certainly not the recording's last.
  const std::size_t lags = total_ >= m ? total_ - m + 1 : 0;
  for (;;) {
    const std::optional<detail::GateSpan> g = gates_->gate(next_gate_, lags);
    if (!g || (g->final_gate && !drain_all)) return;
    const Channel& ch = channels_[0];
    det.gate_pass(ch.ring, channels_[1].ring, ch.ring_start, g->lo, g->hi, g->final_gate,
                  scratch.detector, scratch.gate);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      ChannelWorkspace& cw = ws_->channel(slot);
      det.stitch_gate(scratch.gate, slot, cw.stream, cw.detector);
    }
    AspWork& work = ws_->asp_work();
    work.correlated_lags += 2 * scratch.gate.window_lags;
    ++work.gates;
    after_pass(g->lo - 1 + scratch.gate.window_lags + m - 1);
    ++next_gate_;
    if (g->final_gate) return;
    compact(gates_->lo(next_gate_) - 1);
  }
}

void StreamingSession::collect_candidates(std::size_t slot, Channel& ch) {
  // A stitched candidate is final at once, and the chunk and gate stitches
  // append them in lag order. (Planning the gates ranks the head's
  // candidates in place, after this has read them.)
  const std::vector<dsp::DetectionCandidate>& candidates =
      ws_->channel(slot).detector.candidates;
  for (; ch.candidates_seen < candidates.size(); ++ch.candidates_seen) {
    const double t = candidates[ch.candidates_seen].detection.time_s;
    if (ch.arrivals.empty()) {
      events_.push_back({StreamEvent::Kind::beacon_acquired, slot, t, phase_, false, 0.0});
    }
    ch.arrivals.push_back(t);
  }
}

void StreamingSession::scan_zero_crossings(bool final_pass) {
  // Re-pair the provisional per-mic arrival streams into a TDoA trace with
  // the batch pairing rule. Crossings are emitted only from the trace's
  // settled prefix, less the 3 samples the swing gate reads ahead, so the
  // event stream is invariant to chunking; the final pass at finalize()
  // emits the rest.
  const std::size_t stable = pair_arrival_times(
      channels_[0].arrivals, channels_[1].arrivals, sdf_.max_pairing_offset_s,
      tdoa_scratch_);
  const std::size_t scan_end =
      final_pass ? tdoa_scratch_.size() : (stable >= 4 ? stable - 3 : 0);
  for (std::optional<ZeroCrossing> c = find_zero_crossing(
           tdoa_scratch_, crossing_cursor_, scan_end, sdf_.min_swing_s);
       c; c = find_zero_crossing(tdoa_scratch_, c->index + 1, scan_end, sdf_.min_swing_s)) {
    events_.push_back(
        {StreamEvent::Kind::sdf_zero_cross, 0, c->time_s, phase_, false, 0.0});
  }
  crossing_cursor_ = std::max(crossing_cursor_, scan_end);
}

void StreamingSession::advance_phase(std::size_t frontier_samples) {
  const double fs = meta_.audio.sample_rate;
  if (fs <= 0.0) return;
  const double t = static_cast<double>(frontier_samples) / fs;
  if (phase_ == StreamPhase::calibrating && t >= slide1_mark_s_) {
    phase_ = StreamPhase::sliding_1;
    events_.push_back(
        {StreamEvent::Kind::phase_change, 0, slide1_mark_s_, phase_, false, 0.0});
  }
  if (phase_ == StreamPhase::sliding_1 && slide2_mark_s_ > 0.0 &&
      t >= slide2_mark_s_) {
    phase_ = StreamPhase::sliding_2;
    events_.push_back(
        {StreamEvent::Kind::phase_change, 0, slide2_mark_s_, phase_, false, 0.0});
  }
}

void StreamingSession::note_retained() {
  peak_retained_ = std::max(peak_retained_, retained_samples());
}

std::size_t StreamingSession::retained_samples() const {
  std::size_t held = 0;
  for (const Channel& ch : channels_) held += ch.ring.size();
  return held;
}

std::size_t StreamingSession::reserved_samples() const {
  std::size_t reserved = 0;
  for (const Channel& ch : channels_) reserved += ch.ring.capacity();
  return reserved;
}

Expected<LocalizationResult, PipelineError> StreamingSession::finalize(
    StageMetrics* metrics, const obs::ObsContext* obs) {
  require(!finalized_, "StreamingSession: finalize called twice");
  finalized_ = true;

  bool asp_done = false;
  Expected<LocalizationResult, PipelineError> r = detail::run_session(
      meta_, config_, asp_ms_,
      [&] {
        // Batch error order: the empty-recording precondition fires before
        // any plan problem (preprocess_audio checks the recording before
        // building a context).
        require(total_ > 0, "preprocess_audio: empty recording");
        if (ctx_error_) std::rethrow_exception(ctx_error_);
        {
          const ThreadScratchLease lease;
          run_detector(true, lease.scratch());
        }
        scan_zero_crossings(true);
        advance_phase(total_);
        AspResult asp = detail::end_asp(*context_, *ws_, meta_.prior.nominal_period,
                                        meta_.prior.calibration_duration, obs);
        asp_done = true;
        return asp;
      },
      metrics, obs);

  phase_ = StreamPhase::done;
  if (!asp_done) return r;
  const double end_time_s = meta_.audio.sample_rate > 0.0
                                ? static_cast<double>(total_) / meta_.audio.sample_rate
                                : 0.0;
  events_.push_back({StreamEvent::Kind::phase_change, 0, end_time_s,
                     StreamPhase::solving, false, 0.0});
  if (r.has_value()) {
    // Deterministic confidence: a pure function of the result, so the fix
    // event is chunking- and thread-invariant. The paper's protocol asks
    // for five slides per stature; a fix standing on all of them earns
    // full confidence, fewer accepted slides proportionally less.
    const double conf =
        r->valid ? std::min(1.0, static_cast<double>(r->slides_used) / 5.0) : 0.0;
    events_.push_back({StreamEvent::Kind::fix, 0, end_time_s, StreamPhase::solving,
                       r->valid, conf});
  }
  events_.push_back(
      {StreamEvent::Kind::phase_change, 0, end_time_s, phase_, false, 0.0});
  return r;
}

}  // namespace hyperear::core
