#include "core/streaming_session.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/pipeline_context.hpp"
#include "core/pipeline_detail.hpp"
#include "core/session_workspace.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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
  // Same context rule as the batch path: a supplied context is authoritative
  // only when it matches this config + session; otherwise build
  // session-local plans. Plan failure is remembered, not thrown — finalize
  // classifies it as an asp-stage error in batch order (after the
  // empty-recording check), so the streamed and batch error taxonomies
  // agree.
  try {
    const double fs = meta_.audio.sample_rate;
    if (shared_context_ != nullptr &&
        shared_context_->matches(config_.asp, meta_.prior.chirp, fs)) {
      context_ = shared_context_.get();
    } else {
      local_context_.emplace(config_.asp, meta_.prior.chirp, fs);
      context_ = &*local_context_;
    }
  } catch (...) {
    ctx_error_ = std::current_exception();
  }
  if (context_ != nullptr) {
    // The ring's high-water mark: run_detector leaves at most one streaming
    // chunk behind and one ingest slice adds at most the slice, so a ring
    // reserved at that bound never regrows.
    const dsp::MatchedFilterDetector& det = context_->detector();
    const std::size_t ring_capacity =
        det.chunk_samples(det.streaming_pairs()) + kIngestSlice;
    for (std::size_t slot = 0; slot < 2; ++slot) {
      Channel& ch = channels_[slot];
      // NOLINTNEXTLINE(hyperear-hotpath) -- once per session, at its bound
      ch.ring.reserve(ring_capacity);
      context_->detector().stream_begin(ch.stream, ws_->channel(slot).detector);
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
  total_ += mic1.size();
  // Plans failed to build: keep counting samples (finalize reports errors
  // in batch order) but retain nothing — memory stays bounded even for a
  // stream that can never be processed.
  if (context_ == nullptr) return;
  const obs::MonotonicTime t0 = obs::monotonic_now();
  const ThreadScratchLease lease;
  // Append and detect one bounded slice at a time, so a large push (a
  // whole recording, a drained inbox) never holds more than the ring's
  // reserved bound. Detection is chunking-invariant, so the slicing
  // changes no result.
  for (std::size_t pos = 0; pos < mic1.size(); pos += kIngestSlice) {
    const std::size_t n = std::min(kIngestSlice, mic1.size() - pos);
    append(channels_[0], mic1.subspan(pos, n));
    append(channels_[1], mic2.subspan(pos, n));
    note_retained();
    run_detector(false, lease.scratch());
  }
  asp_ms_ += obs::ms_since(t0);
}

void StreamingSession::append(Channel& ch, std::span<const double> slice) {
  const std::size_t capacity = ch.ring.capacity();
  ch.ring.insert(ch.ring.end(), slice.begin(), slice.end());
  HE_ENSURES(ch.ring.capacity() == capacity);  // reserved at the bound
}

void StreamingSession::run_detector(bool drain_all, ChunkScratch& scratch) {
  const dsp::MatchedFilterDetector& det = context_->detector();
  const std::size_t ref_len = det.reference().size();
  const std::size_t chunk = det.chunk_samples(det.streaming_pairs());
  for (;;) {
    const std::size_t start = next_chunk_start_;
    std::size_t end = 0;
    bool final_chunk = false;
    if (!drain_all) {
      // Eager rule: process the schedule's next chunk only when STRICTLY
      // more than its end has been appended — then the chunk is certainly
      // full and certainly not the recording's last, so `final_chunk =
      // false` matches what the schedule will say once the true length
      // is known. Both rings always hold the same span of samples.
      const std::size_t avail = channels_[0].ring_start + channels_[0].ring.size();
      if (avail <= start + chunk) break;
      end = start + chunk;
    } else {
      // End of stream: the final length is known, so this is the
      // streaming schedule's (at most one) remaining chunk, which holds
      // the recording's last lag.
      const std::size_t n = total_;
      if (n < ref_len || start > n - ref_len) break;
      end = std::min(start + chunk, n);
      final_chunk = end == n;
    }
    for (std::size_t slot = 0; slot < 2; ++slot) {
      Channel& ch = channels_[slot];
      const std::span<const double> seg(ch.ring.data() + (start - ch.ring_start),
                                        end - start);
      det.chunk_pass(seg, start, final_chunk, scratch.detector, scratch.detector.pass);
      det.stitch(scratch.detector.pass, ch.stream, ws_->channel(slot).detector);
      collect_candidates(slot, ch);
    }
    next_chunk_start_ = channels_[0].stream.next_start;
    scan_zero_crossings(false);
    advance_phase(end);
    // After the recording's last chunk the detector's schedule cursor may
    // point past the end of the signal; nothing further reads the rings, so
    // compacting would erase past ring.end(). Stop before compaction.
    if (final_chunk) break;
    // Compact the rings below the next chunk's start. This branch runs at
    // most once per streaming chunk, so the erase is O(1) amortized per
    // incoming sample and each ring holds about one streaming chunk at its
    // peak.
    for (Channel& ch : channels_) {
      if (next_chunk_start_ > ch.ring_start) {
        ch.ring.erase(ch.ring.begin(),
                      ch.ring.begin() +
                          static_cast<std::ptrdiff_t>(next_chunk_start_ - ch.ring_start));
        ch.ring_start = next_chunk_start_;
      }
    }
  }
}

void StreamingSession::collect_candidates(std::size_t slot, Channel& ch) {
  // A stitched candidate's arrival time is final at once; only its echo
  // ratio waits in the stitch's deferred list for the lags after it. The
  // events read times alone, so they take the deferred candidates too: all
  // of ws.candidates, then ws.deferred, in lag order, each lag once.
  const dsp::DetectorWorkspace& dws = ws_->channel(slot).detector;
  const auto take = [&](const dsp::DetectionCandidate& c) {
    if (c.global_index < ch.next_lag) return;  // consumed while deferred
    ch.next_lag = c.global_index + 1;
    const double t = c.detection.time_s;
    if (ch.arrivals.empty()) {
      events_.push_back({StreamEvent::Kind::beacon_acquired, slot, t, phase_, false, 0.0});
    }
    ch.arrivals.push_back(t);
  };
  for (std::size_t i = ch.candidates_seen; i < dws.candidates.size(); ++i) {
    take(dws.candidates[i]);
  }
  ch.candidates_seen = dws.candidates.size();
  for (const dsp::ChunkPass::Peak& p : dws.deferred) take(p.candidate);
}

void StreamingSession::scan_zero_crossings(bool final_pass) {
  // Re-pair the provisional per-mic arrival streams into a TDoA trace with
  // `pair_inter_mic_tdoas`' exact two-pointer rule, tracking which prefix
  // of the trace can no longer change: a mic1 event's pairing is settled
  // once its nearest-mic2 scan stopped on a comparison (not on running out
  // of mic2 events) — appended events can then never be reached. Crossings
  // are emitted only from that settled prefix (plus the lookahead the
  // swing gate needs), so the event stream is invariant to chunking; the
  // final pass at finalize() emits the rest.
  const std::vector<double>& m1 = channels_[0].arrivals;
  const std::vector<double>& m2 = channels_[1].arrivals;
  tdoa_scratch_.clear();
  std::size_t stable = 0;
  std::size_t j = 0;
  bool settled_so_far = true;
  for (const double t1 : m1) {
    while (j + 1 < m2.size() && std::abs(m2[j + 1] - t1) <= std::abs(m2[j] - t1)) {
      ++j;
    }
    if (j >= m2.size()) break;
    // The scan stopped because it ran out of mic2 events, not because the
    // next one was farther: a future mic2 arrival could re-pair this and
    // every later mic1 event.
    if (j + 1 >= m2.size()) settled_so_far = false;
    const double dt = t1 - m2[j];
    if (std::abs(dt) <= sdf_.max_pairing_offset_s) {
      tdoa_scratch_.push_back({0.5 * (t1 + m2[j]), dt});
    }
    if (settled_so_far) stable = tdoa_scratch_.size();
  }
  const std::size_t n = tdoa_scratch_.size();
  // The swing gate of core::find_direction reads up to 3 samples past the
  // crossing, so a non-final scan stops 3 short of the settled prefix.
  const std::size_t scan_end = final_pass ? n : (stable >= 4 ? stable - 3 : 0);
  for (std::size_t i = crossing_cursor_; i < scan_end; ++i) {
    const TdoaSample& a = tdoa_scratch_[i - 1];
    const TdoaSample& b = tdoa_scratch_[i];
    if (a.tdoa_s == 0.0 && b.tdoa_s == 0.0) continue;
    if (a.tdoa_s * b.tdoa_s > 0.0) continue;
    const std::size_t lo = i >= 4 ? i - 4 : 0;
    const std::size_t hi = std::min(i + 3, n - 1);
    const double swing = tdoa_scratch_[hi].tdoa_s - tdoa_scratch_[lo].tdoa_s;
    if (std::abs(swing) < sdf_.min_swing_s) continue;
    const double span = b.tdoa_s - a.tdoa_s;
    const double frac = span != 0.0 ? -a.tdoa_s / span : 0.5;
    events_.push_back({StreamEvent::Kind::sdf_zero_cross, 0,
                       lerp(a.time_s, b.time_s, frac), phase_, false, 0.0});
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

Expected<LocalizationResult, PipelineError> StreamingSession::finalize(
    StageMetrics* metrics, const obs::ObsContext* obs) {
  require(!finalized_, "StreamingSession: finalize called twice");
  finalized_ = true;

  StageMetrics local;
  local.asp_ms = asp_ms_;
  if (metrics != nullptr) *metrics = local;

  obs::MetricsRegistry* registry = obs != nullptr ? obs->metrics : nullptr;
  obs::Tracer* tracer = obs != nullptr ? obs->tracer : nullptr;
  const std::uint64_t sid = obs != nullptr ? obs->session_id : 0;
  obs::TraceSpan session_span(tracer, "session", sid);

  if (std::optional<PipelineError> bad = config_.validate()) {
    if (registry != nullptr) {
      detail::record_pipeline_metrics(*registry, local, nullptr, &*bad);
    }
    phase_ = StreamPhase::done;
    return make_unexpected(*std::move(bad));
  }

  AspResult asp;
  try {
    obs::TraceSpan span(tracer, "asp", sid, &session_span);
    const obs::MonotonicTime t0 = obs::monotonic_now();
    // Batch error order: the empty-recording precondition fires before any
    // plan problem (preprocess_audio checks the recording before building
    // a context).
    require(total_ > 0, "preprocess_audio: bad recording");
    if (ctx_error_) std::rethrow_exception(ctx_error_);
    {
      const ThreadScratchLease lease;
      run_detector(true, lease.scratch());
    }
    scan_zero_crossings(true);
    advance_phase(total_);
    for (std::size_t slot = 0; slot < 2; ++slot) {
      Channel& ch = channels_[slot];
      ChannelWorkspace& cw = ws_->channel(slot);
      context_->detector().stream_end(ch.stream, cw.detector, cw.detections, obs);
      convert_chirp_events(cw.detections, slot == 0 ? asp.mic1 : asp.mic2);
    }
    finish_asp(asp, meta_.prior.nominal_period, meta_.prior.calibration_duration,
               config_.asp, ws_->arena(), obs);
    local.asp_ms = asp_ms_ + obs::ms_since(t0);
    local.chirps_mic1 = asp.mic1.size();
    local.chirps_mic2 = asp.mic2.size();
    local.sfo_estimated = asp.sfo_estimated;
  } catch (const std::exception& e) {
    if (metrics != nullptr) *metrics = local;
    PipelineError error = error_from_exception(e, PipelineStage::asp);
    if (registry != nullptr) {
      detail::record_pipeline_metrics(*registry, local, nullptr, &error);
    }
    phase_ = StreamPhase::done;
    return make_unexpected(std::move(error));
  }

  const double end_time_s = meta_.audio.sample_rate > 0.0
                                ? static_cast<double>(total_) / meta_.audio.sample_rate
                                : 0.0;
  phase_ = StreamPhase::solving;
  events_.push_back(
      {StreamEvent::Kind::phase_change, 0, end_time_s, phase_, false, 0.0});

  Expected<LocalizationResult, PipelineError> r =
      detail::localize_from_asp(asp, meta_, config_, local, obs, &session_span);
  if (metrics != nullptr) *metrics = local;

  if (r.has_value()) {
    // Deterministic confidence: a pure function of the result, so the fix
    // event is chunking- and thread-invariant. The paper's protocol asks
    // for five slides per stature; a fix standing on all of them earns
    // full confidence, fewer accepted slides proportionally less.
    const double conf =
        r->valid ? std::min(1.0, static_cast<double>(r->slides_used) / 5.0) : 0.0;
    events_.push_back(
        {StreamEvent::Kind::fix, 0, end_time_s, phase_, r->valid, conf});
  }
  phase_ = StreamPhase::done;
  events_.push_back(
      {StreamEvent::Kind::phase_change, 0, end_time_s, phase_, false, 0.0});
  return r;
}

}  // namespace hyperear::core
