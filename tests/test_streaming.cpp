/// Streaming-ingest tests (ctest label "streaming"; the tsan/asan presets
/// run them): a StreamingSession fed ANY chunking of a recording must
/// produce the batch pipeline's fix BIT FOR BIT plus a chunking-invariant
/// incremental event stream, with peak retained memory bounded well below
/// the recording length; the Engine must multiplex many such live
/// sessions over its pool without changing a bit of any of them.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/streaming_session.hpp"
#include "dsp/matched_filter.hpp"
#include "sim/scenario.hpp"

// Heap probe: the largest single block requested on this thread while
// armed. It sees what a session's own accounting cannot — a buffer that
// held a whole recording and was compacted before `push` returned still
// shows up here. The replaced operators are plain malloc/free, so they
// pair with each other under every sanitizer.
namespace {
thread_local bool probe_armed = false;
thread_local std::size_t probe_largest = 0;

void* probe_alloc(std::size_t size) {
  if (probe_armed && size > probe_largest) probe_largest = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so GCC's -Wmismatched-new-delete does not see a `free` of
// an operator-new pointer once a delete is inlined into its caller.
[[gnu::noinline]] void probe_free(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) { return probe_alloc(size); }
void* operator new[](std::size_t size) { return probe_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (probe_armed && size > probe_largest) probe_largest = size;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (probe_armed && size > probe_largest) probe_largest = size;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { probe_free(p); }
void operator delete[](void* p) noexcept { probe_free(p); }
void operator delete(void* p, std::size_t) noexcept { probe_free(p); }
void operator delete[](void* p, std::size_t) noexcept { probe_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { probe_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { probe_free(p); }

namespace hyperear::runtime {
namespace {

sim::ScenarioConfig small_scenario(bool two_statures = false) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  c.two_statures = two_statures;
  return c;
}

/// A rendered session split into streaming form: `meta` (audio channels
/// emptied, everything else intact) plus the samples to push.
struct SplitSession {
  sim::Session meta;
  std::vector<double> mic1;
  std::vector<double> mic2;
};

SplitSession split(sim::Session session) {
  SplitSession s;
  s.mic1 = std::move(session.audio.mic1);
  s.mic2 = std::move(session.audio.mic2);
  session.audio.mic1.clear();
  session.audio.mic2.clear();
  s.meta = std::move(session);
  return s;
}

sim::Session make_session(std::uint64_t seed, bool two_statures = false) {
  Rng rng(seed);
  return sim::make_localization_session(small_scenario(two_statures), rng);
}

/// Push the split audio through a fresh StreamingSession in slices of the
/// given sizes (cycled) and finalize.
Expected<core::LocalizationResult, core::PipelineError> run_streamed(
    const SplitSession& s, const std::vector<std::size_t>& slice_sizes,
    std::vector<core::StreamEvent>* events = nullptr,
    std::size_t* peak_retained = nullptr, core::StageMetrics* metrics = nullptr) {
  core::StreamingSession session(s.meta);
  std::size_t pos = 0;
  std::size_t cursor = 0;
  while (pos < s.mic1.size()) {
    const std::size_t want = slice_sizes[cursor++ % slice_sizes.size()];
    const std::size_t len = std::min(want, s.mic1.size() - pos);
    session.push(std::span<const double>(s.mic1).subspan(pos, len),
                 std::span<const double>(s.mic2).subspan(pos, len));
    pos += len;
  }
  auto r = session.finalize(metrics);
  if (events != nullptr) *events = session.events();
  if (peak_retained != nullptr) *peak_retained = session.peak_retained_samples();
  return r;
}

/// Bit-exact equality of the deterministic result fields.
void expect_identical(const core::LocalizationResult& a,
                      const core::LocalizationResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.slides_used, b.slides_used);
  EXPECT_EQ(a.estimated_position.x, b.estimated_position.x);
  EXPECT_EQ(a.estimated_position.y, b.estimated_position.y);
  EXPECT_EQ(a.range, b.range);
  EXPECT_EQ(a.estimated_period, b.estimated_period);
  EXPECT_EQ(a.sfo_ppm, b.sfo_ppm);
}

/// The chunking menu every property test sweeps: whole-recording, a prime
/// stride, an uneven mix crossing detector-chunk boundaries, and (for the
/// sessions short enough to afford it) near-degenerate small slices.
std::vector<std::vector<std::size_t>> chunkings(std::size_t n) {
  return {{n}, {100003}, {1009}, {44100, 1, 977, 65536, 3}};
}

TEST(StreamingSession, FixBitIdenticalToBatchForEveryChunking2D) {
  const sim::Session batch = make_session(800);
  core::StageMetrics batch_metrics;
  const auto expect = core::try_localize(batch, {}, &batch_metrics);
  ASSERT_TRUE(expect.has_value());
  ASSERT_TRUE(expect->valid);
  const SplitSession s = split(batch);

  std::vector<core::StreamEvent> base_events;
  for (const auto& slices : chunkings(s.mic1.size())) {
    std::vector<core::StreamEvent> events;
    core::StageMetrics metrics;
    const auto got = run_streamed(s, slices, &events, nullptr, &metrics);
    ASSERT_TRUE(got.has_value());
    expect_identical(*got, *expect);
    EXPECT_EQ(metrics.chirps_mic1, batch_metrics.chirps_mic1);
    EXPECT_EQ(metrics.chirps_mic2, batch_metrics.chirps_mic2);
    EXPECT_EQ(metrics.sfo_estimated, batch_metrics.sfo_estimated);
    EXPECT_EQ(metrics.slides_accepted, batch_metrics.slides_accepted);
    // Event invariance: every chunking must tell the user the same story.
    if (base_events.empty()) {
      base_events = events;
      EXPECT_FALSE(base_events.empty());
    } else {
      EXPECT_EQ(events, base_events);
    }
  }
  // The story must contain the incremental cues the subsystem exists for.
  std::size_t beacons = 0, crossings = 0, phases = 0, fixes = 0;
  for (const core::StreamEvent& e : base_events) {
    switch (e.kind) {
      case core::StreamEvent::Kind::beacon_acquired: ++beacons; break;
      case core::StreamEvent::Kind::sdf_zero_cross: ++crossings; break;
      case core::StreamEvent::Kind::phase_change: ++phases; break;
      case core::StreamEvent::Kind::fix: ++fixes; break;
    }
  }
  EXPECT_EQ(beacons, 2u);  // one per microphone
  EXPECT_GE(phases, 3u);   // sliding_1, solving, done
  EXPECT_EQ(fixes, 1u);
  EXPECT_GT(crossings, 0u);
}

TEST(StreamingSession, FixBitIdenticalToBatchForEveryChunking3D) {
  const sim::Session batch = make_session(810, /*two_statures=*/true);
  const auto expect = core::try_localize(batch, {});
  ASSERT_TRUE(expect.has_value());
  const SplitSession s = split(batch);

  std::vector<core::StreamEvent> base_events;
  for (const auto& slices : chunkings(s.mic1.size())) {
    std::vector<core::StreamEvent> events;
    const auto got = run_streamed(s, slices, &events);
    ASSERT_TRUE(got.has_value());
    expect_identical(*got, *expect);
    if (base_events.empty()) {
      base_events = events;
    } else {
      EXPECT_EQ(events, base_events);
    }
  }
  // The 3D protocol passes through both sliding phases.
  bool saw_slide2 = false;
  for (const core::StreamEvent& e : base_events) {
    if (e.kind == core::StreamEvent::Kind::phase_change &&
        e.phase == core::StreamPhase::sliding_2) {
      saw_slide2 = true;
    }
  }
  EXPECT_TRUE(saw_slide2);
}

TEST(StreamingSession, SingleSamplePushesMatchBatch) {
  // The degenerate chunking on a deliberately short session (trimmed to the
  // calibration head plus a little) — every boundary decision in the
  // detector and SDF cursors is exercised at every sample.
  sim::Session batch = make_session(820);
  const std::size_t keep = static_cast<std::size_t>(4.5 * batch.audio.sample_rate);
  ASSERT_LT(keep, batch.audio.mic1.size());
  batch.audio.mic1.resize(keep);
  batch.audio.mic2.resize(keep);
  const std::size_t imu_keep = static_cast<std::size_t>(4.5 * batch.imu.sample_rate);
  for (auto* v : {&batch.imu.accel_x, &batch.imu.accel_y, &batch.imu.accel_z,
                  &batch.imu.gyro_x, &batch.imu.gyro_y, &batch.imu.gyro_z}) {
    if (v->size() > imu_keep) v->resize(imu_keep);
  }
  const auto expect = core::try_localize(batch, {});
  const SplitSession s = split(batch);
  std::vector<core::StreamEvent> whole_events, single_events;
  const auto whole = run_streamed(s, {keep}, &whole_events);
  const auto single = run_streamed(s, {1}, &single_events);
  ASSERT_EQ(whole.has_value(), expect.has_value());
  ASSERT_EQ(single.has_value(), expect.has_value());
  if (expect.has_value()) {
    expect_identical(*whole, *expect);
    expect_identical(*single, *expect);
  } else {
    EXPECT_EQ(whole.error().stage, expect.error().stage);
    EXPECT_EQ(single.error().message, whole.error().message);
  }
  EXPECT_EQ(single_events, whole_events);
}

/// The duration-independent retention bound of a default-config session,
/// in samples across both channels: per channel one streaming chunk of the
/// session's detector plus `slice` in-flight samples (the push size, or
/// the session's 4096-sample ingest slice for larger pushes).
std::size_t retention_bound(const sim::Session& meta, std::size_t slice) {
  const core::PipelineContext context(core::PipelineConfig{}, meta.prior.chirp,
                                      meta.audio.sample_rate);
  const dsp::MatchedFilterDetector& det = context.detector();
  return 2 * (det.chunk_samples(det.streaming_pairs()) + slice);
}

TEST(StreamingSession, PeakRetainedMemoryStaysBounded) {
  // A longer protocol run (five slides per stature) so the recording
  // comfortably exceeds the streaming window.
  sim::ScenarioConfig c = small_scenario();
  c.slides_per_stature = 5;
  Rng rng(830);
  const SplitSession s = split(sim::make_localization_session(c, rng));
  const std::size_t total = s.mic1.size();
  std::size_t peak = 0;
  const auto got = run_streamed(s, {2048}, nullptr, &peak);
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(peak, 0u);
  // The retention contract is a duration-independent constant: per channel
  // one streaming chunk (the matched filter processes a chunk only once it
  // is certainly full) and the in-flight slice.
  const std::size_t bound = retention_bound(s.meta, 2048);
  EXPECT_LE(bound * sizeof(double), std::size_t{700} * 1024);
  EXPECT_LT(peak, bound) << "total " << total;
  // And that constant really is "bounded": well below full retention of
  // this recording (2 * total across the two channels).
  EXPECT_LT(bound, total) << "recording too short to demonstrate bounding";
}

TEST(StreamingSession, WholeRecordingPushStaysInsideTheRetentionBound) {
  // The recording of PeakRetainedMemoryStaysBounded arriving in ONE push
  // (a phone uploading after the fact, a drained Engine inbox)
  // must respect the same duration-independent bound as a live cadence.
  sim::ScenarioConfig c = small_scenario();
  c.slides_per_stature = 5;
  Rng rng(830);
  sim::Session batch = sim::make_localization_session(c, rng);
  const auto expect = core::try_localize(batch, {});
  ASSERT_TRUE(expect.has_value());
  const SplitSession s = split(std::move(batch));
  const std::size_t total = s.mic1.size();
  std::size_t peak = 0;
  probe_largest = 0;
  probe_armed = true;
  const auto got = run_streamed(s, {total}, nullptr, &peak);
  probe_armed = false;
  ASSERT_TRUE(got.has_value());
  expect_identical(*got, *expect);
  const std::size_t bound = retention_bound(s.meta, 4096);
  EXPECT_LE(bound * sizeof(double), std::size_t{700} * 1024);
  EXPECT_LT(peak, bound) << "total " << total;
  // The bound is per session; no single buffer — a channel's ring, the
  // thread's chunk scratch — may take more than one channel's share. A
  // ring is reserved at exactly that share.
  EXPECT_LE(probe_largest, bound / 2 * sizeof(double)) << "total " << total;
  EXPECT_LT(bound, total) << "recording too short to demonstrate bounding";
}

TEST(StreamingSession, LeasedWorkspaceHoldsNoChunkScratch) {
  // Chunk passes run on the pushing thread's scratch, so a workspace leased
  // to a stream (or a batch run) never grows the detector's per-chunk
  // buffers: an open session costs its staging, not a chunk's working set.
  sim::Session batch = make_session(870);
  core::SessionWorkspace workspace;
  const auto expect_empty_chunk_buffers = [&] {
    for (std::size_t slot = 0; slot < core::SessionWorkspace::kChannels; ++slot) {
      const dsp::DetectorWorkspace& d = workspace.channel(slot).detector;
      EXPECT_EQ(d.raw.capacity(), 0u) << "slot " << slot;
      EXPECT_EQ(d.local_max.capacity(), 0u) << "slot " << slot;
      EXPECT_EQ(d.prefix.capacity(), 0u) << "slot " << slot;
      EXPECT_FALSE(d.candidates.empty()) << "slot " << slot;  // it did stitch
    }
  };
  const core::PipelineContext context(core::PipelineConfig{}, batch.prior.chirp,
                                      batch.audio.sample_rate);
  ASSERT_TRUE(core::try_localize(batch, {}, context, workspace).has_value());
  expect_empty_chunk_buffers();

  const SplitSession s = split(std::move(batch));
  core::StreamingSession session(s.meta, {}, nullptr, &workspace);
  for (std::size_t pos = 0; pos < s.mic1.size(); pos += 4410) {
    const std::size_t len = std::min<std::size_t>(4410, s.mic1.size() - pos);
    session.push(std::span<const double>(s.mic1).subspan(pos, len),
                 std::span<const double>(s.mic2).subspan(pos, len));
  }
  ASSERT_TRUE(session.finalize().has_value());
  expect_empty_chunk_buffers();
}

TEST(StreamingSession, StreamOnlyThreadKeepsOneStreamingChunkOfScratch) {
  // Chunk scratch belongs to the thread. A thread that only ever streams
  // runs nothing but streaming chunks, so its scratch stays at one
  // streaming chunk's working set — never a batch chunk's.
  const SplitSession s = split(make_session(840));
  const core::PipelineContext context(core::PipelineConfig{}, s.meta.prior.chirp,
                                      s.meta.audio.sample_rate);
  const dsp::MatchedFilterDetector& det = context.detector();
  const std::size_t chunk_lags = det.streaming_pairs() * det.pair_lags();
  ASSERT_LT(chunk_lags, det.batch_pairs() * det.pair_lags());
  std::thread streamer([&] {
    ASSERT_TRUE(run_streamed(s, {4410}).has_value());
    const core::ThreadScratchLease lease;
    const core::ChunkScratch& scratch = lease.scratch();
    EXPECT_GT(scratch.detector.raw.capacity(), 0u);  // it did detect here
    EXPECT_LE(scratch.detector.raw.capacity(), chunk_lags);
    EXPECT_LE(scratch.detector.local_max.capacity(), chunk_lags);
    // The normalizer's energies plus one pair's prefix sums.
    EXPECT_LE(scratch.detector.prefix.capacity(),
              chunk_lags + det.pair_lags() + det.reference().size());
  });
  streamer.join();
}

TEST(StreamingSession, ErrorTaxonomyMatchesBatch) {
  // Empty stream == empty recording: same category, stage, and message.
  const auto batch_err = core::try_localize(sim::Session{}, {});
  ASSERT_FALSE(batch_err.has_value());
  core::StreamingSession empty{sim::Session{}};
  const auto stream_err = empty.finalize();
  ASSERT_FALSE(stream_err.has_value());
  EXPECT_EQ(stream_err.error().category, batch_err.error().category);
  EXPECT_EQ(stream_err.error().stage, batch_err.error().stage);
  EXPECT_EQ(stream_err.error().message, batch_err.error().message);

  // Invalid config fails validation before touching the audio, same error.
  core::PipelineConfig bad;
  bad.ttl.max_range = -1.0;
  const SplitSession s = split(make_session(840));
  const auto batch_bad = core::try_localize(s.meta, bad);  // audio empty: fine
  core::StreamingSession session(s.meta, bad);
  session.push(std::span<const double>(s.mic1).subspan(0, 1000),
               std::span<const double>(s.mic2).subspan(0, 1000));
  const auto stream_bad = session.finalize();
  ASSERT_FALSE(stream_bad.has_value());
  ASSERT_FALSE(batch_bad.has_value());
  EXPECT_EQ(stream_bad.error().stage, core::PipelineStage::config);
  EXPECT_EQ(stream_bad.error().message, batch_bad.error().message);
}

TEST(StreamingSession, LifecyclePreconditions) {
  const SplitSession s = split(make_session(850));
  core::StreamingSession session(s.meta);
  EXPECT_THROW(session.push(std::span<const double>(s.mic1).subspan(0, 3),
                            std::span<const double>(s.mic2).subspan(0, 2)),
               PreconditionError);
  (void)session.finalize();
  EXPECT_TRUE(session.finalized());
  EXPECT_THROW(session.push(s.mic1, s.mic2), PreconditionError);
  EXPECT_THROW((void)session.finalize(), PreconditionError);

  // Meta arriving with audio attached is a caller bug, caught at once.
  EXPECT_THROW(core::StreamingSession{make_session(851)}, PreconditionError);
}

TEST(Engine, MultiplexedSessionsMatchBatchBitExactly) {
  // Four live sessions interleaved chunk by chunk over four workers: every
  // report must equal the whole-recording run of the same recordings.
  std::vector<sim::Session> sessions;
  for (std::uint64_t i = 0; i < 4; ++i) sessions.push_back(make_session(860 + i));
  Engine batch({}, 2);
  const std::vector<SessionReport> expect = batch.localize_all(sessions);

  std::vector<SplitSession> splits;
  for (sim::Session& s : sessions) splits.push_back(split(std::move(s)));

  Engine engine({}, 4);
  std::vector<std::uint64_t> ids;
  for (SplitSession& s : splits) {
    const std::uint64_t id = engine.open(s.meta);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  EXPECT_EQ(engine.open_sessions(), splits.size());

  const std::size_t slice = 22050;
  for (std::size_t pos = 0; true;) {
    bool any = false;
    for (std::size_t i = 0; i < splits.size(); ++i) {
      const SplitSession& s = splits[i];
      if (pos >= s.mic1.size()) continue;
      any = true;
      const std::size_t len = std::min(slice, s.mic1.size() - pos);
      PushStatus status =
          engine.push(ids[i], std::span<const double>(s.mic1).subspan(pos, len),
                      std::span<const double>(s.mic2).subspan(pos, len));
      while (status == PushStatus::overflow) {  // backpressure: retry
        status = engine.push(ids[i],
                             std::span<const double>(s.mic1).subspan(pos, len),
                             std::span<const double>(s.mic2).subspan(pos, len));
      }
      ASSERT_EQ(status, PushStatus::accepted);
    }
    if (!any) break;
    pos += slice;
  }
  std::vector<std::future<SessionReport>> futures;
  for (const std::uint64_t id : ids) futures.push_back(engine.finalize(id));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SessionReport got = futures[i].get();
    EXPECT_EQ(got.status, expect[i].status) << "session " << i;
    expect_identical(got.result, expect[i].result);
    EXPECT_EQ(got.metrics.chirps_mic1, expect[i].metrics.chirps_mic1);
    EXPECT_EQ(got.metrics.chirps_mic2, expect[i].metrics.chirps_mic2);
  }
  EXPECT_EQ(engine.open_sessions(), 0u);
}

TEST(Engine, BackpressureSessionLimitsAndLifecycle) {
  LiveLimits limits;
  limits.max_sessions = 1;
  limits.max_buffered_samples = 64;
  Engine engine({}, 1, {}, limits);
  SplitSession s = split(make_session(870));

  const std::uint64_t id = engine.open(s.meta);
  ASSERT_NE(id, 0u);
  // Session limit: the second open is refused by value, not by throw.
  EXPECT_EQ(engine.open(s.meta), 0u);

  // A slice larger than the buffer cap can never be accepted.
  EXPECT_EQ(engine.push(id, std::span<const double>(s.mic1).subspan(0, 64),
                        std::span<const double>(s.mic2).subspan(0, 64)),
            PushStatus::overflow);
  // Unknown ids are a value too.
  EXPECT_EQ(engine.push(9999, std::span<const double>(s.mic1).subspan(0, 8),
                        std::span<const double>(s.mic2).subspan(0, 8)),
            PushStatus::unknown_session);
  EXPECT_THROW((void)engine.finalize(9999), PreconditionError);

  std::future<SessionReport> report = engine.finalize(id);
  // After finalize the session no longer accepts audio.
  PushStatus late = engine.push(id, std::span<const double>(s.mic1).subspan(0, 8),
                                std::span<const double>(s.mic2).subspan(0, 8));
  EXPECT_TRUE(late == PushStatus::closed || late == PushStatus::unknown_session);
  EXPECT_THROW((void)engine.finalize(id), PreconditionError);
  // Nothing was pushed: the report is the empty-recording error, exactly
  // the batch taxonomy.
  const SessionReport r = report.get();
  EXPECT_EQ(r.status, SessionStatus::error);
  EXPECT_EQ(r.error.category, core::ErrorCategory::precondition);
  EXPECT_EQ(r.error.stage, core::PipelineStage::asp);
}

TEST(Engine, LogicalClockEviction) {
  Engine engine({}, 1);
  SplitSession s = split(make_session(880));
  const std::uint64_t kept = engine.open(s.meta);
  const std::uint64_t idle = engine.open(s.meta);
  ASSERT_NE(kept, 0u);
  ASSERT_NE(idle, 0u);

  engine.tick();
  engine.tick();
  // Activity stamps the clock: `kept` is touched after the ticks, `idle`
  // is not.
  ASSERT_EQ(engine.push(kept, std::span<const double>(s.mic1).subspan(0, 256),
                        std::span<const double>(s.mic2).subspan(0, 256)),
            PushStatus::accepted);
  EXPECT_EQ(engine.evict_idle(1), 1u);
  EXPECT_EQ(engine.open_sessions(), 1u);
  // The evicted id is gone for good.
  EXPECT_EQ(engine.push(idle, std::span<const double>(s.mic1).subspan(0, 8),
                        std::span<const double>(s.mic2).subspan(0, 8)),
            PushStatus::unknown_session);
  EXPECT_THROW((void)engine.finalize(idle), PreconditionError);
  // The survivor still finalizes, and its report matches what the batch
  // pipeline says about the identical 256-sample recording (the renderer
  // is seed-deterministic, so re-rendering and truncating reproduces
  // exactly the samples pushed above).
  sim::Session ref = make_session(880);
  ref.audio.mic1.resize(256);
  ref.audio.mic2.resize(256);
  const auto expect = core::try_localize(ref, {});
  const SessionReport r = engine.finalize(kept).get();
  if (expect.has_value()) {
    EXPECT_EQ(r.status, expect->valid ? SessionStatus::ok
                                      : SessionStatus::no_solution);
  } else {
    EXPECT_EQ(r.status, SessionStatus::error);
    EXPECT_EQ(r.error.stage, expect.error().stage);
    EXPECT_EQ(r.error.message, expect.error().message);
  }
  EXPECT_EQ(engine.open_sessions(), 0u);
}

TEST(Engine, ShutdownStopsIntake) {
  Engine engine({}, 1);
  SplitSession s = split(make_session(890));
  const std::uint64_t id = engine.open(s.meta);
  ASSERT_NE(id, 0u);
  engine.shutdown();
  engine.shutdown();  // idempotent
  EXPECT_THROW((void)engine.open(s.meta), PreconditionError);
  EXPECT_EQ(engine.push(id, std::span<const double>(s.mic1).subspan(0, 8),
                        std::span<const double>(s.mic2).subspan(0, 8)),
            PushStatus::closed);
}

}  // namespace
}  // namespace hyperear::runtime
