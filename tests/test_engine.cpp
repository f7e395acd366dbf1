/// Concurrency tests of the localization engine (ctest label "engine";
/// run them under ThreadSanitizer via the `tsan` preset): results must be
/// bit-identical regardless of the worker count or the intake a session
/// came through, and one corrupt session must not poison the rest of its
/// batch.

#include "runtime/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/session_workspace.hpp"
#include "core/streaming_session.hpp"
#include "runtime/context_cache.hpp"
#include "runtime/fan_out.hpp"
#include "runtime/workspace_pool.hpp"
#include "sim/scenario.hpp"

namespace hyperear::runtime {
namespace {

sim::ScenarioConfig small_scenario() {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  return c;
}

std::vector<sim::Session> make_batch(std::size_t count, std::uint64_t seed0) {
  std::vector<sim::Session> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(seed0 + i);
    sessions.push_back(sim::make_localization_session(small_scenario(), rng));
  }
  return sessions;
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

TEST(Engine, DeterministicAcrossThreadCounts) {
  const std::vector<sim::Session> sessions = make_batch(3, 700);
  Engine serial({}, 1);
  Engine wide({}, 4);
  const std::vector<SessionReport> base = serial.localize_all(sessions);
  const std::vector<SessionReport> out = wide.localize_all(sessions);
  ASSERT_EQ(base.size(), sessions.size());
  ASSERT_EQ(out.size(), sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(base[i].status, out[i].status) << "session " << i;
    expect_identical(base[i].result, out[i].result);
  }
}

// --- the ASP fan-out is byte-identical for every executor ------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical_events(const std::vector<core::ChirpEvent>& a,
                             const std::vector<core::ChirpEvent>& b, const char* mic) {
  ASSERT_EQ(a.size(), b.size()) << mic;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].time_s), bits(b[i].time_s)) << mic << " #" << i;
    EXPECT_EQ(bits(a[i].score), bits(b[i].score)) << mic << " #" << i;
    EXPECT_EQ(bits(a[i].amplitude), bits(b[i].amplitude)) << mic << " #" << i;
    EXPECT_EQ(bits(a[i].echo_competition), bits(b[i].echo_competition))
        << mic << " #" << i;
  }
}

void expect_identical_asp(const core::AspResult& a, const core::AspResult& b) {
  expect_identical_events(a.mic1, b.mic1, "mic1");
  expect_identical_events(a.mic2, b.mic2, "mic2");
  EXPECT_EQ(bits(a.estimated_period), bits(b.estimated_period));
  EXPECT_EQ(bits(a.sfo_ppm), bits(b.sfo_ppm));
  EXPECT_EQ(a.sfo_estimated, b.sfo_estimated);
}

/// Runs the chunk tasks on the calling thread in a fixed permutation of
/// their indices — reversed, or a seeded shuffle — cycling through several
/// scratch lanes, so each lane sees a different, stale history.
class PermutedExecutor final : public core::ChunkExecutor {
 public:
  PermutedExecutor(bool reverse, std::uint64_t seed, std::size_t lanes)
      : reverse_(reverse), seed_(seed), lanes_(lanes) {}

  std::size_t run(std::size_t count, const Task& task) const override {
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (reverse_) {
      std::reverse(order.begin(), order.end());
    } else {
      std::mt19937_64 rng(seed_);
      std::shuffle(order.begin(), order.end(), rng);
    }
    for (std::size_t k = 0; k < count; ++k) task(order[k], lanes_[k % lanes_.size()]);
    return 0;
  }

 private:
  bool reverse_;
  std::uint64_t seed_;
  mutable std::vector<core::ChunkScratch> lanes_;
};

TEST(Engine, AspFanOutIsByteIdenticalForEveryExecutor) {
  const std::vector<sim::Session> sessions = make_batch(3, 700);
  const core::PipelineConfig config;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    const sim::Session& session = sessions[s];
    const core::PipelineContext context(config, session.prior.chirp,
                                        session.audio.sample_rate);
    core::SessionWorkspace workspace;
    const auto asp_with = [&](const core::ChunkExecutor* executor) {
      return core::preprocess_audio(session.audio, session.prior.nominal_period,
                                    session.prior.calibration_duration, context,
                                    workspace, nullptr, executor);
    };
    const auto fix_with = [&](const core::ChunkExecutor* executor) {
      auto r = core::try_localize(session, config, context, workspace, nullptr, nullptr,
                                  executor);
      EXPECT_TRUE(r.has_value());
      return r.has_value() ? *r : core::LocalizationResult{};
    };
    const core::AspResult serial_asp = asp_with(nullptr);
    const core::LocalizationResult serial_fix = fix_with(nullptr);
    ASSERT_GE(serial_asp.mic1.size(), 10u);
    expect_identical(serial_fix, core::localize(session, config));

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE("pool of " + std::to_string(threads));
      ThreadPool pool(threads);
      const PoolChunkExecutor executor(pool);
      expect_identical_asp(asp_with(&executor), serial_asp);
      expect_identical(fix_with(&executor), serial_fix);
    }
    const PermutedExecutor reversed(true, 0, 3);
    expect_identical_asp(asp_with(&reversed), serial_asp);
    expect_identical(fix_with(&reversed), serial_fix);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const PermutedExecutor shuffled(false, seed, 2 + seed);
      expect_identical_asp(asp_with(&shuffled), serial_asp);
      expect_identical(fix_with(&shuffled), serial_fix);
    }
  }
}

TEST(Engine, SingleSessionsMatchTheSerialPipelineAtEveryWidth) {
  // One session at a time on an otherwise idle engine: every other worker
  // is free to help with its ASP chunk tasks, and the fix must not move.
  const std::vector<sim::Session> sessions = make_batch(3, 700);
  std::vector<core::LocalizationResult> serial;
  for (const sim::Session& s : sessions) serial.push_back(core::localize(s));
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    Engine engine({}, threads);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const SessionReport report = engine.submit(sessions[i]).get();
      EXPECT_EQ(report.status, SessionStatus::ok) << threads << " threads, session " << i;
      expect_identical(report.result, serial[i]);
    }
    obs::MetricsRegistry& m = engine.metrics();
    const double tasks = m.counter("asp.chunk_tasks_total").value();
    const double helped = m.counter("asp.chunk_tasks_helped_total").value();
    EXPECT_GT(tasks, 0.0);
    EXPECT_LE(helped, tasks);
    if (threads == 1) {
      EXPECT_EQ(helped, 0.0);
    }
  }
}

TEST(Engine, LiveStreamsAndFanOutsShareEachWorkersThreadScratch) {
  // Live streams pushed from the workers of one pool while the same pool
  // fans out batch sessions' ASP: a worker runs chunk passes for both, one
  // after the other, on its one thread scratch. Under tsan this is the
  // race check of that sharing; everywhere, every fix must stay bit-equal
  // to the serial pipeline.
  const std::vector<sim::Session> sessions = make_batch(4, 760);
  const core::PipelineConfig config;
  std::vector<core::LocalizationResult> expect;
  for (const sim::Session& s : sessions) {
    auto r = core::try_localize(s, config);
    ASSERT_TRUE(r.has_value());
    expect.push_back(*r);
  }

  using Outcome = Expected<core::LocalizationResult, core::PipelineError>;
  struct Job {
    const sim::Session* source = nullptr;
    std::unique_ptr<core::StreamingSession> stream;  // null: batch
    std::size_t pushed = 0;
    std::promise<Outcome> done;
  };
  std::vector<Job> jobs(sessions.size());
  std::vector<core::SessionWorkspace> workspaces(sessions.size());
  std::function<void(Job&)> step;
  // Declared last: the workers are joined before anything they touch dies.
  ThreadPool pool(3);
  const PoolChunkExecutor executor(pool);
  // One push per posted task, re-posted until the audio runs out: each
  // stream stays single-owner while it hops between workers.
  step = [&](Job& job) {
    try {
      const sim::StereoRecording& audio = job.source->audio;
      const std::size_t n = std::min<std::size_t>(4410, audio.mic1.size() - job.pushed);
      job.stream->push(std::span<const double>(audio.mic1).subspan(job.pushed, n),
                       std::span<const double>(audio.mic2).subspan(job.pushed, n));
      job.pushed += n;
      if (job.pushed < audio.mic1.size()) {
        pool.post([&step, &job] { step(job); });
      } else {
        job.done.set_value(job.stream->finalize());
      }
    } catch (...) {
      job.done.set_exception(std::current_exception());
    }
  };
  std::vector<std::future<Outcome>> outcomes;
  for (Job& job : jobs) outcomes.push_back(job.done.get_future());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    Job& job = jobs[i];
    job.source = &sessions[i];
    if (i % 2 == 1) {
      sim::Session meta = sessions[i];
      meta.audio.mic1.clear();
      meta.audio.mic2.clear();
      job.stream = std::make_unique<core::StreamingSession>(std::move(meta), config,
                                                            nullptr, &workspaces[i]);
      pool.post([&step, &job] { step(job); });
    } else {
      pool.post([&, i] {
        try {
          const sim::Session& s = sessions[i];
          const core::PipelineContext context(config, s.prior.chirp,
                                              s.audio.sample_rate);
          jobs[i].done.set_value(core::try_localize(s, config, context, workspaces[i],
                                                    nullptr, nullptr, &executor));
        } catch (...) {
          jobs[i].done.set_exception(std::current_exception());
        }
      });
    }
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(std::string(i % 2 == 1 ? "streamed" : "fanned-out") + " session " +
                 std::to_string(i));
    const Outcome got = outcomes[i].get();
    ASSERT_TRUE(got.has_value());
    expect_identical(*got, expect[i]);
  }
}

TEST(Engine, LiveAndWholeRecordingSessionsShareOneEngine) {
  // Whole recordings and live streams of the same recordings, in flight at
  // once on one 2-thread engine: one pool, one plan cache, one set of
  // counters, and every live report bit-equal to its batch twin.
  const std::vector<sim::Session> sessions = make_batch(3, 780);
  Engine engine({}, 2);
  std::vector<std::future<SessionReport>> batch;
  for (const sim::Session& s : sessions) batch.push_back(engine.submit(s));

  std::vector<std::uint64_t> ids;
  for (const sim::Session& s : sessions) {
    sim::Session meta = s;
    meta.audio.mic1.clear();
    meta.audio.mic2.clear();
    ids.push_back(engine.open(std::move(meta)));
    ASSERT_NE(ids.back(), 0u);
  }
  // Odd-sized slices, interleaved across the streams.
  const std::size_t slice = 7919;
  for (std::size_t pos = 0, live = sessions.size(); live > 0; pos += slice) {
    live = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const sim::StereoRecording& audio = sessions[i].audio;
      if (pos >= audio.mic1.size()) continue;
      ++live;
      const std::size_t n = std::min(slice, audio.mic1.size() - pos);
      const auto mic1 = std::span<const double>(audio.mic1).subspan(pos, n);
      const auto mic2 = std::span<const double>(audio.mic2).subspan(pos, n);
      PushStatus status = engine.push(ids[i], mic1, mic2);
      while (status == PushStatus::overflow) status = engine.push(ids[i], mic1, mic2);
      ASSERT_EQ(status, PushStatus::accepted);
    }
  }
  // A live session that never receives audio: the empty-recording error.
  sim::Session empty_meta = sessions[0];
  empty_meta.audio.mic1.clear();
  empty_meta.audio.mic2.clear();
  const std::uint64_t empty_id = engine.open(std::move(empty_meta));
  ASSERT_NE(empty_id, 0u);

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const SessionReport whole = batch[i].get();
    const SessionReport live = engine.finalize(ids[i]).get();
    ASSERT_EQ(whole.status, SessionStatus::ok);
    EXPECT_EQ(live.status, whole.status);
    expect_identical(live.result, whole.result);
    EXPECT_EQ(live.metrics.chirps_mic1, whole.metrics.chirps_mic1);
    EXPECT_EQ(live.metrics.chirps_mic2, whole.metrics.chirps_mic2);
  }
  const SessionReport empty = engine.finalize(empty_id).get();
  EXPECT_EQ(empty.status, SessionStatus::error);
  EXPECT_EQ(empty.error.category, core::ErrorCategory::precondition);
  EXPECT_EQ(empty.error.stage, core::PipelineStage::asp);
  EXPECT_EQ(engine.open_sessions(), 0u);

  // One pool: its series live under engine.pool.*, none under streaming.pool.*.
  const obs::MetricsSnapshot snap = engine.metrics().snapshot();
  const auto streaming_pool = [](const std::string& name) {
    return name.rfind("streaming.pool.", 0) == 0;
  };
  for (const auto& [name, value] : snap.counters) EXPECT_FALSE(streaming_pool(name)) << name;
  for (const auto& [name, value] : snap.gauges) EXPECT_FALSE(streaming_pool(name)) << name;
  for (const auto& h : snap.histograms) EXPECT_FALSE(streaming_pool(h.name)) << h.name;
  EXPECT_GT(engine.metrics().counter("engine.pool.tasks_run_total").value(), 0.0);

  // Every finished session, whichever intake, is counted once.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.completed, 7u);
  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.errors_by_category[static_cast<std::size_t>(
                core::ErrorCategory::precondition)],
            1u);
}

TEST(Engine, CorruptSessionDoesNotPoisonTheBatch) {
  std::vector<sim::Session> sessions = make_batch(2, 710);
  sessions.insert(sessions.begin() + 1, sim::Session{});  // empty audio
  Engine engine({}, 4);
  const std::vector<SessionReport> reports = engine.localize_all(sessions);
  ASSERT_EQ(reports.size(), 3u);

  EXPECT_EQ(reports[1].status, SessionStatus::error);
  EXPECT_EQ(reports[1].error.category, core::ErrorCategory::precondition);
  EXPECT_EQ(reports[1].error.stage, core::PipelineStage::asp);

  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(reports[i].status, SessionStatus::ok) << "session " << i;
    EXPECT_TRUE(reports[i].result.valid);
  }

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.errors_by_category[static_cast<std::size_t>(
                core::ErrorCategory::precondition)],
            1u);
}

TEST(Engine, StationarySessionReportsNoSolution) {
  std::vector<sim::Session> sessions = make_batch(1, 720);
  // The user never slides: keep gravity, erase the motion.
  for (auto* ch : {&sessions[0].imu.accel_x, &sessions[0].imu.accel_y}) {
    std::fill(ch->begin(), ch->end(), 0.0);
  }
  std::fill(sessions[0].imu.accel_z.begin(), sessions[0].imu.accel_z.end(), 9.80665);
  Engine engine({}, 2);
  const std::vector<SessionReport> reports = engine.localize_all(sessions);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, SessionStatus::no_solution);
  EXPECT_FALSE(reports[0].result.valid);
  EXPECT_EQ(engine.stats().no_solution, 1u);
}

TEST(Engine, SubmitFutureAndOwningOverload) {
  std::vector<sim::Session> sessions = make_batch(1, 730);
  Engine engine({}, 2);

  std::future<SessionReport> borrowed = engine.submit(sessions[0]);
  const SessionReport r1 = borrowed.get();
  EXPECT_EQ(r1.status, SessionStatus::ok);

  sim::Session moved = sessions[0];
  std::future<SessionReport> owned = engine.submit(std::move(moved));
  const SessionReport r2 = owned.get();
  EXPECT_EQ(r2.status, SessionStatus::ok);
  expect_identical(r1.result, r2.result);

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GT(stats.chirps_detected, 0u);
  EXPECT_GT(stats.asp_ms, 0.0);
}

TEST(Engine, SubmitCopiesSessionBeforeCallerScopeDies) {
  // Regression: submit(const&) once captured the caller's lvalue by
  // reference, so a session destroyed before a worker picked the task up
  // was read after free. Hold the only worker busy so the probe session is
  // guaranteed to still be queued when its source object dies.
  std::vector<sim::Session> sessions = make_batch(1, 740);
  Engine engine({}, 1);
  std::future<SessionReport> warm = engine.submit(sessions[0]);
  std::future<SessionReport> probe;
  {
    auto scoped = std::make_unique<sim::Session>(sessions[0]);
    probe = engine.submit(*scoped);
  }  // source freed while the probe task sits in the queue
  EXPECT_EQ(warm.get().status, SessionStatus::ok);
  const SessionReport r = probe.get();
  EXPECT_EQ(r.status, SessionStatus::ok);
  const SessionReport direct = Engine({}, 1).submit(sessions[0]).get();
  expect_identical(r.result, direct.result);
}

TEST(Engine, ShutdownRejectsSubmitWithoutStatsDrift) {
  std::vector<sim::Session> sessions = make_batch(1, 750);
  Engine engine({}, 2);
  EXPECT_EQ(engine.submit(sessions[0]).get().status, SessionStatus::ok);
  engine.shutdown();
  engine.shutdown();  // idempotent
  EXPECT_THROW((void)engine.submit(sessions[0]), PreconditionError);
  sim::Session moved = sessions[0];
  EXPECT_THROW((void)engine.submit(std::move(moved)), PreconditionError);
  // Regression: a throwing submit used to leave a phantom submission
  // behind, so `submitted` drifted ahead of `completed` forever.
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(Engine, DestructionWithUnconsumedFuturesCompletesQueuedWork) {
  std::vector<sim::Session> sessions = make_batch(1, 760);
  std::future<SessionReport> kept;
  {
    Engine engine({}, 1);
    kept = engine.submit(sessions[0]);
    std::future<SessionReport> dropped = engine.submit(sessions[0]);
    // `dropped` dies unconsumed; the engine destructor must still drain
    // the queue without deadlocking or abandoning `kept`'s shared state.
  }
  const SessionReport r = kept.get();  // resolves, not broken_promise
  EXPECT_EQ(r.status, SessionStatus::ok);
}

TEST(Engine, MatchesContextFreePipelineBitExactly) {
  // The shared PipelineContext must only remove redundant plan
  // construction — never change a single bit of the results.
  const std::vector<sim::Session> sessions = make_batch(2, 770);
  Engine engine({}, 2);
  const std::vector<SessionReport> reports = engine.localize_all(sessions);
  ASSERT_EQ(reports.size(), sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto direct = core::try_localize(sessions[i], engine.config());
    ASSERT_TRUE(direct.has_value()) << "session " << i;
    ASSERT_EQ(reports[i].status, SessionStatus::ok) << "session " << i;
    expect_identical(reports[i].result, *direct);
  }
}

TEST(Engine, StatsViewNeverUnderflowsUnderRacingRejects) {
  // Regression: stats() read submitted before rejected. A failing submit
  // increments submitted first and rejected second, so a reader sampling
  // between the two could see the rejected tick without its submitted tick
  // — right at startup the subtraction then wrapped through size_t to
  // ~1.8e19. Hammer racing submits/shutdowns against a stats() reader; an
  // underflow shows up as a view larger than the attempt count.
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kAttempts = 64;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Engine engine({}, 2);
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const EngineStats s = engine.stats();
        ASSERT_LE(s.submitted, kAttempts) << "stats view underflowed";
      }
    });
    std::thread closer([&engine] { engine.shutdown(); });
    std::vector<std::future<SessionReport>> futures;
    for (std::size_t i = 0; i < kAttempts; ++i) {
      try {
        futures.push_back(engine.submit(sim::Session{}));
      } catch (const PreconditionError&) {
        break;  // shutdown won the race
      }
    }
    done.store(true, std::memory_order_relaxed);
    reader.join();
    closer.join();
    for (std::future<SessionReport>& f : futures) (void)f.get();
    const EngineStats s = engine.stats();
    EXPECT_LE(s.submitted, kAttempts);
    EXPECT_EQ(s.submitted, s.completed);
  }
}

TEST(Engine, RejectsInvalidConfigAtConstruction) {
  core::PipelineConfig bad;
  bad.ttl.max_range = -1.0;
  EXPECT_THROW(Engine(bad, 1), PreconditionError);
}

TEST(Engine, DefaultsToAtLeastOneWorker) {
  Engine engine({}, 0);
  EXPECT_GE(engine.thread_count(), 1u);
}

TEST(WorkspacePool, ConcurrentLeasesNeverShareState) {
  // Exclusivity by construction: while a lease is alive its WorkerState
  // must be visible to no other thread. Every worker records the state
  // address it holds in a shared set — a duplicate insert means two leases
  // aliased one workspace (also a data race tsan would flag).
  WorkspacePool pool;
  std::mutex mutex;
  std::set<const WorkspacePool::WorkerState*> live;
  std::atomic<bool> overlap{false};
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        WorkspacePool::Lease lease = pool.checkout();
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (!live.insert(&*lease).second) overlap.store(true);
        }
        ++lease->sessions_served;  // mutate: tsan sees any aliasing
        lease->workspace.reset();
        {
          const std::lock_guard<std::mutex> lock(mutex);
          live.erase(&*lease);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(overlap.load());
  // The pool grows to peak concurrency and no further.
  EXPECT_GE(pool.created(), 1u);
  EXPECT_LE(pool.created(), static_cast<std::size_t>(kThreads));
}

TEST(ContextCache, SharesPlansPerConfigurationAndIsolatesMismatches) {
  ContextCache cache;
  const core::PipelineConfig config;
  const dsp::ChirpParams chirp;
  const auto a = cache.acquire(config, chirp, 44100.0);
  const auto b = cache.acquire(config, chirp, 44100.0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get()) << "same configuration must share one plan set";

  const auto other_fs = cache.acquire(config, chirp, 48000.0);
  ASSERT_NE(other_fs, nullptr);
  EXPECT_NE(a.get(), other_fs.get());
  EXPECT_EQ(cache.size(), 2u);

  // Pathological configuration: null, never cached, never thrown.
  const auto bad = cache.acquire(config, chirp, 0.0);
  EXPECT_EQ(bad, nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ContextCache, PlanKeyHashIsDeterministicAndFieldSensitive) {
  const core::AspOptions asp;
  const dsp::ChirpParams chirp;
  const std::uint64_t h = core::plan_key_hash(asp, chirp, 44100.0);
  EXPECT_EQ(h, core::plan_key_hash(asp, chirp, 44100.0));
  EXPECT_NE(h, core::plan_key_hash(asp, chirp, 48000.0));
  core::AspOptions other = asp;
  other.min_calibration_events += 1;
  EXPECT_NE(h, core::plan_key_hash(other, chirp, 44100.0));
  dsp::ChirpParams shifted = chirp;
  shifted.freq_high_hz += 100.0;
  EXPECT_NE(h, core::plan_key_hash(asp, shifted, 44100.0));
}

TEST(ThreadPool, RunsEveryPostedTask) {
  std::atomic<int> hits{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) pool.post([&hits] { ++hits; });
  }  // destructor drains the queue
  EXPECT_EQ(hits.load(), 50);
}

TEST(ThreadPool, StopRejectsNewTasksButDrainsQueued) {
  std::atomic<int> hits{0};
  {
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    pool.post([open] { open.wait(); });  // park the only worker
    for (int i = 0; i < 8; ++i) pool.post([&hits] { ++hits; });
    pool.stop();
    pool.stop();  // idempotent
    EXPECT_THROW(pool.post([&hits] { ++hits; }), PreconditionError);
    gate.set_value();
  }  // destructor joins after the queued-before-stop tasks all ran
  EXPECT_EQ(hits.load(), 8);
}

}  // namespace
}  // namespace hyperear::runtime
