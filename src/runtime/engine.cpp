#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "core/streaming_session.hpp"
#include "runtime/fan_out.hpp"

namespace hyperear::runtime {

namespace {

using Clock = std::chrono::steady_clock;

std::size_t default_threads(std::size_t requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Counter values are integral by construction (inc-by-1 or by a count),
/// so the double->size_t view is exact; round defensively anyway.
std::size_t as_count(double value) {
  return static_cast<std::size_t>(std::llround(value));
}

}  // namespace

const char* to_string(SessionStatus status) {
  switch (status) {
    case SessionStatus::ok: return "ok";
    case SessionStatus::no_solution: return "no_solution";
    case SessionStatus::error: return "error";
  }
  return "error";
}

BatchEngine::BatchEngine(core::PipelineConfig config, std::size_t threads,
                         EngineObs obs)
    : config_(std::move(config)),
      registry_(obs.registry != nullptr ? std::move(obs.registry)
                                        : std::make_shared<obs::MetricsRegistry>()),
      tracer_(std::move(obs.tracer)),
      pool_(default_threads(threads)) {
  if (std::optional<core::PipelineError> bad = config_.validate()) {
    throw PreconditionError("BatchEngine: " + describe(*bad));
  }
  obs::MetricsRegistry& m = *registry_;
  counters_.submitted = m.counter("engine.sessions_submitted_total");
  counters_.rejected = m.counter("engine.submit_rejected_total");
  counters_.completed = m.counter("engine.sessions_completed_total");
  counters_.ok = m.counter("engine.sessions_ok_total");
  counters_.no_solution = m.counter("engine.sessions_no_solution_total");
  counters_.errors = m.counter("engine.sessions_error_total");
  for (std::size_t i = 0; i < core::kErrorCategoryCount; ++i) {
    counters_.by_category[i] =
        m.counter(std::string("engine.errors_by_category.") +
                  core::to_string(static_cast<core::ErrorCategory>(i)));
  }
  counters_.asp_ms = m.counter("engine.stage_ms.asp");
  counters_.msp_ms = m.counter("engine.stage_ms.msp");
  counters_.solve_ms = m.counter("engine.stage_ms.solve");
  counters_.total_ms = m.counter("engine.session_ms_total");
  counters_.chirps = m.counter("engine.chirps_detected_total");
  pool_.install_metrics(m, "engine.pool");
}

std::shared_ptr<const core::PipelineContext> BatchEngine::context_for(
    WorkspacePool::WorkerState& state, const sim::Session& session) {
  // Steady state (same configuration as the state's last session)
  // revalidates the memo with `matches` and never touches the sharded
  // cache, so no cross-session lock is on this path.
  const double fs = session.audio.sample_rate;
  std::shared_ptr<const core::PipelineContext> context = state.last_context;
  if (context == nullptr ||
      !context->matches(config_.asp, session.prior.chirp, fs)) {
    context = contexts_.acquire(config_, session.prior.chirp, fs);
    state.last_context = context;
  }
  return context;
}

SessionReport BatchEngine::run_one(const sim::Session& session,
                                   std::uint64_t session_id) {
  SessionReport report;
  const Clock::time_point t0 = Clock::now();
  try {
    // Exclusive worker state for this session: a warm workspace plus the
    // memoized plan pointer (see context_for).
    WorkspacePool::Lease lease = workspaces_.checkout();
    ++lease->sessions_served;
    std::shared_ptr<const core::PipelineContext> context =
        context_for(*lease, session);
    const obs::ObsContext obs{registry_.get(), tracer_.get(), session_id};
    // This worker owns the session; idle workers may help with its ASP
    // chunk tasks.
    const PoolChunkExecutor executor(pool_);
    // Pathological sessions (plans cannot be built) take the context-free
    // spelling, which rebuilds and fails INSIDE the ASP stage so the error
    // is classified against the stage that owns it.
    Expected<core::LocalizationResult, core::PipelineError> outcome =
        context != nullptr
            ? core::try_localize(session, config_, *context, lease->workspace,
                                 &report.metrics, &obs, &executor)
            : core::try_localize(session, config_, &report.metrics, &obs);
    if (outcome.has_value()) {
      report.result = *std::move(outcome);
      report.status =
          report.result.valid ? SessionStatus::ok : SessionStatus::no_solution;
    } else {
      report.status = SessionStatus::error;
      report.error = std::move(outcome).error();
    }
  } catch (const std::exception& e) {
    // try_localize already maps stage failures; this guards the remaining
    // surface (bad_alloc, metric copies) so no exception reaches the pool.
    report.status = SessionStatus::error;
    report.error = core::error_from_exception(e, core::PipelineStage::aggregate);
  }
  report.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  record(report);
  return report;
}

SessionReport BatchEngine::run_one_streamed(const sim::Session& session,
                                            std::size_t chunk_samples,
                                            std::uint64_t session_id) {
  // Streaming push requires equal-length slices; a session whose channels
  // disagree is corrupt data the batch path classifies inside ASP, so
  // route it there and keep the error taxonomy identical across classes.
  if (session.audio.mic1.size() != session.audio.mic2.size() ||
      chunk_samples == 0) {
    return run_one(session, session_id);
  }
  SessionReport report;
  const Clock::time_point t0 = Clock::now();
  try {
    WorkspacePool::Lease lease = workspaces_.checkout();
    ++lease->sessions_served;
    std::shared_ptr<const core::PipelineContext> context =
        context_for(*lease, session);
    const obs::ObsContext obs{registry_.get(), tracer_.get(), session_id};
    // The meta copy carries everything except the samples — those arrive
    // through push() in chunk_samples-sample slices, exactly as a live
    // phone would deliver them.
    sim::Session meta;
    meta.imu = session.imu;
    meta.truth = session.truth;
    meta.prior = session.prior;
    meta.config = session.config;
    meta.audio.sample_rate = session.audio.sample_rate;
    core::StreamingSession stream(std::move(meta), config_, std::move(context),
                                  &lease->workspace);
    const std::span<const double> mic1(session.audio.mic1);
    const std::span<const double> mic2(session.audio.mic2);
    for (std::size_t i = 0; i < mic1.size(); i += chunk_samples) {
      const std::size_t n = std::min(chunk_samples, mic1.size() - i);
      stream.push(mic1.subspan(i, n), mic2.subspan(i, n));
    }
    Expected<core::LocalizationResult, core::PipelineError> outcome =
        stream.finalize(&report.metrics, &obs);
    if (outcome.has_value()) {
      report.result = *std::move(outcome);
      report.status =
          report.result.valid ? SessionStatus::ok : SessionStatus::no_solution;
    } else {
      report.status = SessionStatus::error;
      report.error = std::move(outcome).error();
    }
  } catch (const std::exception& e) {
    report.status = SessionStatus::error;
    report.error = core::error_from_exception(e, core::PipelineStage::aggregate);
  }
  report.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  record(report);
  return report;
}

void BatchEngine::record(const SessionReport& report) {
  // Registry-backed aggregation: sharded relaxed-atomic adds, no engine
  // mutex on the completion path (the old EngineStats struct serialized
  // every worker here).
  counters_.completed.inc();
  switch (report.status) {
    case SessionStatus::ok: counters_.ok.inc(); break;
    case SessionStatus::no_solution: counters_.no_solution.inc(); break;
    case SessionStatus::error: {
      counters_.errors.inc();
      const auto index = static_cast<std::size_t>(report.error.category);
      if (index < counters_.by_category.size()) counters_.by_category[index].inc();
      break;
    }
  }
  counters_.asp_ms.inc(report.metrics.asp_ms);
  counters_.msp_ms.inc(report.metrics.msp_ms);
  counters_.solve_ms.inc(report.metrics.solve_ms);
  counters_.total_ms.inc(report.wall_ms);
  counters_.chirps.inc(
      static_cast<double>(report.metrics.chirps_mic1 + report.metrics.chirps_mic2));
}

std::future<SessionReport> BatchEngine::enqueue(
    std::shared_ptr<const sim::Session> session) {
  // Engine state machine: submit after shutdown() is a caller bug. Checked
  // builds fail the contract here, before the submitted counter moves; the
  // release path reaches pool_.post below, which revalidates under the pool
  // lock and throws PreconditionError without a counter drift (the
  // rollback in the catch block).
  HE_EXPECTS(!pool_.stopped());
  const std::uint64_t session_id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  auto task = std::make_shared<std::packaged_task<SessionReport()>>(
      [this, session = std::move(session), session_id] {
        return run_one(*session, session_id);
      });
  std::future<SessionReport> future = task->get_future();
  // Count before posting so `submitted >= completed` always holds for
  // observers; a refused post is recorded on the rejected counter and
  // subtracted in the stats() view (registry counters are monotonic — no
  // takebacks).
  counters_.submitted.inc();
  try {
    pool_.post([task] { (*task)(); });
  } catch (...) {
    counters_.rejected.inc();
    throw;
  }
  return future;
}

bool BatchEngine::post_refusable(std::function<void()> task) {
  // Same submitted-then-rejected discipline as enqueue (see there), but a
  // refused post is an answer, not an exception: the serving layer shares
  // fate with its shards and must observe a dying one as a value.
  counters_.submitted.inc();
  try {
    pool_.post(std::move(task));
  } catch (const PreconditionError&) {
    counters_.rejected.inc();
    return false;
  } catch (...) {
    counters_.rejected.inc();
    throw;
  }
  return true;
}

bool BatchEngine::try_submit(std::shared_ptr<const sim::Session> session,
                             std::function<void(SessionReport&&)> done,
                             std::uint64_t session_id) {
  HE_EXPECTS(session != nullptr && done != nullptr);
  const std::uint64_t id =
      session_id != 0
          ? session_id
          : next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  return post_refusable(
      [this, session = std::move(session), done = std::move(done), id] {
        done(run_one(*session, id));
      });
}

bool BatchEngine::try_submit_streamed(std::shared_ptr<const sim::Session> session,
                                      std::size_t chunk_samples,
                                      std::function<void(SessionReport&&)> done,
                                      std::uint64_t session_id) {
  HE_EXPECTS(session != nullptr && done != nullptr);
  const std::uint64_t id =
      session_id != 0
          ? session_id
          : next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  return post_refusable([this, session = std::move(session),
                         done = std::move(done), chunk_samples, id] {
    done(run_one_streamed(*session, chunk_samples, id));
  });
}

std::future<SessionReport> BatchEngine::submit(const sim::Session& session) {
  // Copy into shared ownership: the caller's lvalue may die before a
  // worker picks the task up (a `&session` capture here once dangled).
  return enqueue(std::make_shared<const sim::Session>(session));
}

std::future<SessionReport> BatchEngine::submit(sim::Session&& session) {
  return enqueue(std::make_shared<const sim::Session>(std::move(session)));
}

std::vector<SessionReport> BatchEngine::localize_all(
    std::span<const sim::Session> sessions) {
  // No futures here: each task writes its report straight into the result
  // vector's slot and bumps a completion counter. The future path costs a
  // promise/shared-state allocation plus a report move per session; this
  // path allocates exactly once (the vector) no matter the batch size, and
  // input order holds trivially because slot i belongs to session i.
  // Sessions are read in place too — the span outlives the call because
  // the waits below cover every posted task.
  std::vector<SessionReport> reports(sessions.size());
  if (sessions.empty()) return reports;
  HE_EXPECTS(!pool_.stopped());
  // Frame-local join state: a leaf outside the lock hierarchy (no
  // HE_LOCK_LEVEL — nothing else is ever acquired under it).
  he::Mutex done_mutex;
  he::CondVar done_cv;
  std::size_t done = 0;
  std::size_t posted = 0;
  const auto wait_for_posted = [&] {
    he::MutexLock lock(done_mutex);
    while (done != posted) done_cv.wait(lock);
  };
  try {
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      const std::uint64_t session_id =
          next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
      // Same submitted-then-rejected discipline as enqueue (see there).
      counters_.submitted.inc();
      try {
        pool_.post([this, sessions, &reports, &done_mutex, &done_cv, &done, i,
                    session_id] {
          reports[i] = run_one(sessions[i], session_id);
          // Notify under the lock: the waiter destroys the condvar as soon
          // as it observes done == posted, so signalling after unlock would
          // race that destruction.
          const he::MutexLock lock(done_mutex);
          ++done;
          done_cv.notify_one();
        });
      } catch (...) {
        counters_.rejected.inc();
        throw;
      }
      ++posted;
    }
  } catch (...) {
    // A mid-batch shutdown refused the post. Tasks already queued still
    // reference `reports` and the counters on this frame — drain them
    // before the exception unwinds the frame out from under them.
    wait_for_posted();
    throw;
  }
  wait_for_posted();
  return reports;
}

void BatchEngine::shutdown() { pool_.stop(); }

EngineStats BatchEngine::stats() const {
  EngineStats s;
  // Read rejected BEFORE submitted. A failing submit increments submitted
  // first and rejected second, so sampling submitted first can observe a
  // rejected tick whose submitted tick the earlier read missed — the
  // difference then transiently under-counts (and, right at startup, would
  // wrap negative through the size_t cast). Reading rejected first makes
  // every rejected tick we see carry its submitted tick in the later read,
  // so the difference never goes negative; the clamp is belt-and-braces.
  const double rejected = counters_.rejected.value();
  const double submitted = counters_.submitted.value();
  s.submitted = as_count(submitted > rejected ? submitted - rejected : 0.0);
  s.completed = as_count(counters_.completed.value());
  s.ok = as_count(counters_.ok.value());
  s.no_solution = as_count(counters_.no_solution.value());
  s.errors = as_count(counters_.errors.value());
  for (std::size_t i = 0; i < core::kErrorCategoryCount; ++i) {
    s.errors_by_category[i] = as_count(counters_.by_category[i].value());
  }
  s.asp_ms = counters_.asp_ms.value();
  s.msp_ms = counters_.msp_ms.value();
  s.solve_ms = counters_.solve_ms.value();
  s.total_ms = counters_.total_ms.value();
  s.chirps_detected = as_count(counters_.chirps.value());
  return s;
}

}  // namespace hyperear::runtime
