#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/fan_out.hpp"

namespace hyperear::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using Outcome = Expected<core::LocalizationResult, core::PipelineError>;

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

/// Finalize-latency buckets (ms) — the live back half is the batch
/// pipeline minus the already-amortized filtering/detection, so the same
/// decade grid the stage histograms use fits.
constexpr double kFinalizeMsBounds[] = {1.0,  2.0,   5.0,   10.0,  20.0,
                                        50.0, 100.0, 200.0, 500.0, 1000.0};

/// The one outcome -> report mapping: runs `produce` (which fills
/// `report.metrics` as far as it gets) and files its result — or any
/// exception it throws (bad_alloc, a remembered push failure) — as the
/// report's status, so no exception reaches a pool worker.
template <class Produce>
void settle(SessionReport& report, Produce&& produce) {
  try {
    Outcome outcome = produce();
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
  } catch (...) {
    report.status = SessionStatus::error;
    report.error = core::PipelineError{core::ErrorCategory::internal,
                                       core::PipelineStage::aggregate,
                                       "unknown error"};
  }
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

const char* to_string(PushStatus status) {
  switch (status) {
    case PushStatus::accepted: return "accepted";
    case PushStatus::overflow: return "overflow";
    case PushStatus::closed: return "closed";
    case PushStatus::unknown_session: return "unknown_session";
  }
  return "unknown_session";
}

Engine::Engine(core::PipelineConfig config, std::size_t threads, EngineObs obs,
               LiveLimits limits)
    : config_(std::move(config)),
      limits_(limits),
      registry_(obs.registry != nullptr ? std::move(obs.registry)
                                        : std::make_shared<obs::MetricsRegistry>()),
      tracer_(std::move(obs.tracer)),
      pool_(default_threads(threads)) {
  if (std::optional<core::PipelineError> bad = config_.validate()) {
    throw PreconditionError("Engine: " + describe(*bad));
  }
  require(limits_.max_sessions > 0, "Engine: max_sessions must be >= 1");
  require(limits_.max_buffered_samples > 0,
          "Engine: max_buffered_samples must be >= 1");
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
  counters_.opened = m.counter("streaming.sessions_opened_total");
  counters_.closed = m.counter("streaming.sessions_closed_total");
  counters_.evicted = m.counter("streaming.sessions_evicted_total");
  counters_.open_rejected = m.counter("streaming.open_rejected_total");
  counters_.push_accepted = m.counter("streaming.push_accepted_total");
  counters_.push_overflow = m.counter("streaming.push_overflow_total");
  counters_.samples = m.counter("streaming.samples_total");
  counters_.events = m.counter("streaming.events_total");
  counters_.open_gauge = m.gauge("streaming.open_sessions");
  counters_.buffered_gauge = m.gauge("streaming.buffered_samples");
  counters_.finalize_ms = m.histogram("streaming.finalize_ms", kFinalizeMsBounds);
  pool_.install_metrics(m, "engine.pool");
}

std::shared_ptr<const core::PipelineContext> Engine::context_for(
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

core::StreamingSession& Engine::start_stream(
    std::optional<core::StreamingSession>& slot, WorkspacePool::WorkerState& state,
    sim::Session meta) {
  // A null context (pathological configuration) is handed to the session,
  // which rebuilds locally and classifies the failure at finalize.
  std::shared_ptr<const core::PipelineContext> context = context_for(state, meta);
  return slot.emplace(std::move(meta), config_, std::move(context), &state.workspace);
}

SessionReport Engine::run_one(const sim::Session& session, std::uint64_t session_id,
                              std::size_t chunk_samples) {
  SessionReport report;
  const Clock::time_point t0 = Clock::now();
  settle(report, [&]() -> Outcome {
    // Exclusive worker state for this session: a warm workspace plus the
    // memoized plan pointer (see context_for).
    WorkspacePool::Lease lease = workspaces_.checkout();
    ++lease->sessions_served;
    const obs::ObsContext obs{registry_.get(), tracer_.get(), session_id};
    // Streaming push requires equal-length slices; a session whose channels
    // disagree is corrupt data the whole-recording path classifies inside
    // ASP, so route it there and keep the error taxonomy identical across
    // ingest spellings.
    if (chunk_samples > 0 && session.audio.mic1.size() == session.audio.mic2.size()) {
      // The meta copy carries everything except the samples — those arrive
      // through push() in chunk_samples-sample slices, exactly as a live
      // phone would deliver them.
      sim::Session meta;
      meta.imu = session.imu;
      meta.truth = session.truth;
      meta.prior = session.prior;
      meta.config = session.config;
      meta.audio.sample_rate = session.audio.sample_rate;
      std::optional<core::StreamingSession> slot;
      core::StreamingSession& stream = start_stream(slot, *lease, std::move(meta));
      const std::span<const double> mic1(session.audio.mic1);
      const std::span<const double> mic2(session.audio.mic2);
      for (std::size_t i = 0; i < mic1.size(); i += chunk_samples) {
        const std::size_t n = std::min(chunk_samples, mic1.size() - i);
        stream.push(mic1.subspan(i, n), mic2.subspan(i, n));
      }
      return stream.finalize(&report.metrics, &obs);
    }
    std::shared_ptr<const core::PipelineContext> context = context_for(*lease, session);
    // This worker owns the session; idle workers may help with its ASP
    // chunk tasks.
    const PoolChunkExecutor executor(pool_);
    // Pathological sessions (plans cannot be built) take the context-free
    // spelling, which rebuilds and fails INSIDE the ASP stage so the error
    // is classified against the stage that owns it.
    return context != nullptr
               ? core::try_localize(session, config_, *context, lease->workspace,
                                    &report.metrics, &obs, &executor)
               : core::try_localize(session, config_, &report.metrics, &obs);
  });
  report.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  record(report);
  return report;
}

void Engine::record(const SessionReport& report) {
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

std::uint64_t Engine::next_id() {
  return next_session_id_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::future<SessionReport> Engine::enqueue(std::shared_ptr<const sim::Session> session) {
  // Engine state machine: submit after shutdown() is a caller bug. Checked
  // builds fail the contract here, before the submitted counter moves; the
  // release path reaches pool_.post, which revalidates under the pool lock,
  // and throws PreconditionError without a counter drift (post_refusable
  // records the refusal as rejected).
  HE_EXPECTS(!pool_.stopped());
  const std::uint64_t session_id = next_id();
  auto task = std::make_shared<std::packaged_task<SessionReport()>>(
      [this, session = std::move(session), session_id] {
        return run_one(*session, session_id);
      });
  std::future<SessionReport> future = task->get_future();
  if (!post_refusable([task] { (*task)(); })) {
    throw PreconditionError("Engine::submit after shutdown");
  }
  return future;
}

bool Engine::post_refusable(std::function<void()> task) {
  // Count before posting so `submitted >= completed` always holds for
  // observers; a refused post is recorded on the rejected counter and
  // subtracted in the stats() view (registry counters are monotonic — no
  // takebacks). A refusal is an answer here, not an exception: the serving
  // layer shares fate with its shards and must observe a dying one as a
  // value; the other intakes turn it into PreconditionError.
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

bool Engine::try_submit(std::shared_ptr<const sim::Session> session,
                        std::function<void(SessionReport&&)> done,
                        std::uint64_t session_id, std::size_t chunk_samples) {
  HE_EXPECTS(session != nullptr && done != nullptr);
  const std::uint64_t id = session_id != 0 ? session_id : next_id();
  return post_refusable([this, session = std::move(session), done = std::move(done),
                         id, chunk_samples] {
    done(run_one(*session, id, chunk_samples));
  });
}

std::future<SessionReport> Engine::submit(const sim::Session& session) {
  // Copy into shared ownership: the caller's lvalue may die before a
  // worker picks the task up (a `&session` capture here once dangled).
  return enqueue(std::make_shared<const sim::Session>(session));
}

std::future<SessionReport> Engine::submit(sim::Session&& session) {
  return enqueue(std::make_shared<const sim::Session>(std::move(session)));
}

// NOLINTNEXTLINE(hyperear-hotpath) -- per-batch result container owned by the caller
std::vector<SessionReport> Engine::localize_all(std::span<const sim::Session> sessions) {
  // No futures here: each task writes its report straight into the result
  // vector's slot and bumps a completion counter. The future path costs a
  // promise/shared-state allocation plus a report move per session; this
  // path allocates exactly once (the vector) no matter the batch size, and
  // input order holds trivially because slot i belongs to session i.
  // Sessions are read in place too — the span outlives the call because
  // the waits below cover every posted task.
  // NOLINTNEXTLINE(hyperear-hotpath) -- the one per-batch allocation described above
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
      const std::uint64_t session_id = next_id();
      const bool posted_ok = post_refusable([this, sessions, &reports, &done_mutex,
                                             &done_cv, &done, i, session_id] {
        reports[i] = run_one(sessions[i], session_id);
        // Notify under the lock: the waiter destroys the condvar as soon as
        // it observes done == posted, so signalling after unlock would race
        // that destruction.
        const he::MutexLock lock(done_mutex);
        ++done;
        done_cv.notify_one();
      });
      if (!posted_ok) throw PreconditionError("Engine::localize_all after shutdown");
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

std::uint64_t Engine::open(sim::Session meta) {
  require(!stopping_.load(std::memory_order_relaxed), "Engine::open after shutdown");
  const he::MutexLock lock(sessions_mutex_);
  if (sessions_.size() >= limits_.max_sessions) {
    counters_.open_rejected.inc();
    return 0;
  }
  // Build the whole entry before publishing the id: a throwing
  // StreamingSession constructor (meta arrived with audio attached) must
  // leave no half-open session behind — the lease returns via RAII.
  auto entry = std::make_shared<Entry>();
  {
    // Uncontended by construction (the entry is unpublished until the
    // emplace below), but last_tick is a guarded field and the analysis
    // rightly has no notion of "not shared yet".
    const he::MutexLock entry_lock(entry->mutex);
    entry->last_tick = current_tick_.load(std::memory_order_relaxed);
  }
  entry->opened_at = obs::monotonic_now();
  WorkspacePool::Lease& lease = entry->lease.emplace(workspaces_.checkout());
  ++lease->sessions_served;
  start_stream(entry->session, *lease, std::move(meta));
  entry->id = next_id();
  const std::uint64_t id = entry->id;
  sessions_.emplace(id, std::move(entry));
  // An accepted open is a submission: finish_entry records its completion.
  counters_.submitted.inc();
  counters_.opened.inc();
  counters_.open_gauge.add(1.0);
  return id;
}

std::shared_ptr<Engine::Entry> Engine::find(std::uint64_t id) const {
  const he::MutexLock lock(sessions_mutex_);
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

bool Engine::schedule_drain_locked(const std::shared_ptr<Entry>& entry) {
  if (entry->scheduled) return true;
  entry->scheduled = true;
  try {
    pool_.post([this, entry] { drain(entry); });
  } catch (const std::exception&) {
    entry->scheduled = false;
    return false;
  }
  return true;
}

PushStatus Engine::push(std::uint64_t id, std::span<const double> mic1,
                        std::span<const double> mic2) {
  require(mic1.size() == mic2.size(), "Engine::push: channel length mismatch");
  if (stopping_.load(std::memory_order_relaxed)) return PushStatus::closed;
  const std::shared_ptr<Entry> entry = find(id);
  if (entry == nullptr) return PushStatus::unknown_session;
  const std::size_t added = mic1.size() + mic2.size();
  const he::MutexLock lock(entry->mutex);
  if (entry->evicted) return PushStatus::unknown_session;
  if (entry->closing) return PushStatus::closed;
  if (entry->buffered_samples + added > limits_.max_buffered_samples) {
    counters_.push_overflow.inc();
    return PushStatus::overflow;
  }
  Buffered buf;
  if (!entry->freelist.empty()) {
    buf = std::move(entry->freelist.back());
    entry->freelist.pop_back();
  }
  buf.mic1.assign(mic1.begin(), mic1.end());
  buf.mic2.assign(mic2.begin(), mic2.end());
  entry->inbox.push_back(std::move(buf));
  entry->buffered_samples += added;
  entry->last_tick = current_tick_.load(std::memory_order_relaxed);
  counters_.push_accepted.inc();
  counters_.samples.inc(static_cast<double>(added));
  counters_.buffered_gauge.add(static_cast<double>(added));
  if (!schedule_drain_locked(entry)) return PushStatus::closed;
  return PushStatus::accepted;
}

std::future<SessionReport> Engine::finalize(std::uint64_t id) {
  const std::shared_ptr<Entry> entry = find(id);
  require(entry != nullptr, "Engine::finalize: unknown session");
  bool run_inline = false;
  std::future<SessionReport> future;
  {
    const he::MutexLock lock(entry->mutex);
    require(!entry->evicted, "Engine::finalize: unknown session");
    require(!entry->closing, "Engine::finalize: already finalizing");
    entry->closing = true;
    entry->last_tick = current_tick_.load(std::memory_order_relaxed);
    future = entry->promise.get_future();
    if (!schedule_drain_locked(entry)) {
      // Pool refused (shutdown racing this call). No drain task is running
      // (scheduled was false), so the caller thread owns the session and
      // can resolve the future itself instead of leaving it hanging.
      entry->scheduled = true;
      run_inline = true;
    }
  }
  if (run_inline) drain(entry);
  return future;
}

void Engine::drain(const std::shared_ptr<Entry>& entry) {
  // The strand: at most one drain task per session exists at a time
  // (`scheduled`), so everything below the inbox pop — the session, the
  // lease, the filters and detector state inside — is touched single-
  // threaded without holding any lock across the DSP work.
  for (;;) {
    Buffered buf;
    bool have_chunk = false;
    bool do_finalize = false;
    {
      const he::MutexLock lock(entry->mutex);
      if (entry->evicted) {
        // Evictor saw us running and left teardown to us.
        entry->session.reset();
        entry->lease.reset();
        entry->scheduled = false;
        return;
      }
      if (!entry->inbox.empty()) {
        buf = std::move(entry->inbox.front());
        entry->inbox.pop_front();
        const std::size_t popped = buf.mic1.size() + buf.mic2.size();
        entry->buffered_samples -= popped;
        counters_.buffered_gauge.add(-static_cast<double>(popped));
        have_chunk = true;
      } else if (entry->closing) {
        do_finalize = true;
      } else {
        entry->scheduled = false;
        return;
      }
    }
    if (do_finalize) {
      finish_entry(entry);
      return;
    }
    if (have_chunk) {
      if (entry->push_error == nullptr) {
        try {
          entry->session->push(buf.mic1, buf.mic2);
          const std::size_t seen = entry->session->events().size();
          counters_.events.inc(static_cast<double>(seen - entry->events_seen));
          entry->events_seen = seen;
        } catch (...) {
          // Remember the first failure; finish_entry reports it as the
          // session's error (the whole-recording path would have failed the
          // same session the same way, just all at once).
          entry->push_error = std::current_exception();
        }
      }
      const he::MutexLock lock(entry->mutex);
      buf.mic1.clear();
      buf.mic2.clear();
      entry->freelist.push_back(std::move(buf));
    }
  }
}

void Engine::finish_entry(const std::shared_ptr<Entry>& entry) {
  SessionReport report;
  const obs::MonotonicTime t0 = obs::monotonic_now();
  settle(report, [&]() -> Outcome {
    if (entry->push_error != nullptr) std::rethrow_exception(entry->push_error);
    const obs::ObsContext obs{registry_.get(), tracer_.get(), entry->id};
    Outcome outcome = entry->session->finalize(&report.metrics, &obs);
    counters_.events.inc(
        static_cast<double>(entry->session->events().size() - entry->events_seen));
    return outcome;
  });
  counters_.finalize_ms.observe(obs::ms_since(t0));
  report.wall_ms = obs::ms_since(entry->opened_at);
  // Retire the session BEFORE resolving the future: a caller returning
  // from future.get() must observe the id gone, the lease returned and the
  // completion counted.
  {
    const he::MutexLock lock(entry->mutex);
    entry->session.reset();
    entry->lease.reset();
    entry->scheduled = false;
  }
  {
    const he::MutexLock lock(sessions_mutex_);
    sessions_.erase(entry->id);
  }
  counters_.open_gauge.add(-1.0);
  counters_.closed.inc();
  record(report);
  entry->promise.set_value(std::move(report));
}

void Engine::tick() { current_tick_.fetch_add(1, std::memory_order_relaxed); }

std::size_t Engine::evict_idle(std::uint64_t max_idle_ticks) {
  const std::uint64_t now = current_tick_.load(std::memory_order_relaxed);
  std::size_t evicted = 0;
  const he::MutexLock lock(sessions_mutex_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const std::shared_ptr<Entry>& entry = it->second;
    bool evict_this = false;
    {
      // streaming -> session nesting: the declared hierarchy direction.
      const he::MutexLock entry_lock(entry->mutex);
      const std::uint64_t idle = now - entry->last_tick;
      if (!entry->closing && !entry->evicted && idle > max_idle_ticks) {
        entry->evicted = true;
        // Pending audio dies with the session, whether or not a drain is
        // running — a running drain checks `evicted` before the inbox.
        counters_.buffered_gauge.add(-static_cast<double>(entry->buffered_samples));
        entry->inbox.clear();
        entry->freelist.clear();
        entry->buffered_samples = 0;
        if (!entry->scheduled) {
          // No drain in flight: this thread owns the session state.
          entry->session.reset();
          entry->lease.reset();
        }
        evict_this = true;
      }
    }
    if (evict_this) {
      it = sessions_.erase(it);
      ++evicted;
      counters_.evicted.inc();
    } else {
      ++it;
    }
  }
  counters_.open_gauge.add(-static_cast<double>(evicted));
  return evicted;
}

std::size_t Engine::open_sessions() const {
  const he::MutexLock lock(sessions_mutex_);
  return sessions_.size();
}

void Engine::shutdown() {
  stopping_.store(true, std::memory_order_relaxed);
  pool_.stop();
}

EngineStats Engine::stats() const {
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
