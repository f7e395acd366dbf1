#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/streaming_session.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/context_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace_pool.hpp"
#include "sim/scenario.hpp"

/// @file engine.hpp
/// The localization engine: runs the full ASP -> MSP -> TTL/PLE pipeline
/// over many independent sessions concurrently on one internal thread
/// pool. Sessions come in two ways:
///   - whole recordings (`submit`, `try_submit`, `localize_all`) — a
///     finished recording, optionally replayed through
///     core::StreamingSession in fixed-size chunks (the server's streaming
///     class);
///   - live audio (`open` / `push` / `finalize`) — N phones streaming right
///     now, each multiplexed onto the pool through a per-session strand.
/// Both share the engine's plan cache, workspace pool and telemetry, and
/// every finished session, whichever way it came in, is reported through
/// the same `SessionReport` and counted on the same `engine.*` series.
///
/// Every per-session failure is captured as a value (`SessionReport`),
/// never as an exception escaping a worker — one corrupt session cannot
/// poison a batch. Results are deterministic: sessions are pure functions
/// of their inputs, so a report is bit-identical no matter which worker
/// produced it, how many workers exist, or how a live session's audio was
/// chunked (the StreamingSession guarantee).
///
/// Scaling model (DESIGN.md §8): sessions are the unit of parallelism.
/// Each session leases exclusive per-worker state (workspace + memoized
/// context pointer) and runs against read-only shared plans, so the steady
/// state crosses no per-session lock and performs (nearly) no heap
/// allocation; throughput scales with workers because workers share
/// nothing mutable. Within a whole-recording session, the ASP stage's
/// (channel, detector-chunk) tasks fan out over workers that would
/// otherwise sit idle (runtime/fan_out.hpp), each on its own thread's
/// chunk scratch; at saturation no worker is idle and the session runs on
/// its own worker alone. Results are byte-identical either way.

namespace hyperear::runtime {

/// Terminal status of one session run.
enum class SessionStatus {
  ok,           ///< pipeline produced a valid fix
  no_solution,  ///< pipeline ran cleanly but no slide passed the gate
  error,        ///< a stage failed; see `error`
};

[[nodiscard]] const char* to_string(SessionStatus status);

/// Everything the engine has to say about one session.
struct SessionReport {
  SessionStatus status = SessionStatus::error;
  core::LocalizationResult result;  ///< meaningful unless status == error
  core::PipelineError error;        ///< meaningful iff status == error
  core::StageMetrics metrics;       ///< filled up to the failing stage
  /// End-to-end time. A whole-recording session (replayed or not): its
  /// time on the worker, lease to report. A live session: its whole life,
  /// `open` to fix, including the time it spent waiting for audio.
  double wall_ms = 0.0;
};

/// Aggregate counters across every session the engine has completed — a
/// point-in-time VIEW over the engine's metrics registry (the `engine.*`
/// series), kept bit-compatible with the pre-registry struct so existing
/// callers keep working. Live sessions count like whole recordings: an
/// accepted `open` is a submission, a resolved `finalize` a completion (an
/// evicted session is submitted but never completes). Snapshot via
/// Engine::stats(); scrape the full registry (including pipeline/
/// detector/pool/live series this view doesn't carry) via
/// Engine::metrics().
struct EngineStats {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t ok = 0;
  std::size_t no_solution = 0;
  std::size_t errors = 0;
  /// Errors by ErrorCategory (indexed by static_cast<size_t>(category);
  /// the extent tracks the enum, core::kErrorCategoryCount).
  std::array<std::size_t, core::kErrorCategoryCount> errors_by_category{};
  // Cumulative per-stage wall time across sessions (observability, not
  // wall-clock: stages on different workers overlap).
  double asp_ms = 0.0;
  double msp_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms = 0.0;
  std::size_t chirps_detected = 0;
};

/// Observability wiring for an Engine. Both members optional:
/// `registry` null means the engine builds a private registry (its stats()
/// view and exports still work — the engine is never blind); `tracer` null
/// means per-stage spans are not recorded (the usual production setting —
/// spans cost a mutexed allocation per stage, counters don't).
struct EngineObs {
  std::shared_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::Tracer> tracer;
};

/// Outcome of one `push` call. Values, not exceptions: a full buffer or a
/// closed session is normal operation under load, not a programming error.
enum class PushStatus : std::uint8_t {
  accepted,         ///< buffered; a drain task is (or was already) scheduled
  overflow,         ///< per-session buffer cap hit — retry later or drop
  closed,           ///< session finalized/closing, or the engine shut down
  unknown_session,  ///< no such id (never opened, already done, or evicted)
};

[[nodiscard]] const char* to_string(PushStatus status);

/// Bounds of the live intake (open/push).
struct LiveLimits {
  /// Maximum concurrently open live sessions; `open` returns 0 beyond it.
  std::size_t max_sessions = 64;
  /// Per-session cap on buffered (pushed but not yet drained) samples,
  /// both channels combined — the backpressure bound.
  std::size_t max_buffered_samples = std::size_t{1} << 22;
};

/// Concurrent localizer. Construction validates the config and limits
/// (throws PreconditionError on a violation — a misconfigured engine is a
/// programming error, unlike a corrupt session, which is data) and spins
/// up the pool; the config is immutable for the engine's lifetime. Every
/// public member is thread-safe.
///
/// The engine owns a sharded cache of immutable `core::PipelineContext`s
/// (runtime/context_cache.hpp) — the DSP plans (chirp reference,
/// matched-filter spectra, FFT tables) shared read-only by
/// every worker — so plans are built once per (chirp, sample-rate)
/// combination instead of once per session, and a pool of per-worker
/// `core::SessionWorkspace`s (runtime/workspace_pool.hpp) so scratch is
/// allocated once per worker instead of once per session. Results are
/// bit-identical to context-free `core::try_localize` calls; only the
/// redundant plan construction and allocator traffic go away.
///
/// Live sessions: each open session holds a leased workspace and a
/// StreamingSession; pushed audio is buffered in a per-session inbox and
/// drained by at most one pool task at a time (a strand), so session state
/// is never touched concurrently while unrelated sessions proceed in
/// parallel. Backpressure is a hard per-session cap on buffered samples —
/// `push` reports `overflow` instead of queueing unboundedly, and the
/// caller retries or drops. Idle sessions are evicted on a LOGICAL clock
/// (`tick()` + `evict_idle`), so reclamation is deterministic and testable
/// — wall time never decides which sessions die.
///
/// Telemetry: every session updates the `engine.*`, `pipeline.*`,
/// `detector.*`, and `engine.pool.*` series on the registry (supplied or
/// private — see EngineObs); the live intake adds its `streaming.*`
/// series. `stats()` is the legacy fixed-field view;
/// `metrics().to_json()` / `.to_prometheus()` are the export path.
class Engine {
 public:
  /// `threads == 0` means hardware_concurrency (min 1).
  explicit Engine(core::PipelineConfig config = {}, std::size_t threads = 0,
                  EngineObs obs = {}, LiveLimits limits = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- whole recordings ----------------------------------------------------

  /// Enqueue one session; the future resolves when a worker finishes it.
  /// Both overloads give the queued work its own copy of the session (the
  /// first copies, the second moves) — the caller's argument may die the
  /// moment the call returns. Throws PreconditionError after shutdown();
  /// a throwing submit leaves stats().submitted untouched.
  [[nodiscard]] std::future<SessionReport> submit(const sim::Session& session);
  [[nodiscard]] std::future<SessionReport> submit(sim::Session&& session);

  /// Serving-layer intake (runtime/server.hpp): like submit(), but the
  /// report is delivered to `done` on the worker thread that produced it,
  /// and an engine that has shut down answers `false` instead of throwing —
  /// the server treats a shard dying mid-flight as data (the request is
  /// cancelled by value), not as a caller bug. A `false` answer means
  /// `done` will never run and stats().submitted is untouched. `done` must
  /// not throw (pool tasks that throw terminate the process, by design).
  /// `session_id` labels this run's metric/trace series (0 = allocate an
  /// engine-internal id) so the caller's root span and the pipeline's
  /// stage spans share one id. `chunk_samples > 0` replays the audio
  /// through core::StreamingSession in slices of that many samples before
  /// solving — the report is bit-identical to the whole-recording run
  /// (chunking is representation, not information); only the ingest
  /// spelling differs, and the replay does not fan out.
  [[nodiscard]] bool try_submit(std::shared_ptr<const sim::Session> session,
                                std::function<void(SessionReport&&)> done,
                                std::uint64_t session_id = 0,
                                std::size_t chunk_samples = 0);

  /// Run a whole batch and block until every session is done. Reports come
  /// back in input order regardless of completion order. Sessions are
  /// processed in place (no copies — the span outlives the call by
  /// construction).
  [[nodiscard]] std::vector<SessionReport> localize_all(
      std::span<const sim::Session> sessions);

  // --- live audio ----------------------------------------------------------

  /// Open a live session for `meta` (audio channels must be empty —
  /// samples arrive via `push`). Returns the session id (>= 1), or 0 when
  /// `max_sessions` are already open. Throws PreconditionError after
  /// shutdown.
  [[nodiscard]] std::uint64_t open(sim::Session meta) HE_EXCLUDES(sessions_mutex_);

  /// Buffer one stereo slice for the session (equal lengths) and schedule
  /// its drain. Never blocks on DSP work.
  [[nodiscard]] PushStatus push(std::uint64_t id, std::span<const double> mic1,
                                std::span<const double> mic2)
      HE_EXCLUDES(sessions_mutex_);

  /// Declare end-of-audio: no further pushes are accepted; the future
  /// resolves once the drain task has run the session's `finalize`. Throws
  /// PreconditionError for an unknown (or already finalized) id.
  [[nodiscard]] std::future<SessionReport> finalize(std::uint64_t id)
      HE_EXCLUDES(sessions_mutex_);

  /// Advance the logical clock one step. Activity on a session stamps the
  /// current tick; `evict_idle(max_idle)` closes sessions whose stamp is
  /// more than `max_idle` ticks old.
  void tick();

  /// Evict live sessions idle for more than `max_idle_ticks` (finalizing
  /// sessions are never evicted). Their ids become unknown and their
  /// workspaces return to the pool. Returns how many were evicted.
  std::size_t evict_idle(std::uint64_t max_idle_ticks) HE_EXCLUDES(sessions_mutex_);

  [[nodiscard]] std::size_t open_sessions() const HE_EXCLUDES(sessions_mutex_);

  // --- lifecycle and telemetry ---------------------------------------------

  /// Stop accepting new sessions, opens and pushes; everything already
  /// submitted or finalizing still runs to completion and outstanding
  /// futures still resolve. Idempotent. The destructor implies it.
  void shutdown();

  [[nodiscard]] EngineStats stats() const;
  /// The registry every series lands on (supplied or engine-private).
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *registry_; }
  /// Null unless a tracer was supplied at construction.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] std::size_t thread_count() const { return pool_.size(); }
  [[nodiscard]] const core::PipelineConfig& config() const { return config_; }

 private:
  /// Handles into the registry for the `engine.*` series backing stats()
  /// and the live intake's `streaming.*` series.
  struct Counters {
    obs::Counter submitted;        ///< engine.sessions_submitted_total
    obs::Counter rejected;         ///< engine.submit_rejected_total
    obs::Counter completed;        ///< engine.sessions_completed_total
    obs::Counter ok;               ///< engine.sessions_ok_total
    obs::Counter no_solution;      ///< engine.sessions_no_solution_total
    obs::Counter errors;           ///< engine.sessions_error_total
    /// engine.errors_by_category.<to_string(category)>
    std::array<obs::Counter, core::kErrorCategoryCount> by_category;
    obs::Counter asp_ms;           ///< engine.stage_ms.asp
    obs::Counter msp_ms;           ///< engine.stage_ms.msp
    obs::Counter solve_ms;         ///< engine.stage_ms.solve
    obs::Counter total_ms;         ///< engine.session_ms_total
    obs::Counter chirps;           ///< engine.chirps_detected_total
    obs::Counter opened;           ///< streaming.sessions_opened_total
    obs::Counter closed;           ///< streaming.sessions_closed_total
    obs::Counter evicted;          ///< streaming.sessions_evicted_total
    obs::Counter open_rejected;    ///< streaming.open_rejected_total
    obs::Counter push_accepted;    ///< streaming.push_accepted_total
    obs::Counter push_overflow;    ///< streaming.push_overflow_total
    obs::Counter samples;          ///< streaming.samples_total
    obs::Counter events;           ///< streaming.events_total
    obs::Gauge open_gauge;         ///< streaming.open_sessions
    obs::Gauge buffered_gauge;     ///< streaming.buffered_samples
    obs::Histogram finalize_ms;    ///< streaming.finalize_ms
  };

  /// One buffered stereo slice. Recycled through the entry's freelist so a
  /// steady push cadence reuses capacity instead of allocating.
  struct Buffered {
    std::vector<double> mic1;
    std::vector<double> mic2;
  };

  /// One open live session. `mutex` guards the inbox and flags; the
  /// members below the guarded block are STRAND-OWNED — touched only by the
  /// (single) scheduled drain task, which `scheduled` serializes — or
  /// immutable after open, so they deliberately carry no HE_GUARDED_BY
  /// (the analysis cannot express "owned by whichever thread holds the
  /// strand", and a mutex annotation here would force drains to hold the
  /// lock across DSP work).
  struct Entry {
    he::Mutex mutex HE_LOCK_LEVEL(session);
    std::deque<Buffered> inbox HE_GUARDED_BY(mutex);
    std::vector<Buffered> freelist HE_GUARDED_BY(mutex);
    /// Both channels combined.
    std::size_t buffered_samples HE_GUARDED_BY(mutex) = 0;
    /// A drain task is queued or running.
    bool scheduled HE_GUARDED_BY(mutex) = false;
    /// Finalize requested; inbox drains then solves.
    bool closing HE_GUARDED_BY(mutex) = false;
    /// Drain must abandon the session.
    bool evicted HE_GUARDED_BY(mutex) = false;
    std::uint64_t last_tick HE_GUARDED_BY(mutex) = 0;
    // -- immutable after open --
    std::uint64_t id = 0;
    obs::MonotonicTime opened_at;
    // -- strand-owned (see above) --
    std::size_t events_seen = 0;       ///< events already counted on metrics
    std::exception_ptr push_error;     ///< first drain-side failure, if any
    std::optional<WorkspacePool::Lease> lease;
    std::optional<core::StreamingSession> session;
    std::promise<SessionReport> promise;
  };

  /// The one session body behind every whole-recording intake: lease,
  /// plans, the pipeline (or a chunked replay when `chunk_samples > 0`),
  /// timing and record().
  [[nodiscard]] SessionReport run_one(const sim::Session& session,
                                      std::uint64_t session_id,
                                      std::size_t chunk_samples = 0);
  /// Memoized-or-cached plan lookup for one session (may return null for
  /// pathological sessions; callers fall back to the context-free path).
  [[nodiscard]] std::shared_ptr<const core::PipelineContext> context_for(
      WorkspacePool::WorkerState& state, const sim::Session& session);
  /// The one way a StreamingSession is built (live `open` and the chunked
  /// replay): into `slot`, on `state`'s workspace and plans.
  core::StreamingSession& start_stream(std::optional<core::StreamingSession>& slot,
                                       WorkspacePool::WorkerState& state,
                                       sim::Session meta);
  /// Every finished session, whichever intake it came through, lands here.
  void record(const SessionReport& report);
  [[nodiscard]] std::uint64_t next_id();
  [[nodiscard]] std::future<SessionReport> enqueue(
      std::shared_ptr<const sim::Session> session);
  [[nodiscard]] bool post_refusable(std::function<void()> task);

  /// Queue a drain task unless one is already queued/running. Returns false
  /// when the pool refused the post (engine shutting down). Caller holds
  /// `entry->mutex`.
  bool schedule_drain_locked(const std::shared_ptr<Entry>& entry)
      HE_REQUIRES(entry->mutex);
  void drain(const std::shared_ptr<Entry>& entry) HE_EXCLUDES(entry->mutex);
  void finish_entry(const std::shared_ptr<Entry>& entry)
      HE_EXCLUDES(entry->mutex, sessions_mutex_);
  [[nodiscard]] std::shared_ptr<Entry> find(std::uint64_t id) const
      HE_EXCLUDES(sessions_mutex_);

  const core::PipelineConfig config_;
  const LiveLimits limits_;
  /// Declared before pool_: queued tasks and the pool's own metric handles
  /// reference the registry while the pool drains during destruction.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::Tracer> tracer_;
  Counters counters_;
  std::atomic<std::uint64_t> next_session_id_{0};
  /// Shared immutable plans, sharded by configuration hash. Workers hit
  /// this only when their memoized context does not match the session.
  ContextCache contexts_;
  /// Exclusive per-worker session state (workspace + memoized context),
  /// leased for one session at a time. Declared before pool_ and
  /// sessions_: in-flight sessions return their lease while the pool
  /// drains during destruction, and open live sessions return theirs after.
  WorkspacePool workspaces_;

  /// Live-session map lock; nests OUTSIDE the per-entry locks (evict_idle
  /// walks the map and locks entries inside it) and the workspace/context
  /// locks (open checks out a lease while holding it).
  mutable he::Mutex sessions_mutex_ HE_LOCK_LEVEL(streaming);
  std::map<std::uint64_t, std::shared_ptr<Entry>> sessions_
      HE_GUARDED_BY(sessions_mutex_);
  std::atomic<std::uint64_t> current_tick_{0};
  std::atomic<bool> stopping_{false};

  ThreadPool pool_;  // declared last: workers must die before state above
};

}  // namespace hyperear::runtime
