#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/context_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/workspace_pool.hpp"
#include "sim/scenario.hpp"

/// @file engine.hpp
/// The batch-localization engine: runs the full ASP -> MSP -> TTL/PLE
/// pipeline over many independent sessions concurrently on an internal
/// thread pool. Every per-session failure is captured as a value
/// (`SessionReport`), never as an exception escaping a worker — one
/// corrupt session cannot poison a batch. Results are deterministic:
/// sessions are pure functions of their inputs, so a report is
/// bit-identical no matter which worker produced it or how many workers
/// exist (bench_engine_throughput asserts this).
///
/// Scaling model (DESIGN.md §8): sessions are the unit of parallelism.
/// Each worker leases exclusive per-worker state (workspace + memoized
/// context pointer) for the duration of a session and runs the canonical
/// `core::try_localize` against read-only shared plans, so the steady
/// state crosses no per-session lock and performs (nearly) no heap
/// allocation; throughput scales with workers because workers share
/// nothing mutable. Within a session, the ASP stage's (channel,
/// detector-chunk) tasks fan out over workers that would otherwise sit
/// idle (runtime/fan_out.hpp), each on its own per-worker chunk scratch;
/// at saturation no worker is idle and the session runs on its own worker
/// alone. Results are byte-identical either way.

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
  double wall_ms = 0.0;             ///< end-to-end time on the worker
};

/// Aggregate counters across every session the engine has completed — a
/// point-in-time VIEW over the engine's metrics registry (the `engine.*`
/// series), kept bit-compatible with the pre-registry struct so existing
/// callers keep working. Snapshot via BatchEngine::stats(); scrape the
/// full registry (including pipeline/detector/pool series this view
/// doesn't carry) via BatchEngine::metrics().
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

/// Observability wiring for a BatchEngine. Both members optional:
/// `registry` null means the engine builds a private registry (its stats()
/// view and exports still work — the engine is never blind); `tracer` null
/// means per-stage spans are not recorded (the usual production setting —
/// spans cost a mutexed allocation per stage, counters don't).
struct EngineObs {
  std::shared_ptr<obs::MetricsRegistry> registry;
  std::shared_ptr<obs::Tracer> tracer;
};

/// Concurrent batch localizer. Construction validates the config (throws
/// PreconditionError on a violation — a misconfigured engine is a
/// programming error, unlike a corrupt session, which is data) and spins
/// up the pool; the config is immutable for the engine's lifetime.
///
/// The engine owns a sharded cache of immutable `core::PipelineContext`s
/// (runtime/context_cache.hpp) — the DSP plans (band-pass taps, chirp
/// reference, matched-filter spectra, FFT tables) shared read-only by
/// every worker — so plans are built once per (chirp, sample-rate)
/// combination instead of once per session, and a pool of per-worker
/// `core::SessionWorkspace`s (runtime/workspace_pool.hpp) so scratch is
/// allocated once per worker instead of once per session. Results are
/// bit-identical to context-free `core::try_localize` calls; only the
/// redundant plan construction and allocator traffic go away.
///
/// Telemetry: every session updates the `engine.*`, `pipeline.*`,
/// `detector.*`, and `engine.pool.*` series on the registry (supplied or
/// private — see EngineObs). `stats()` is the legacy fixed-field view;
/// `metrics().to_json()` / `.to_prometheus()` are the export path.
class BatchEngine {
 public:
  /// `threads == 0` means hardware_concurrency (min 1).
  explicit BatchEngine(core::PipelineConfig config = {}, std::size_t threads = 0,
                       EngineObs obs = {});

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
  /// stage spans share one id.
  [[nodiscard]] bool try_submit(std::shared_ptr<const sim::Session> session,
                                std::function<void(SessionReport&&)> done,
                                std::uint64_t session_id = 0);

  /// Streaming-class intake: same contract as try_submit, but the worker
  /// ingests the session's audio through core::StreamingSession in
  /// `chunk_samples`-sample slices before solving, exercising the
  /// incremental path end to end. The report is bit-identical to
  /// try_submit on the same session (the streaming guarantee: chunking is
  /// representation, not information); only the ingest spelling differs.
  [[nodiscard]] bool try_submit_streamed(
      std::shared_ptr<const sim::Session> session, std::size_t chunk_samples,
      std::function<void(SessionReport&&)> done, std::uint64_t session_id = 0);

  /// Run a whole batch and block until every session is done. Reports come
  /// back in input order regardless of completion order. Sessions are
  /// processed in place (no copies — the span outlives the call by
  /// construction).
  [[nodiscard]] std::vector<SessionReport> localize_all(
      std::span<const sim::Session> sessions);

  /// Stop accepting new sessions; everything already submitted still runs
  /// to completion and outstanding futures still resolve. Idempotent. The
  /// destructor implies it.
  void shutdown();

  [[nodiscard]] EngineStats stats() const;
  /// The registry every series lands on (supplied or engine-private).
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *registry_; }
  /// Null unless a tracer was supplied at construction.
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] std::size_t thread_count() const { return pool_.size(); }
  [[nodiscard]] const core::PipelineConfig& config() const { return config_; }

 private:
  /// Handles into the registry for the `engine.*` series backing stats().
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
  };

  [[nodiscard]] SessionReport run_one(const sim::Session& session,
                                      std::uint64_t session_id);
  [[nodiscard]] SessionReport run_one_streamed(const sim::Session& session,
                                               std::size_t chunk_samples,
                                               std::uint64_t session_id);
  /// Memoized-or-cached plan lookup for one session (may return null for
  /// pathological sessions; callers fall back to the context-free path).
  [[nodiscard]] std::shared_ptr<const core::PipelineContext> context_for(
      WorkspacePool::WorkerState& state, const sim::Session& session);
  void record(const SessionReport& report);
  [[nodiscard]] std::future<SessionReport> enqueue(
      std::shared_ptr<const sim::Session> session);
  [[nodiscard]] bool post_refusable(std::function<void()> task);

  const core::PipelineConfig config_;
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
  /// leased for one session at a time. Declared before pool_: in-flight
  /// sessions return their lease while the pool drains during destruction.
  WorkspacePool workspaces_;
  ThreadPool pool_;  // declared last: workers must die before state above
};

}  // namespace hyperear::runtime
