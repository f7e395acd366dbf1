#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/pipeline.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

/// @file server.hpp
/// The serving layer: a bounded admission queue with per-class deadlines
/// over a sharded pool of Engines. This is the first surface in the
/// repo where a request has a LIFECYCLE — submitted, queued, dispatched,
/// and resolved exactly once as completed / shed / expired / cancelled —
/// instead of a future that always resolves with a report.
///
/// Admission control is shed-by-value: when the in-flight cap and the
/// bounded queue are both full, submit() answers `Admission::shed`
/// immediately rather than queueing without bound (bounded queue depth is
/// what keeps p99 latency bounded past saturation — perfbench's
/// `serve_open` workload measures it). Per-class deadlines run on a
/// LOGICAL tick clock (`tick()`), not wall time, so deadline behavior is a
/// deterministic function of the request/tick stream; a queued request
/// whose deadline has passed is cancelled at dispatch time (`expired`),
/// never handed to an engine.
///
/// Sharding: requests land on `plan_key_hash(asp, chirp, sample_rate) %
/// shards`, so every request of one DSP-plan configuration hits the shard
/// whose workers have that plan hot in their memoized worker state —
/// shards trade load balance for cache affinity (DESIGN.md §13).
///
/// Telemetry: `server.*` counters (submitted/shed/expired/cancelled/
/// completed), queue-depth and in-flight gauges, per-shard load series
/// (`server.shard.<i>.queue_depth` / `.dispatched_total` — the numbers
/// that quantify plan-affinity skew), per-class latency histograms, and
/// a root `server.request` trace span per accepted request whose session
/// id is shared with the pipeline's stage spans.
///
/// Locking: `mutex_` is the single server lock, at the TOP (`server`)
/// level of the lock hierarchy (DESIGN.md §14) — pump_locked posts into
/// shard pools while holding it, so pool-level locks nest inside it,
/// never the reverse. Promises are resolved strictly OUTSIDE the lock.

namespace hyperear::runtime {

/// How a request wants its audio ingested. `batch` hands the engine the
/// whole recording; `streaming` replays it through core::StreamingSession
/// in fixed-size chunks (bit-identical result, different code path).
enum class RequestClass : std::uint8_t { batch = 0, streaming = 1 };
inline constexpr std::size_t kRequestClassCount = 2;

/// submit()'s immediate answer.
enum class Admission : std::uint8_t {
  accepted,  ///< queued (or dispatched); the response future will resolve
  shed,      ///< bounded queue full — dropped by value, no future
  closed,    ///< server shutting down — dropped by value, no future
};

/// How an accepted request's lifecycle ended.
enum class RequestOutcome : std::uint8_t {
  completed,  ///< an engine ran it; `report` is meaningful
  expired,    ///< deadline passed while queued; cancelled before dispatch
  cancelled,  ///< server shutdown drained it, or its shard refused it
};

[[nodiscard]] const char* to_string(RequestClass cls);
[[nodiscard]] const char* to_string(Admission admission);
[[nodiscard]] const char* to_string(RequestOutcome outcome);

/// Terminal value of one accepted request.
struct Response {
  RequestOutcome outcome = RequestOutcome::cancelled;
  RequestClass cls = RequestClass::batch;
  std::uint64_t id = 0;          ///< server-assigned request id (1-based)
  std::size_t shard = 0;         ///< shard it dispatched to (completed only)
  double latency_ms = 0.0;       ///< submit-to-resolution wall time
  SessionReport report;          ///< meaningful iff outcome == completed
};

/// Per-class admission policy. `deadline_ticks == 0` means no deadline.
/// A request submitted at tick T with deadline D is dispatchable through
/// tick T+D and expires at T+D+1.
struct ClassPolicy {
  std::uint64_t deadline_ticks = 0;
};

struct ServerOptions {
  std::size_t shards = 1;             ///< Engines (>= 1)
  std::size_t threads_per_shard = 1;  ///< 0 = hardware_concurrency
  /// Dispatch concurrency cap across all shards: requests handed to
  /// engines but not yet resolved. The admission boundary.
  std::size_t max_in_flight = 4;
  /// Bounded wait queue; a submit that finds it full is shed. 0 is legal
  /// (admit only what can dispatch immediately).
  std::size_t max_queued = 16;
  ClassPolicy batch_policy;
  ClassPolicy streaming_policy;
  /// Slice size for streaming-class ingest (samples per channel).
  std::size_t streaming_chunk_samples = 4096;
  /// When true the server NEVER dispatches on its own — only explicit
  /// pump()/drain() calls move queued requests to engines. Admission and
  /// outcome then depend only on the submit/tick/pump sequence, not on
  /// completion timing: the spelling for determinism tests and replay.
  bool manual_dispatch = false;
};

/// submit()'s return: the admission verdict, the request id, and (iff
/// accepted) a future for the terminal Response.
struct SubmitResult {
  Admission admission = Admission::closed;
  std::uint64_t id = 0;
  std::future<Response> response;  ///< valid iff admission == accepted
};

/// Point-in-time request-lifecycle accounting. Totals and instantaneous
/// levels are read under one lock, so the conservation law holds exactly
/// on every snapshot:
///   submitted == completed + shed + expired + cancelled + queued + in_flight
struct ServerStats {
  std::size_t submitted = 0;  ///< all submits except `closed` ones
  std::size_t shed = 0;
  std::size_t expired = 0;
  std::size_t cancelled = 0;
  std::size_t completed = 0;
  std::size_t closed = 0;    ///< submits refused because of shutdown
  std::size_t queued = 0;    ///< instantaneous
  std::size_t in_flight = 0; ///< instantaneous
  std::size_t peak_queued = 0;
  std::size_t peak_in_flight = 0;
  std::array<std::size_t, kRequestClassCount> submitted_by_class{};
  std::array<std::size_t, kRequestClassCount> shed_by_class{};
  std::array<std::size_t, kRequestClassCount> expired_by_class{};
  std::array<std::size_t, kRequestClassCount> cancelled_by_class{};
  std::array<std::size_t, kRequestClassCount> completed_by_class{};
};

/// The serving layer. Thread-safe: submit/tick/pump/stats/shutdown may be
/// called from any number of threads; engine completions re-enter through
/// an internal callback. Every accepted request's future resolves exactly
/// once — shutdown cancels the queue and waits out the in-flight set, and
/// a shard that refuses a dispatch (it was shut down mid-flight) resolves
/// the request as `cancelled` instead of losing it.
class Server {
 public:
  /// Validates config and options (throws PreconditionError — a
  /// misconfigured server is a programming error) and builds the shard
  /// engines. All shards share one registry (supplied or private), so
  /// `engine.*` series aggregate across shards.
  explicit Server(core::PipelineConfig config = {}, ServerOptions options = {},
                  EngineObs obs = {});
  /// Implies shutdown().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit-or-shed one request. Never blocks on engine work: the decision
  /// is made against the queue/in-flight levels under the server lock.
  [[nodiscard]] SubmitResult submit(sim::Session session,
                                    RequestClass cls = RequestClass::batch)
      HE_EXCLUDES(mutex_);

  /// Advance the logical deadline clock by one tick (and, in automatic
  /// mode, give queued requests a dispatch opportunity).
  void tick() HE_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t current_tick() const;

  /// Move queued requests to engines while in-flight capacity allows,
  /// expiring past-deadline ones. Returns the number dispatched. No-op
  /// after shutdown began. Automatic mode calls this internally on every
  /// submit and completion; manual mode relies on explicit calls.
  std::size_t pump() HE_EXCLUDES(mutex_);

  /// Block until the queue is empty and nothing is in flight, pumping as
  /// needed (works in both dispatch modes). Returns early if shutdown
  /// begins concurrently.
  void drain() HE_EXCLUDES(mutex_);

  /// Stop admission, cancel everything still queued (their futures
  /// resolve with `cancelled`), wait for in-flight requests to resolve,
  /// then shut the shard engines down. Idempotent; safe concurrently.
  void shutdown() HE_EXCLUDES(mutex_);

  [[nodiscard]] ServerStats stats() const HE_EXCLUDES(mutex_);
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *registry_; }
  [[nodiscard]] obs::Tracer* tracer() const { return tracer_.get(); }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Direct shard access (tests/chaos injection — e.g. shutting one down
  /// mid-flight).
  [[nodiscard]] Engine& shard(std::size_t index) { return *shards_[index]; }
  /// Which shard a session's configuration maps to.
  [[nodiscard]] std::size_t shard_for(const sim::Session& session) const;
  [[nodiscard]] const core::PipelineConfig& config() const { return config_; }
  [[nodiscard]] const ServerOptions& options() const { return options_; }

 private:
  /// One admitted-but-undispatched request.
  struct PendingRequest {
    std::shared_ptr<const sim::Session> session;
    RequestClass cls = RequestClass::batch;
    std::uint64_t id = 0;
    std::uint64_t deadline_tick = 0;  ///< kNoDeadline when policy is 0
    /// Target shard, fixed at admission (shard_for is a pure function of
    /// the session) so the per-shard queue-depth gauges can move at
    /// enqueue time, not dispatch time.
    std::size_t shard = 0;
    obs::MonotonicTime submitted_at{};
    std::promise<Response> promise;
    obs::TraceSpan span;
  };

  /// One dispatched request, shared with the engine's completion callback
  /// (shared_ptr because std::function requires copyable captures and the
  /// promise is move-only).
  struct InFlight {
    RequestClass cls = RequestClass::batch;
    std::uint64_t id = 0;
    std::size_t shard = 0;
    obs::MonotonicTime submitted_at{};
    std::promise<Response> promise;
    obs::TraceSpan span;
  };

  /// A promise ready to resolve — built under the lock, resolved outside
  /// it (set_value runs arbitrary continuation-waker code; holding the
  /// server lock across it invites lock-order trouble).
  struct Resolution {
    std::promise<Response> promise;
    Response response;
    obs::TraceSpan span;
  };

  /// Registry handles for the `server.*` series backing stats().
  struct Counters {
    obs::Counter submitted;   ///< server.requests_submitted_total
    obs::Counter shed;        ///< server.requests_shed_total
    obs::Counter expired;     ///< server.requests_expired_total
    obs::Counter cancelled;   ///< server.requests_cancelled_total
    obs::Counter completed;   ///< server.requests_completed_total
    obs::Counter closed;      ///< server.submit_closed_total
    obs::Gauge queue_depth;   ///< server.queue_depth
    obs::Gauge in_flight;     ///< server.in_flight
    /// server.class.<cls>.{submitted,shed,completed}_total
    std::array<obs::Counter, kRequestClassCount> class_submitted;
    std::array<obs::Counter, kRequestClassCount> class_shed;
    std::array<obs::Counter, kRequestClassCount> class_completed;
    /// server.latency_ms.<cls> — completed requests only
    std::array<obs::Histogram, kRequestClassCount> latency_ms;
    /// Per-shard load series quantifying plan-affinity skew:
    /// server.shard.<i>.queue_depth — admitted-not-yet-dispatched requests
    /// bound for shard i (moves under mutex_, like server.queue_depth);
    /// server.shard.<i>.dispatched_total — requests handed to shard i's
    /// engine (expired/cancelled requests never count).
    std::vector<obs::Gauge> shard_queue_depth;
    std::vector<obs::Counter> shard_dispatched;
  };

  [[nodiscard]] const ClassPolicy& policy(RequestClass cls) const;
  /// Dispatch loop; requires mutex_ held. Appends expired/refused
  /// requests to `resolved` for resolution after unlock.
  std::size_t pump_locked(std::vector<Resolution>& resolved)
      HE_REQUIRES(mutex_);
  /// Engine completion re-entry (runs on a shard worker thread).
  void complete(const std::shared_ptr<InFlight>& rec, SessionReport&& report)
      HE_EXCLUDES(mutex_);
  static void resolve(std::vector<Resolution>& resolutions);
  [[nodiscard]] static Resolution resolution_for(PendingRequest&& req,
                                                 RequestOutcome outcome);

  const core::PipelineConfig config_;
  const ServerOptions options_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::Tracer> tracer_;
  Counters counters_;
  std::vector<std::unique_ptr<Engine>> shards_;

  std::atomic<std::uint64_t> tick_{0};
  mutable he::Mutex mutex_ HE_LOCK_LEVEL(server);
  /// Signalled when in_flight_ reaches zero (drain/shutdown wait on it).
  he::CondVar idle_cv_;
  std::deque<PendingRequest> pending_ HE_GUARDED_BY(mutex_);
  std::size_t in_flight_ HE_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_request_id_ HE_GUARDED_BY(mutex_) = 0;
  bool stopping_ HE_GUARDED_BY(mutex_) = false;
  /// Exact lifecycle accounting, guarded by mutex_ (the registry counters
  /// mirror these for scraping but are sampled without the lock).
  ServerStats stats_ HE_GUARDED_BY(mutex_);
};

}  // namespace hyperear::runtime
