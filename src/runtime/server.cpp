#include "runtime/server.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "core/pipeline_context.hpp"

namespace hyperear::runtime {

namespace {

constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

/// Request latency buckets (ms): interactive sub-10ms through saturated
/// multi-second queueing.
constexpr double kLatencyMsBounds[] = {1.0,   5.0,    10.0,   25.0,  50.0,
                                       100.0, 250.0,  500.0,  1000.0,
                                       2500.0, 5000.0, 10000.0};

constexpr std::size_t class_index(RequestClass cls) {
  return static_cast<std::size_t>(cls);
}

}  // namespace

const char* to_string(RequestClass cls) {
  switch (cls) {
    case RequestClass::batch: return "batch";
    case RequestClass::streaming: return "streaming";
  }
  return "batch";
}

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::accepted: return "accepted";
    case Admission::shed: return "shed";
    case Admission::closed: return "closed";
  }
  return "closed";
}

const char* to_string(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::completed: return "completed";
    case RequestOutcome::expired: return "expired";
    case RequestOutcome::cancelled: return "cancelled";
  }
  return "cancelled";
}

Server::Server(core::PipelineConfig config, ServerOptions options, EngineObs obs)
    : config_(std::move(config)),
      options_(options),
      registry_(obs.registry != nullptr
                    ? std::move(obs.registry)
                    : std::make_shared<obs::MetricsRegistry>()),
      tracer_(std::move(obs.tracer)) {
  require(options_.shards >= 1, "Server: needs at least one shard");
  require(options_.max_in_flight >= 1, "Server: max_in_flight must be >= 1");
  require(options_.streaming_chunk_samples >= 1,
          "Server: streaming_chunk_samples must be >= 1");
  // The shard engines validate too, but failing before any engine spins up
  // gives the caller one clean error instead of a half-built pool.
  if (std::optional<core::PipelineError> bad = config_.validate()) {
    throw PreconditionError("Server: " + describe(*bad));
  }
  obs::MetricsRegistry& m = *registry_;
  counters_.submitted = m.counter("server.requests_submitted_total");
  counters_.shed = m.counter("server.requests_shed_total");
  counters_.expired = m.counter("server.requests_expired_total");
  counters_.cancelled = m.counter("server.requests_cancelled_total");
  counters_.completed = m.counter("server.requests_completed_total");
  counters_.closed = m.counter("server.submit_closed_total");
  counters_.queue_depth = m.gauge("server.queue_depth");
  counters_.in_flight = m.gauge("server.in_flight");
  for (std::size_t i = 0; i < kRequestClassCount; ++i) {
    const std::string cls = to_string(static_cast<RequestClass>(i));
    counters_.class_submitted[i] =
        m.counter("server.class." + cls + ".submitted_total");
    counters_.class_shed[i] = m.counter("server.class." + cls + ".shed_total");
    counters_.class_completed[i] =
        m.counter("server.class." + cls + ".completed_total");
    counters_.latency_ms[i] =
        m.histogram("server.latency_ms." + cls, kLatencyMsBounds);
  }
  // NOLINTNEXTLINE(hyperear-hotpath) -- one-time construction of the shard pool
  shards_.reserve(options_.shards);
  // NOLINTNEXTLINE(hyperear-hotpath) -- one-time construction of per-shard telemetry handles
  counters_.shard_queue_depth.reserve(options_.shards);
  // NOLINTNEXTLINE(hyperear-hotpath) -- one-time construction of per-shard telemetry handles
  counters_.shard_dispatched.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Engine>(
        config_, options_.threads_per_shard, EngineObs{registry_, tracer_}));
    const std::string shard_prefix = "server.shard." + std::to_string(s);
    counters_.shard_queue_depth.push_back(m.gauge(shard_prefix + ".queue_depth"));
    counters_.shard_dispatched.push_back(
        m.counter(shard_prefix + ".dispatched_total"));
  }
}

Server::~Server() { shutdown(); }

const ClassPolicy& Server::policy(RequestClass cls) const {
  return cls == RequestClass::streaming ? options_.streaming_policy
                                        : options_.batch_policy;
}

std::size_t Server::shard_for(const sim::Session& session) const {
  const std::uint64_t hash = core::plan_key_hash(config_.asp, session.prior.chirp,
                                                 session.audio.sample_rate);
  return static_cast<std::size_t>(hash % shards_.size());
}

Server::Resolution Server::resolution_for(PendingRequest&& req,
                                          RequestOutcome outcome) {
  Resolution res;
  res.response.outcome = outcome;
  res.response.cls = req.cls;
  res.response.id = req.id;
  res.response.latency_ms = obs::ms_since(req.submitted_at);
  res.promise = std::move(req.promise);
  res.span = std::move(req.span);
  return res;
}

void Server::resolve(std::vector<Resolution>& resolutions) {
  for (Resolution& res : resolutions) {
    res.span.finish();
    res.promise.set_value(std::move(res.response));
  }
  resolutions.clear();
}

SubmitResult Server::submit(sim::Session session, RequestClass cls) {
  const std::size_t ci = class_index(cls);
  PendingRequest req;
  req.session = std::make_shared<const sim::Session>(std::move(session));
  req.cls = cls;
  req.shard = shard_for(*req.session);
  req.submitted_at = obs::monotonic_now();
  const std::uint64_t deadline = policy(cls).deadline_ticks;
  req.deadline_tick =
      deadline == 0 ? kNoDeadline
                    : tick_.load(std::memory_order_relaxed) + deadline;

  SubmitResult result;
  // NOLINTNEXTLINE(hyperear-hotpath) -- per-request control-plane staging (promise resolution outside the lock), not per-sample DSP
  std::vector<Resolution> resolved;
  {
    const he::MutexLock lock(mutex_);
    if (stopping_) {
      ++stats_.closed;
      counters_.closed.inc();
      result.admission = Admission::closed;
      return result;
    }
    result.id = ++next_request_id_;
    req.id = result.id;
    ++stats_.submitted;
    ++stats_.submitted_by_class[ci];
    counters_.submitted.inc();
    counters_.class_submitted[ci].inc();
    // Shed-by-value boundary: a request needs either a free dispatch slot
    // (automatic mode, queue empty — it would dispatch right now) or a
    // queue slot. In automatic mode a non-empty queue implies no slot is
    // free (pump_locked drains eagerly), so checking the queue bound alone
    // is exact; the slot_free clause keeps max_queued == 0 admitting work.
    const bool slot_free = !options_.manual_dispatch && pending_.empty() &&
                           in_flight_ < options_.max_in_flight;
    if (!slot_free && pending_.size() >= options_.max_queued) {
      ++stats_.shed;
      ++stats_.shed_by_class[ci];
      counters_.shed.inc();
      counters_.class_shed[ci].inc();
      result.admission = Admission::shed;
      return result;
    }
    if (tracer_ != nullptr) {
      req.span = obs::TraceSpan(tracer_.get(), "server.request", req.id);
    }
    result.response = req.promise.get_future();
    result.admission = Admission::accepted;
    counters_.shard_queue_depth[req.shard].add(1.0);
    pending_.push_back(std::move(req));
    counters_.queue_depth.add(1.0);
    stats_.peak_queued = std::max(stats_.peak_queued, pending_.size());
    if (!options_.manual_dispatch) pump_locked(resolved);
  }
  resolve(resolved);
  return result;
}

void Server::tick() {
  tick_.fetch_add(1, std::memory_order_relaxed);
  if (options_.manual_dispatch) return;
  (void)pump();
}

std::uint64_t Server::current_tick() const {
  return tick_.load(std::memory_order_relaxed);
}

std::size_t Server::pump_locked(std::vector<Resolution>& resolved) {
  std::size_t dispatched = 0;
  const std::uint64_t now = tick_.load(std::memory_order_relaxed);
  while (in_flight_ < options_.max_in_flight && !pending_.empty()) {
    PendingRequest req = std::move(pending_.front());
    pending_.pop_front();
    counters_.queue_depth.add(-1.0);
    counters_.shard_queue_depth[req.shard].add(-1.0);
    const std::size_t ci = class_index(req.cls);
    // Deadline check happens HERE, at the dispatch decision — an expired
    // request never reaches an engine, it resolves by value instead.
    if (req.deadline_tick < now) {
      ++stats_.expired;
      ++stats_.expired_by_class[ci];
      counters_.expired.inc();
      resolved.push_back(resolution_for(std::move(req), RequestOutcome::expired));
      continue;
    }
    auto rec = std::make_shared<InFlight>();
    rec->cls = req.cls;
    rec->id = req.id;
    rec->shard = req.shard;
    rec->submitted_at = req.submitted_at;
    rec->promise = std::move(req.promise);
    rec->span = std::move(req.span);
    ++in_flight_;
    counters_.in_flight.add(1.0);
    stats_.peak_in_flight = std::max(stats_.peak_in_flight, in_flight_);
    Engine& engine = *shards_[rec->shard];
    const auto done = [this, rec](SessionReport&& report) {
      complete(rec, std::move(report));
    };
    // Dispatch under the server lock: admission order IS dispatch order
    // (FIFO determinism), and the lock order server -> engine-pool never
    // inverts (engine completion callbacks take the server lock only
    // AFTER the pool lock is released).
    const bool accepted = engine.try_submit(
        std::move(req.session), done, rec->id,
        req.cls == RequestClass::streaming ? options_.streaming_chunk_samples : 0);
    if (!accepted) {
      // The shard was shut down out from under us (chaos/fault path). The
      // request is cancelled by value — its future still resolves.
      --in_flight_;
      counters_.in_flight.add(-1.0);
      ++stats_.cancelled;
      ++stats_.cancelled_by_class[ci];
      counters_.cancelled.inc();
      Resolution res;
      res.response.outcome = RequestOutcome::cancelled;
      res.response.cls = rec->cls;
      res.response.id = rec->id;
      res.response.shard = rec->shard;
      res.response.latency_ms = obs::ms_since(rec->submitted_at);
      res.promise = std::move(rec->promise);
      res.span = std::move(rec->span);
      resolved.push_back(std::move(res));
      continue;
    }
    counters_.shard_dispatched[rec->shard].inc();
    ++dispatched;
  }
  return dispatched;
}

std::size_t Server::pump() {
  // NOLINTNEXTLINE(hyperear-hotpath) -- per-request control-plane staging (promise resolution outside the lock), not per-sample DSP
  std::vector<Resolution> resolved;
  std::size_t dispatched = 0;
  {
    const he::MutexLock lock(mutex_);
    if (!stopping_) dispatched = pump_locked(resolved);
  }
  resolve(resolved);
  return dispatched;
}

void Server::complete(const std::shared_ptr<InFlight>& rec,
                      SessionReport&& report) {
  const std::size_t ci = class_index(rec->cls);
  Resolution res;
  res.response.outcome = RequestOutcome::completed;
  res.response.cls = rec->cls;
  res.response.id = rec->id;
  res.response.shard = rec->shard;
  res.response.latency_ms = obs::ms_since(rec->submitted_at);
  res.response.report = std::move(report);
  res.promise = std::move(rec->promise);
  res.span = std::move(rec->span);
  // NOLINTNEXTLINE(hyperear-hotpath) -- per-request control-plane staging (promise resolution outside the lock), not per-sample DSP
  std::vector<Resolution> resolved;
  {
    const he::MutexLock lock(mutex_);
    HE_EXPECTS(in_flight_ > 0);
    --in_flight_;
    counters_.in_flight.add(-1.0);
    ++stats_.completed;
    ++stats_.completed_by_class[ci];
    counters_.completed.inc();
    counters_.class_completed[ci].inc();
    counters_.latency_ms[ci].observe(res.response.latency_ms);
    if (!options_.manual_dispatch && !stopping_) pump_locked(resolved);
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  res.span.finish();
  res.promise.set_value(std::move(res.response));
  resolve(resolved);
}

void Server::drain() {
  for (;;) {
    (void)pump();
    he::MutexLock lock(mutex_);
    if (stopping_ || (pending_.empty() && in_flight_ == 0)) return;
    while (in_flight_ != 0 && !stopping_) idle_cv_.wait(lock);
    // in_flight_ hit zero with requests still queued (manual mode, or a
    // completion raced our pump) — loop and pump again; every iteration
    // either dispatches, expires, or cancels at least one queued request,
    // so this terminates.
  }
}

void Server::shutdown() {
  // NOLINTNEXTLINE(hyperear-hotpath) -- shutdown control plane: one-time cancellation staging, not per-session steady state
  std::vector<Resolution> resolved;
  {
    const he::MutexLock lock(mutex_);
    if (!stopping_) {
      stopping_ = true;
      while (!pending_.empty()) {
        PendingRequest req = std::move(pending_.front());
        pending_.pop_front();
        counters_.queue_depth.add(-1.0);
        counters_.shard_queue_depth[req.shard].add(-1.0);
        const std::size_t ci = class_index(req.cls);
        ++stats_.cancelled;
        ++stats_.cancelled_by_class[ci];
        counters_.cancelled.inc();
        resolved.push_back(
            resolution_for(std::move(req), RequestOutcome::cancelled));
      }
    }
  }
  resolve(resolved);
  {
    he::MutexLock lock(mutex_);
    while (in_flight_ != 0) idle_cv_.wait(lock);
  }
  // In-flight work has resolved; now the shard pools can drain and join.
  for (const std::unique_ptr<Engine>& shard : shards_) shard->shutdown();
}

ServerStats Server::stats() const {
  const he::MutexLock lock(mutex_);
  ServerStats s = stats_;
  s.queued = pending_.size();
  s.in_flight = in_flight_;
  return s;
}

}  // namespace hyperear::runtime
