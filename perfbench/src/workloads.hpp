#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline_context.hpp"
#include "obs/trace.hpp"
#include "pool.hpp"
#include "runtime/server.hpp"
#include "stats.hpp"

/// @file workloads.hpp
/// The three workloads, each split into an untimed set-up (the system the
/// workload drives, warmed with one request per plan) and a timed phase
/// that collects raw samples. Metrics are computed from the samples in
/// report.cpp; nothing here formats output.

namespace perfbench {

namespace runtime = hyperear::runtime;
namespace obs = hyperear::obs;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Process user+sys CPU seconds so far.
[[nodiscard]] double process_cpu_s();

/// Spans kept in memory for the traced run and written out when it ends.
/// The benchmark records its own spans around calls into each layer; the
/// library's spans (server.request, session, asp, msp, ttl, ple) are
/// imported from an obs::Tracer and hung under the benchmark span of the
/// same session.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  void add(const char* name, std::uint64_t session, Clock::time_point start,
           Clock::time_point end);
  /// Import every span of `tracer` (created at `tracer_epoch`). A root
  /// library span is parented under the span of the same session named
  /// by the first of `parents` that exists (looked up among this log's
  /// spans and the imported ones).
  void import(const obs::Tracer& tracer, Clock::time_point tracer_epoch);

  [[nodiscard]] std::vector<Span> spans() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Raw samples of one timed phase.
struct PhaseSamples {
  Tally tally;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t alloc_bytes = 0;

  // End to end.
  std::vector<double> fix_latency_ms;   ///< due (or send) time -> fix
  std::vector<double> push_latency_ms;  ///< stream_live: due time -> return of push
  /// Accuracy, per distinct pool session completed: every served fix
  /// equals its session's reference bit for bit, so repeats of a session
  /// carry no new accuracy information. Value: floor-map error in cm, or
  /// a negative number for a completed session without a valid fix.
  std::map<std::size_t, double> error_cm_by_entry;

  // Pipeline stages of completed sessions (SessionReport.metrics).
  std::vector<double> asp_ms, msp_ms, ttl_ms, ple_ms;
  double asp_ms_total = 0.0;
  double asp_samples_total = 0.0;  ///< per-channel samples those ASP runs covered
  std::size_t staged = 0, chirps = 0, sfo_estimated = 0;
  std::size_t slides_segmented = 0, slides_accepted = 0;

  // runtime.server / runtime.engine (request workloads).
  std::vector<double> submit_us, queue_wait_ms, service_ms, overhead_ms;

  // Open-loop generator health: how late each operation was started.
  std::vector<double> lateness_ms;

  // core.streaming_session (stream_live).
  std::vector<double> push_call_ms, finalize_ms, event_lag_ms;
  std::size_t pushes = 0, detect_pushes = 0, peak_retained_samples = 0;

  void merge(const PhaseSamples& other);
};

struct PhaseOptions {
  double seconds = 10.0;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  SpanLog* spans = nullptr;  ///< non-null: traced phase
};

/// The system a workload drives, built and warmed by `setup`.
struct System {
  std::unique_ptr<runtime::Server> server;                    ///< request workloads
  std::shared_ptr<obs::Tracer> tracer;                        ///< the server's, if traced
  Clock::time_point tracer_epoch{};
  std::shared_ptr<const hyperear::core::PipelineContext> context;  ///< stream_live
};

/// Build the workload's system and run one warm-up request per plan.
/// `traced` wires an obs::Tracer into the server (EngineObs).
[[nodiscard]] System setup(const std::string& workload, const Pool& pool,
                           std::size_t threads, bool traced);

[[nodiscard]] PhaseSamples run_batch_closed(const Pool& pool, runtime::Server& server,
                                            const PhaseOptions& opt);
[[nodiscard]] PhaseSamples run_serve_open(const Pool& pool, runtime::Server& server,
                                          const PhaseOptions& opt);
[[nodiscard]] PhaseSamples run_stream_live(
    const Pool& pool, const std::shared_ptr<const hyperear::core::PipelineContext>& context,
    const PhaseOptions& opt);

/// Offered load of serve_open, fixed in absolute terms (never derived from
/// measured capacity): about 55% of what 4 Xeon cores complete of this mix
/// (~15 sessions/s at 260 ms per session under 4-way load).
inline constexpr double kServeOpenRate = 8.0;
/// Share of serve_open requests sent as the streaming class.
inline constexpr double kServeOpenStreamingShare = 0.3;
/// Live phones open at once in stream_live.
inline constexpr std::size_t kLiveSessions = 48;
/// stream_live push cadence: 100 ms of audio per push.
inline constexpr double kPushSeconds = 0.1;

}  // namespace perfbench
