/// Batch-engine throughput: sessions/sec of the full ASP -> MSP -> TTL
/// pipeline at 1, 2, 4, 8 and hardware-concurrency worker threads over one
/// shared pool of pre-rendered sessions. Sessions are independent pure
/// functions of their inputs, so the engine must deliver (a) near-linear
/// scaling on multi-core hardware and (b) bit-identical per-session
/// results at every thread count — both are checked and printed.
///
/// The first row ("no-ctx") runs the pipeline serially WITHOUT the shared
/// PipelineContext, rebuilding every DSP plan (chirp reference, reference
/// FFT spectrum, and the probe-only band-pass convolver a context still
/// carries though ASP runs no band-pass) per session — the cost the
/// engine's plan cache removes. Engine rows must match it bit-for-bit.
///
/// The "engine-steady-state" row re-runs the whole batch on an engine that
/// already served it once, so every worker holds a warm SessionWorkspace:
/// its bytes_allocated column is the engine's true per-session allocator
/// traffic after warm-up (the cold rows above pay the one-time buffer
/// growth), and its results must also match the baseline bit-for-bit.
///
/// The "engine_single_session" rows submit one session at a time to an
/// idle engine (after one warm-up session) at 1 and at hardware-concurrency
/// threads: ns_per_op is the wall time per session, i.e. request latency
/// with an empty queue, where the other workers help with the session's
/// ASP chunk tasks. Results must match the baseline bit-for-bit.
///
/// HYPEREAR_TRIALS scales the batch size (default 8 sessions).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

HYPEREAR_DEFINE_ALLOC_COUNTER()

namespace {

using namespace hyperear;
using Clock = std::chrono::steady_clock;

std::vector<sim::Session> make_batch(std::size_t count) {
  sim::ScenarioConfig c;
  c.speaker_distance = 5.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::hand_jitter();
  std::vector<sim::Session> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Rng rng(4200 + i * 17);
    sessions.push_back(sim::make_localization_session(c, rng));
  }
  return sessions;
}

bool identical(const core::LocalizationResult& a, const core::LocalizationResult& b) {
  return a.valid == b.valid && a.slides_used == b.slides_used &&
         a.estimated_position.x == b.estimated_position.x &&
         a.estimated_position.y == b.estimated_position.y && a.range == b.range &&
         a.estimated_period == b.estimated_period && a.sfo_ppm == b.sfo_ppm;
}

}  // namespace

int main() {
  const std::size_t n_sessions = static_cast<std::size_t>(bench::trials(8));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("=== Batch-engine throughput (%zu sessions, %u hardware threads) ===\n",
              n_sessions, hw);
  std::printf("rendering %zu sessions...\n", n_sessions);
  const std::vector<sim::Session> sessions = make_batch(n_sessions);

  std::set<std::size_t> counts = {1, 2, 4, 8, hw};
  std::vector<runtime::SessionReport> baseline;
  double baseline_rate = 0.0;
  bool all_identical = true;
  std::vector<bench::BenchRow> rows;
  const auto push_row = [&rows, n_sessions](const std::string& variant, double seconds,
                                            std::size_t bytes) {
    bench::BenchRow row;
    row.op = "engine_localize_all";
    row.variant = variant;
    row.n = n_sessions;
    row.ns_per_op = seconds * 1e9 / static_cast<double>(n_sessions);
    row.bytes_allocated = bytes / n_sessions;
    rows.push_back(row);
  };

  std::printf("%8s %10s %12s %9s %6s %13s\n", "threads", "wall s", "sessions/s",
              "speedup", "ok", "identical");
  {
    // Per-session plan construction (the pre-PipelineContext behaviour):
    // serial try_localize with no shared context.
    const std::size_t bytes0 = bench::allocated_bytes();
    const Clock::time_point t0 = Clock::now();
    std::size_t ok = 0;
    baseline.resize(n_sessions);
    for (std::size_t i = 0; i < n_sessions; ++i) {
      auto outcome = core::try_localize(sessions[i], {}, &baseline[i].metrics);
      if (outcome.has_value()) {
        baseline[i].result = *std::move(outcome);
        baseline[i].status = baseline[i].result.valid
                                 ? runtime::SessionStatus::ok
                                 : runtime::SessionStatus::no_solution;
      }
      if (baseline[i].status == runtime::SessionStatus::ok) ++ok;
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    baseline_rate = static_cast<double>(n_sessions) / seconds;
    std::printf("%8s %10.2f %12.2f %8.2fx %6zu %13s\n", "no-ctx", seconds,
                baseline_rate, 1.0, ok, "(ref)");
    push_row("no-ctx-serial", seconds, bench::allocated_bytes() - bytes0);
  }

  for (const std::size_t threads : counts) {
    runtime::Engine engine({}, threads);
    const std::size_t bytes0 = bench::allocated_bytes();
    const Clock::time_point t0 = Clock::now();
    const std::vector<runtime::SessionReport> reports = engine.localize_all(sessions);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    const double rate = static_cast<double>(n_sessions) / seconds;
    push_row("engine-threads-" + std::to_string(threads), seconds,
             bench::allocated_bytes() - bytes0);

    std::size_t ok = 0;
    for (const runtime::SessionReport& r : reports) {
      if (r.status == runtime::SessionStatus::ok) ++ok;
    }
    bool same = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      same = same && identical(reports[i].result, baseline[i].result);
    }
    all_identical = all_identical && same;
    std::printf("%8zu %10.2f %12.2f %8.2fx %6zu %13s\n", threads, seconds, rate,
                rate / baseline_rate, ok, same ? "yes" : "MISMATCH");
  }

  {
    // Steady-state allocator traffic: batch 1 warms every worker's leased
    // SessionWorkspace (and the sharded plan cache); batch 2 on the SAME
    // engine is what a long-running service pays per session.
    runtime::Engine engine({}, 1);
    (void)engine.localize_all(sessions);  // warm-up batch
    const std::size_t bytes0 = bench::allocated_bytes();
    const Clock::time_point t0 = Clock::now();
    const std::vector<runtime::SessionReport> reports = engine.localize_all(sessions);
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    const std::size_t steady_bytes = bench::allocated_bytes() - bytes0;
    push_row("engine-steady-state", seconds, steady_bytes);

    bool same = true;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      same = same && identical(reports[i].result, baseline[i].result);
    }
    all_identical = all_identical && same;
    std::printf("\nsteady state (warm workspaces, 1 thread): %.2f s, "
                "%.1f KiB allocated/session, results %s\n",
                seconds,
                static_cast<double>(steady_bytes / n_sessions) / 1024.0,
                same ? "bit-identical" : "MISMATCH");
  }

  // Single-session latency on an idle engine: with one worker the session
  // runs alone; with all of them, idle workers help with its ASP tasks.
  std::printf("\n%8s %14s %9s %13s\n", "threads", "ms/session", "speedup", "identical");
  double single_ms_1 = 0.0;
  for (const std::size_t threads : std::set<std::size_t>{1, hw}) {
    runtime::Engine engine({}, threads);
    (void)engine.submit(sessions[0]).get();  // warm the plans and one workspace
    double wall_ms = 0.0;
    bool same = true;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      const Clock::time_point t0 = Clock::now();
      const runtime::SessionReport report = engine.submit(sessions[i]).get();
      wall_ms += std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      same = same && identical(report.result, baseline[i].result);
    }
    all_identical = all_identical && same;
    const double per_session = wall_ms / static_cast<double>(n_sessions);
    if (threads == 1) single_ms_1 = per_session;
    std::printf("%8zu %14.2f %8.2fx %13s\n", threads, per_session,
                single_ms_1 / per_session, same ? "yes" : "MISMATCH");
    bench::BenchRow row;
    row.op = "engine_single_session";
    row.variant = "engine-threads-" + std::to_string(threads);
    row.n = n_sessions;
    row.ns_per_op = per_session * 1e6;
    rows.push_back(row);
  }

  // Observability overhead (the bench_obs_overhead rows): the same serial
  // shared-context session loop with the metrics registry + tracer off vs
  // on. Serial so nothing but the instrumentation differs between the two
  // timings; the acceptance budget is <2% and the results must stay
  // bit-identical (obs observes, never steers).
  {
    const core::PipelineConfig config;
    const core::PipelineContext ctx(config, sessions[0].prior.chirp,
                                    sessions[0].audio.sample_rate);
    core::SessionWorkspace workspace;
    std::vector<core::LocalizationResult> plain(n_sessions);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < n_sessions; ++i) {
      auto outcome = core::try_localize(sessions[i], config, ctx, workspace);
      if (outcome.has_value()) plain[i] = *std::move(outcome);
    }
    const double off_s = std::chrono::duration<double>(Clock::now() - t0).count();

    obs::MetricsRegistry registry;
    obs::Tracer tracer;
    std::vector<core::LocalizationResult> traced(n_sessions);
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < n_sessions; ++i) {
      const obs::ObsContext obs{&registry, &tracer, i + 1};
      auto outcome =
          core::try_localize(sessions[i], config, ctx, workspace, nullptr, &obs);
      if (outcome.has_value()) traced[i] = *std::move(outcome);
    }
    const double on_s = std::chrono::duration<double>(Clock::now() - t1).count();

    bool obs_identical = true;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      obs_identical = obs_identical && identical(plain[i], traced[i]);
    }
    all_identical = all_identical && obs_identical;
    const double overhead_pct = (on_s / off_s - 1.0) * 100.0;
    std::printf("\nobs overhead (serial, shared ctx): off %.3f s, on %.3f s -> "
                "%+.2f%% (budget <2%%), results %s\n",
                off_s, on_s, overhead_pct,
                obs_identical ? "bit-identical" : "MISMATCH");
    bench::BenchRow off_row;
    off_row.op = "obs_overhead";
    off_row.variant = "registry-off";
    off_row.n = n_sessions;
    off_row.ns_per_op = off_s * 1e9 / static_cast<double>(n_sessions);
    rows.push_back(off_row);
    bench::BenchRow on_row = off_row;
    on_row.variant = "registry-on";
    on_row.ns_per_op = on_s * 1e9 / static_cast<double>(n_sessions);
    rows.push_back(on_row);
  }

  bench::write_bench_json("BENCH_engine.json", rows);
  std::printf("\nresults bit-identical to per-session plans at every thread "
              "count: %s\n",
              all_identical ? "yes" : "NO — shared-context or determinism bug");
  if (hw < 4) {
    std::printf("note: only %u hardware thread(s) available; speedup beyond %u\n"
                "requires multi-core hardware (workers time-slice here).\n", hw, hw);
  }
  return all_identical ? 0 : 1;
}
