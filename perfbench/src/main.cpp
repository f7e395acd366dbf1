/// perfbench: the repo benchmark. Runs one workload against the public
/// entry points `runtime::Server::submit` and
/// `core::StreamingSession::push/finalize`, checks every fix against its
/// reference, and prints every metric BENCHMARK.json declares.
///
///   perfbench --workload batch_closed|serve_open|stream_live --seed N
///             --seconds S --trace 0|1 [--git-sha SHA] [--source-digest D]
///             [--trace-out FILE]
///
/// `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
/// is the separate traced run: the workload runs S/2 seconds untraced and
/// S/2 traced (the difference is the tracing overhead), then a
/// single-threaded layer probe runs, and the per-layer metrics are printed;
/// the spans go to FILE. Exit status: 0 when every operation succeeded and
/// matched its reference, 1 when one did not (after printing the result),
/// 2 on a usage error.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "alloc.hpp"
#include "pool.hpp"
#include "probe.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  RunInfo info;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload batch_closed|serve_open|stream_live "
               "--seed N --seconds S --trace 0|1 [--git-sha SHA] [--source-digest D] "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.info.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.info.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        a.info.seconds = std::stod(value);
        have_seconds = a.info.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.info.trace = value == "1";
        have_trace = true;
      } else if (key == "--git-sha") {
        a.info.git_sha = value;
      } else if (key == "--source-digest") {
        a.info.source_digest = value;
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  const std::string& w = a.info.workload;
  if (w != "batch_closed" && w != "serve_open" && w != "stream_live") {
    usage("unknown workload " + w);
  }
  return a;
}

PhaseSamples run_phase(const std::string& workload, const Pool& pool, const System& sys,
                       const PhaseOptions& opt) {
  if (workload == "batch_closed") return run_batch_closed(pool, *sys.server, opt);
  if (workload == "serve_open") return run_serve_open(pool, *sys.server, opt);
  return run_stream_live(pool, sys.context, opt);
}

int run(const Args& args) {
  const RunInfo& info = args.info;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  RunInfo stamped = info;
  stamped.threads = threads;

  // A long-running server's heap reaches a steady state in which session
  // buffers are recycled rather than mapped and faulted in afresh; glibc's
  // adaptive mmap/trim thresholds reach it only after a history-dependent
  // warm-up, which made the cost of copying a recording into the server
  // vary by half between runs. Fix the thresholds at start-up instead.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  const Pool pool = make_pool(info.workload, threads);
  // Memory is measured from here: the rendered inputs (and their
  // references) are live, everything transient from rendering is freed.
  malloc_trim(0);
  const std::size_t baseline = heap_live_bytes();
  reset_heap_peak();

  // Set-up, three times; the median is reported and the last system kept.
  std::vector<double> setup_s;
  System sys;
  for (int rep = 0; rep < 3; ++rep) {
    sys = System{};
    const Clock::time_point t = Clock::now();
    sys = setup(info.workload, pool, threads, false);
    setup_s.push_back(ms_between(t, Clock::now()) / 1000.0);
  }
  std::sort(setup_s.begin(), setup_s.end());

  PhaseOptions opt;
  opt.seed = info.seed;
  opt.threads = threads;
  if (!info.trace) {
    opt.seconds = info.seconds;
    const PhaseSamples s = run_phase(info.workload, pool, sys, opt);
    const double mem_mib =
        static_cast<double>(heap_peak_bytes() - std::min(baseline, heap_peak_bytes())) /
        (1024.0 * 1024.0);
    print_report(stamped, s.tally, end_to_end_metrics(s, setup_s[1], mem_mib),
                 workload_layer_metrics(info.workload, s, nullptr));
    return s.tally.failed() == 0 && s.tally.attempted() > 0 ? 0 : 1;
  }

  opt.seconds = info.seconds / 2.0;
  const PhaseSamples untraced = run_phase(info.workload, pool, sys, opt);
  // The traced half: a server built with a tracer (EngineObs), or traced
  // finalize calls on the stream side; benchmark spans either way.
  sys = System{};
  sys = setup(info.workload, pool, threads, true);
  const Clock::time_point epoch = Clock::now();
  SpanLog log(epoch);
  opt.spans = &log;
  const PhaseSamples traced = run_phase(info.workload, pool, sys, opt);
  if (sys.tracer) log.import(*sys.tracer, sys.tracer_epoch);
  sys = System{};
  const ProbeResult probe = run_probe(pool, 4);
  const std::vector<Span> spans = log.spans();

  Tally tally = untraced.tally;
  for (std::size_t i = 0; i < kOutcomeCount; ++i) tally.by_outcome[i] += traced.tally.by_outcome[i];
  print_report(stamped, tally, per_layer_metrics(traced, untraced, probe, spans),
               workload_layer_metrics(info.workload, traced, &spans));
  if (!args.trace_out.empty()) {
    if (std::FILE* f = std::fopen(args.trace_out.c_str(), "w")) {
      const std::string json = spans_json(spans);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  }
  return tally.failed() == 0 && tally.attempted() > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
