#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probe.hpp"
#include "stats.hpp"
#include "workloads.hpp"

/// @file report.hpp
/// Metrics from raw samples, and the output: human-readable `#` lines
/// (provenance, counts, every metric with its sample count and the
/// quantile it was taken at, workload-specific layer detail), then one JSON
/// line with the metrics BENCHMARK.json declares.

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / quantile actually used, for the `#` lines
};

struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::size_t threads = 1;
  std::string git_sha;
  std::string source_digest;
};

/// BENCHMARK.json `end_to_end`, from an untraced phase.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const PhaseSamples& s, double setup_s,
                                                     double mem_peak_mib);

/// BENCHMARK.json `per_layer`, from the traced phase, the untraced phase
/// before it, the layer probe and the traced phase's spans.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const PhaseSamples& traced,
                                                    const PhaseSamples& untraced,
                                                    const ProbeResult& probe,
                                                    const std::vector<Span>& spans);

/// Layer metrics that exist only where their layer is busy (runtime.server
/// and runtime.engine on the request workloads, the generator on open
/// loops, core.streaming_session on stream_live). Printed as `#` lines.
[[nodiscard]] std::vector<Metric> workload_layer_metrics(const std::string& workload,
                                                         const PhaseSamples& s,
                                                         const std::vector<Span>* spans);

/// Print the `#` lines and the final JSON line to stdout.
void print_report(const RunInfo& info, const Tally& tally, const std::vector<Metric>& result,
                  const std::vector<Metric>& detail);

/// The spans as a JSON array (with self time), for the trace file.
[[nodiscard]] std::string spans_json(const std::vector<Span>& spans);

}  // namespace perfbench
