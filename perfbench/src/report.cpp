#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

std::string fmt(const char* f, double a, double b = 0.0) {
  char buf[96];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

Metric pct(const std::string& name, const std::vector<double>& values, double q,
           const std::string& unit) {
  const Percentile p = percentile(values, q);
  return {name, p.value, unit,
          "q=" + fmt("%.3f", p.quantile) + " n=" + std::to_string(p.n)};
}

Metric ratio(const std::string& name, double num, double den, const std::string& unit = "ratio") {
  return {name, den > 0.0 ? num / den : 0.0, unit,
          fmt("%.0f/%.0f", num, den)};
}

double sum_self(const std::vector<Span>& spans, const std::vector<double>& self,
                std::initializer_list<const char*> names) {
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (const char* n : names) {
      if (spans[i].name == n) total += self[i];
    }
  }
  return total;
}

double sum_duration(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) total += s.end_ms - s.start_ms;
  }
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Accuracy over the distinct sessions completed. The matrix is a fixed
/// fixture, so these are properties of the pipeline, not samples of a
/// timing: plain nearest-rank quantiles, no support rule.
std::vector<Metric> accuracy_metrics(const PhaseSamples& s) {
  std::vector<double> errors;
  for (const auto& [entry, cm] : s.error_cm_by_entry) {
    if (cm >= 0.0) errors.push_back(cm);
  }
  const std::string note = "over " + std::to_string(errors.size()) + " distinct sessions";
  return {
      ratio("fix_valid_share", static_cast<double>(errors.size()),
            static_cast<double>(s.error_cm_by_entry.size())),
      {"fix_error_p50_cm", nearest_rank(errors, 0.50), "cm", note},
      {"fix_error_p90_cm", nearest_rank(errors, 0.90), "cm", note},
  };
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const PhaseSamples& s, double setup_s,
                                       double mem_peak_mib) {
  const double completed = static_cast<double>(s.tally.completed());
  const std::vector<Metric> accuracy = accuracy_metrics(s);
  return {
      {"setup_s", setup_s, "s", "median of 3 set-ups"},
      ratio("sessions_per_s", completed, s.wall_s, "1/s"),
      pct("fix_latency_p50_ms", s.fix_latency_ms, 0.50, "ms"),
      pct("fix_latency_p90_ms", s.fix_latency_ms, 0.90, "ms"),
      ratio("cpu_ms_per_session", 1000.0 * s.cpu_s, completed, "ms"),
      accuracy[0],
      accuracy[1],
      accuracy[2],
      {"mem_peak_mib", mem_peak_mib, "MiB", "peak live heap above the rendered inputs"},
  };
}

std::vector<Metric> per_layer_metrics(const PhaseSamples& traced, const PhaseSamples& untraced,
                                      const ProbeResult& probe,
                                      const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  const double staged = static_cast<double>(traced.staged);
  const double cpu_traced = traced.cpu_s / std::max(1.0, static_cast<double>(traced.tally.completed()));
  const double cpu_plain = untraced.cpu_s / std::max(1.0, static_cast<double>(untraced.tally.completed()));
  Metric overhead{"trace.overhead_share", cpu_plain > 0.0 ? cpu_traced / cpu_plain - 1.0 : 0.0,
                  "ratio", "cpu/session traced vs untraced phase"};
  Metric asp_self = ratio("asp.self_share", probe.asp_self_ms, probe.session_span_ms);
  asp_self.note = "probe spans";
  Metric coverage = ratio("trace.stage_coverage",
                          sum_self(spans, self, {"asp", "msp", "ttl", "ple"}),
                          sum_duration(spans, "session"));
  coverage.note = "self(asp+msp+ttl/ple) / session span";
  return {
      pct("asp.ms_p50", traced.asp_ms, 0.50, "ms"),
      ratio("asp.ns_per_sample", 1e6 * traced.asp_ms_total, traced.asp_samples_total, "ns"),
      ratio("asp.chirps_per_session", static_cast<double>(traced.chirps), staged, "count"),
      ratio("asp.sfo_estimated_share", static_cast<double>(traced.sfo_estimated), staged),
      ratio("asp.bandpass.ns_per_sample", 1e6 * probe.bandpass_ms, probe.samples, "ns"),
      ratio("asp.detect.ns_per_sample", 1e6 * probe.detect_ms, probe.samples, "ns"),
      ratio("asp.detect.useful_ratio", probe.detections, probe.candidates),
      pct("asp.sfo.us_p50", probe.sfo_us, 0.50, "us"),
      asp_self,
      pct("context.build_ms", probe.context_build_ms, 0.50, "ms"),
      pct("msp.ms_p50", traced.msp_ms, 0.50, "ms"),
      pct("ttl.ms_p50", traced.ttl_ms, 0.50, "ms"),
      pct("ple.ms_p50", traced.ple_ms, 0.50, "ms"),
      ratio("ttl.slide_accept_share", static_cast<double>(traced.slides_accepted),
            static_cast<double>(traced.slides_segmented)),
      ratio("alloc_kib_per_session", static_cast<double>(untraced.alloc_bytes) / 1024.0,
            static_cast<double>(untraced.tally.completed()), "KiB"),
      overhead,
      coverage,
  };
}

std::vector<Metric> workload_layer_metrics(const std::string& workload, const PhaseSamples& s,
                                           const std::vector<Span>* spans) {
  std::vector<Metric> out;
  out.push_back({"failed_share", s.tally.failed_share(), "ratio",
                 std::to_string(s.tally.failed()) + "/" + std::to_string(s.tally.attempted())});
  if (workload != "stream_live") {
    out.push_back(pct("server.submit_us_p99", s.submit_us, 0.99, "us"));
    out.push_back(pct("server.queue_wait_ms_p50", s.queue_wait_ms, 0.50, "ms"));
    out.push_back(pct("server.queue_wait_ms_p90", s.queue_wait_ms, 0.90, "ms"));
    out.push_back(ratio("server.shed_share", static_cast<double>(s.tally.count(Outcome::shed)),
                        static_cast<double>(s.tally.attempted())));
    out.push_back(pct("engine.service_ms_p50", s.service_ms, 0.50, "ms"));
    out.push_back(pct("engine.service_ms_p90", s.service_ms, 0.90, "ms"));
    out.push_back(pct("engine.overhead_ms_p50", s.overhead_ms, 0.50, "ms"));
    if (spans != nullptr) {
      const std::vector<double> self = self_times(*spans);
      std::vector<double> server_self;
      for (std::size_t i = 0; i < spans->size(); ++i) {
        if ((*spans)[i].name == "server.request") server_self.push_back(self[i]);
      }
      out.push_back(pct("server.self_ms_p50", server_self, 0.50, "ms"));
    }
  }
  if (workload != "batch_closed") {
    out.push_back(pct("loadgen.lateness_ms_p99", s.lateness_ms, 0.99, "ms"));
  }
  if (workload == "stream_live") {
    out.push_back(pct("push_latency_p50_ms", s.push_latency_ms, 0.50, "ms"));
    out.push_back(pct("push_latency_p99_ms", s.push_latency_ms, 0.99, "ms"));
    out.push_back(pct("stream.push_ms_p50", s.push_call_ms, 0.50, "ms"));
    out.push_back(pct("stream.push_ms_p99", s.push_call_ms, 0.99, "ms"));
    out.push_back(ratio("stream.detect_push_share", static_cast<double>(s.detect_pushes),
                        static_cast<double>(s.pushes)));
    out.push_back(pct("stream.finalize_ms_p50", s.finalize_ms, 0.50, "ms"));
    out.push_back(pct("stream.finalize_ms_p90", s.finalize_ms, 0.90, "ms"));
    out.push_back(pct("stream.event_lag_ms_p50", s.event_lag_ms, 0.50, "ms"));
    out.push_back({"stream.peak_retained_kib",
                   static_cast<double>(s.peak_retained_samples) * sizeof(double) / 1024.0, "KiB",
                   "max over sessions, both channels"});
  }
  return out;
}

void print_report(const RunInfo& info, const Tally& tally, const std::vector<Metric>& result,
                  const std::vector<Metric>& detail) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", info.workload.c_str(),
              static_cast<unsigned long long>(info.seed), info.seconds, info.trace ? 1 : 0);
  std::printf(
      "# provenance {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %zu, \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\", \"source_digest\": \"%s\"}\n",
      info.workload.c_str(), static_cast<unsigned long long>(info.seed), info.threads,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, json_escape(info.git_sha).c_str(),
      json_escape(info.source_digest).c_str());
  std::printf("# counts attempted=%zu completed=%zu failed=%zu", tally.attempted(),
              tally.completed(), tally.failed());
  for (std::size_t i = 0; i < kOutcomeCount; ++i) {
    std::printf(" %s=%zu", to_string(static_cast<Outcome>(i)), tally.by_outcome[i]);
  }
  std::printf("\n");
  for (const Metric& m : result) {
    std::printf("# metric %-28s %14.6g %-6s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  for (const Metric& m : detail) {
    std::printf("# layer  %-28s %14.6g %-6s (%s)\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
  }
  const bool correct = tally.failed() == 0 && tally.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", tally.attempted(), tally.failed());
  for (std::size_t i = 0; i < result.size(); ++i) {
    const double v = std::isfinite(result[i].value) ? result[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                result[i].name.c_str(), v, result[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string spans_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::string out = "[\n";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "  {\"id\": %llu, \"parent\": %llu, \"session\": %llu, \"name\": \"%s\", "
                  "\"start_ms\": %.4f, \"end_ms\": %.4f, \"self_ms\": %.4f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.session), json_escape(s.name).c_str(),
                  s.start_ms, s.end_ms, self[i], i + 1 < spans.size() ? "," : "");
    out += buf;
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
