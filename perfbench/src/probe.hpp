#pragma once

#include <cstddef>
#include <vector>

#include "pool.hpp"

/// @file probe.hpp
/// The single-threaded layer probe of the traced run: it times the calls
/// `core::preprocess_audio` makes (band-pass, matched-filter detection, SFO
/// fit), the PipelineContext constructor, and one traced `try_localize` per
/// session, on a few sessions of the workload's own pool. Nothing else runs
/// while it does, so these are uncontended per-layer costs.

namespace perfbench {

struct ProbeResult {
  double samples = 0.0;               ///< per-channel samples probed
  std::vector<double> context_build_ms;
  double bandpass_ms = 0.0;           ///< both channels, all sessions
  double detect_ms = 0.0;
  std::vector<double> sfo_us;         ///< finish_asp per session
  double candidates = 0.0;            ///< detector.candidates_total
  double detections = 0.0;            ///< detector.detections_total
  double asp_self_ms = 0.0;           ///< from the traced try_localize spans
  double session_span_ms = 0.0;
};

/// Probe up to `max_sessions` pool sessions, covering every plan first.
[[nodiscard]] ProbeResult run_probe(const Pool& pool, std::size_t max_sessions);

}  // namespace perfbench
