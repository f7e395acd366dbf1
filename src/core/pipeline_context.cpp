#include "core/pipeline_context.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/pipeline.hpp"
#include "dsp/fir.hpp"

namespace hyperear::core {

namespace {

/// FNV-1a over explicit field values. Doubles hash by bit pattern, so the
/// key distinguishes exactly what operator== distinguishes (-0.0 vs 0.0 is
/// the one divergence, and both sides of it are valid cache entries because
/// `matches` re-checks equality).
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xffULL;
      state *= 0x100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t plan_key_hash(const AspOptions& asp, const dsp::ChirpParams& chirp,
                            double sample_rate) {
  Fnv1a h;
  h.mix(asp.detector_threshold);
  h.mix(asp.min_event_spacing_s);
  h.mix(asp.sfo_correction);
  h.mix(static_cast<std::uint64_t>(asp.min_calibration_events));
  h.mix(chirp.freq_low_hz);
  h.mix(chirp.freq_high_hz);
  h.mix(chirp.duration_s);
  h.mix(chirp.amplitude);
  h.mix(chirp.edge_fade_fraction);
  h.mix(sample_rate);
  return h.state;
}

namespace {

/// The probe-only band-pass (see `bandpass_convolver`): the design the ASP
/// stage ran before the matched filter alone took over band selection.
constexpr double kProbeBandMarginHz = 200.0;
constexpr std::size_t kProbeBandpassTaps = 255;

std::vector<double> make_probe_bandpass(const dsp::ChirpParams& chirp,
                                        double sample_rate) {
  const double lo = std::max(chirp.freq_low_hz - kProbeBandMarginHz, 50.0);
  const double hi =
      std::min(chirp.freq_high_hz + kProbeBandMarginHz, sample_rate / 2.0 - 50.0);
  return dsp::design_bandpass(lo, hi, sample_rate, kProbeBandpassTaps);
}

dsp::DetectorConfig make_detector_config(const AspOptions& asp, double sample_rate) {
  dsp::DetectorConfig cfg;
  cfg.sample_rate = sample_rate;
  cfg.threshold = asp.detector_threshold;
  cfg.min_spacing_s = asp.min_event_spacing_s;
  return cfg;
}

}  // namespace

PipelineContext::PipelineContext(const AspOptions& asp, const dsp::ChirpParams& chirp,
                                 double sample_rate)
    : asp_(asp),
      chirp_params_(chirp),
      sample_rate_(sample_rate),
      chirp_(chirp),
      bandpass_ols_(make_probe_bandpass(chirp, sample_rate)),
      detector_(chirp_.reference(sample_rate), make_detector_config(asp, sample_rate)) {}

PipelineContext::PipelineContext(const PipelineConfig& config,
                                 const dsp::ChirpParams& chirp, double sample_rate)
    : PipelineContext(config.asp, chirp, sample_rate) {}

bool PipelineContext::matches(const AspOptions& asp, const dsp::ChirpParams& chirp,
                              double sample_rate) const {
  return asp_ == asp && chirp_params_ == chirp && sample_rate_ == sample_rate;
}

}  // namespace hyperear::core
