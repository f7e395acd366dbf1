#include "core/nlos.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/sdf.hpp"
#include "dsp/matched_filter.hpp"

namespace hyperear::core {

namespace {

/// Half-width of the exclusion zone around a winner: the autocorrelation
/// main lobe plus near sidelobes span ~1 ms; only arrivals beyond that are
/// genuine competing paths.
constexpr double kEchoExclusionS = 1.2e-3;

}  // namespace

double strongest_competitor(std::span<const double> raw, std::size_t lag,
                            std::size_t half_width, std::size_t exclusion) {
  require(lag < raw.size(), "strongest_competitor: lag outside the correlation");
  double best = 0.0;
  // The local maxima of |raw| over the inclusive lag range [from, to];
  // callers keep it inside [1, raw.size() - 2].
  const auto scan = [&](std::size_t from, std::size_t to) {
    for (std::size_t j = from; j <= to; ++j) {
      const double v = std::abs(raw[j]);
      if (v > best && v >= std::abs(raw[j - 1]) && v > std::abs(raw[j + 1])) best = v;
    }
  };
  // The open window (lo, hi), which the exclusion zone splits in two.
  const std::size_t lo = lag > half_width ? lag - half_width : 0;
  const std::size_t hi = std::min(lag + half_width, raw.size() - 1);
  if (hi < lo + 2) return best;
  if (lag >= exclusion) scan(lo + 1, std::min(lag - exclusion, hi - 1));
  scan(std::max(lo + 1, lag + exclusion), hi - 1);
  return best;
}

std::vector<double> echo_competition(const dsp::MatchedFilterDetector& detector,
                                     std::span<const double> mic1,
                                     const std::vector<ChirpEvent>& events) {
  std::vector<double> ratios(events.size(), 0.0);
  if (events.empty()) return ratios;
  dsp::DetectorWorkspace ws;
  detector.correlate(mic1, 0, ws);
  const double fs = detector.config().sample_rate;
  const auto exclusion = static_cast<std::size_t>(kEchoExclusionS * fs);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChirpEvent& e = events[i];
    const double lag = std::round(e.time_s * fs);
    require(lag >= 0.0 && lag < static_cast<double>(ws.raw.size()),
            "echo_competition: event outside the recording");
    if (!(e.amplitude > 0.0)) continue;
    ratios[i] = strongest_competitor(ws.raw, static_cast<std::size_t>(lag),
                                     detector.min_spacing_lags(), exclusion) /
                e.amplitude;
  }
  return ratios;
}

NlosAssessment assess_line_of_sight(const AspResult& asp,
                                    std::span<const double> echo_competition,
                                    const NlosOptions& options) {
  require(echo_competition.size() == asp.mic1.size(),
          "assess_line_of_sight: one echo-competition ratio per mic1 event");
  NlosAssessment out;
  const std::vector<TdoaSample> pairs =
      pair_inter_mic_tdoas(asp, options.pairing_slack_s);
  out.events = pairs.size();
  if (pairs.size() < options.min_events) return out;
  out.enough_data = true;

  std::vector<double> tdoas;
  tdoas.reserve(pairs.size());
  for (const TdoaSample& p : pairs) tdoas.push_back(p.tdoa_s);
  out.tdoa_mad_s = median_absolute_deviation(tdoas);

  std::vector<double> amps;
  amps.reserve(asp.mic1.size());
  for (const ChirpEvent& e : asp.mic1) amps.push_back(e.amplitude);
  if (amps.size() >= options.min_events) {
    const double med = median(amps);
    if (med > 0.0) out.amplitude_dispersion = median_absolute_deviation(amps) / med;
    out.echo_competition = median(echo_competition);
  }

  const bool tdoa_trip = out.tdoa_mad_s > options.tdoa_mad_threshold_s;
  const bool amp_trip = out.amplitude_dispersion > options.amplitude_dispersion_threshold;
  const bool echo_trip = out.echo_competition > options.echo_competition_threshold;
  out.suspected =
      tdoa_trip || echo_trip ||
      (amp_trip && out.tdoa_mad_s > 0.5 * options.tdoa_mad_threshold_s);
  return out;
}

}  // namespace hyperear::core
