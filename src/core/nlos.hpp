#pragma once

#include <span>
#include <vector>

#include "core/asp.hpp"

/// @file nlos.hpp
/// Line-of-sight assessment (extension of the paper's Section IX, which
/// lists the LoS assumption as a limitation and proposes exploiting user
/// mobility).
///
/// With a clear line of sight the dominant matched-filter arrival is the
/// direct path: its inter-microphone TDoA is nearly constant through a
/// session (the phone translates, so the bearing barely moves), its
/// amplitude is steady, and it dominates the correlation around it. When an
/// obstruction blocks the direct path, the strongest arrival is whichever
/// reflection wins at the current pose. Three range-free cues follow:
///  - different reflections arrive from different directions, so the
///    inter-mic TDoA of the dominant arrival jumps by large fractions of
///    +-D/S across the session;
///  - the amplitude churns;
///  - the winning reflection has near-peer competitors: its echo
///    competition (`echo_competition` below) is high. The z-mirrored
///    floor/ceiling bounces preserve azimuth, so the TDoA cue misses them,
///    and this cue alone catches them.
/// When a cue trips, the app should ask the user to step sideways and
/// retry (see examples/nlos_recovery.cpp).
///
/// Echo competition is not part of detection: `echo_competition` computes
/// it offline, from the recording and the ASP events, so the service
/// detector never pays for it.

namespace hyperear::dsp {
class MatchedFilterDetector;
}

namespace hyperear::core {

/// Thresholds for the LoS test.
struct NlosOptions {
  /// Pairing window for inter-mic TDoAs (~D/S plus slack).
  double pairing_slack_s = 0.7e-3;
  /// Median absolute deviation of the inter-mic TDoA above which the
  /// session looks NLoS (seconds). LoS sessions stay within a few us.
  double tdoa_mad_threshold_s = 40e-6;
  /// Relative amplitude MAD (MAD / median) above which amplitude churn
  /// corroborates an obstruction.
  double amplitude_dispersion_threshold = 0.35;
  /// Median echo-competition ratio (runner-up arrival / winner) above which
  /// the winner does not look like a clear direct path.
  double echo_competition_threshold = 0.42;
  /// Minimum paired events for a verdict.
  std::size_t min_events = 8;
};

/// Result of the LoS assessment.
struct NlosAssessment {
  bool enough_data = false;
  bool suspected = false;            ///< overall verdict
  double tdoa_mad_s = 0.0;           ///< inter-mic TDoA dispersion
  double amplitude_dispersion = 0.0; ///< MAD/median of arrival amplitudes
  double echo_competition = 0.0;     ///< median runner-up/winner ratio
  std::size_t events = 0;
};

/// The strongest competing arrival around lag `lag` of a raw correlation:
/// the largest |raw[j]| over lag - half_width < j < lag + half_width with
/// |j - lag| >= exclusion, where |raw[j]| is at least its left and above
/// its right neighbor; 0 when no lag qualifies. The window is clipped only
/// at the ends of `raw`, whose first and last lags (one neighbor each)
/// never qualify; neither does a NaN. Requires lag < raw.size().
[[nodiscard]] double strongest_competitor(std::span<const double> raw, std::size_t lag,
                                          std::size_t half_width, std::size_t exclusion);

/// Echo competition of each of `events` (ASP's mic1 events of the
/// recording `mic1`): the strongest competitor of the event's correlation
/// lag within the detector's min_spacing, outside the autocorrelation main
/// lobe (1.2 ms), as a fraction of the event's amplitude; 0 for an event
/// of zero amplitude. A clear direct path dominates its window (small
/// values); an obstructed one leaves several reflections of similar
/// strength (values near 1). `detector` must be the one ASP ran (the
/// pipeline context's): its pair grid correlates the whole recording into
/// the very lags every chunk pass saw, and the event's lag is its time
/// times the sample rate, rounded (refinement moves it by at most half a
/// lag).
[[nodiscard]] std::vector<double> echo_competition(
    const dsp::MatchedFilterDetector& detector, std::span<const double> mic1,
    const std::vector<ChirpEvent>& events);

/// Assess whether the session's dominant arrivals look like a direct path.
/// `echo_competition` holds one ratio per `asp.mic1` event (see above).
[[nodiscard]] NlosAssessment assess_line_of_sight(
    const AspResult& asp, std::span<const double> echo_competition,
    const NlosOptions& options = {});

}  // namespace hyperear::core
