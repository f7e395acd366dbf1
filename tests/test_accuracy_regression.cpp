/// Paper-fidelity regression suite (ctest label "accuracy-regression"):
/// a deterministic simulated scenario matrix — 2D TTL at 4/7/10 m on the
/// slide ruler, 3D PLE at two statures hand-held — asserting that the
/// median and 90th-percentile localization error stay within fixed
/// tolerances of the values recorded from the seed build. Every trial is
/// seeded, sessions run through the Engine (bit-identical at any
/// worker count), and the per-scenario numbers are emitted through the
/// observability registry so the same series an operator would scrape is
/// what the test asserts on.
///
/// Paper reference (ICDCS'19 §VII): 2D mean/p90 = 14.4/22.3 cm at 7 m on
/// the S4; 3D at 7 m = 15.8/25.2 cm. The recorded values below are this
/// repo's simulation at the fixed seeds, not the paper's hardware numbers;
/// the test pins the reproduction, the bench figures compare to the paper.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/pipeline.hpp"
#include "obs/metrics.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

namespace hyperear {
namespace {

struct Scenario {
  const char* name;   ///< registry series infix, e.g. "ttl_2d_4m"
  double range;       ///< speaker distance (m)
  bool three_d;       ///< false: 2D TTL ruler; true: 3D PLE two statures
  std::uint64_t seed0;
  // Values recorded from the seed build at these exact seeds.
  double recorded_median_cm;
  double recorded_p90_cm;
  std::size_t recorded_valid;  ///< deterministic count of valid fixes
};

constexpr std::size_t kTrials = 6;

/// Tolerance band around a recorded value: the matrix is deterministic, so
/// drift can only come from benign FP reorderings (compiler/flag changes)
/// or a real algorithmic change — the band forgives the former and catches
/// the latter.
double tolerance_cm(double recorded_cm) { return 0.40 * recorded_cm + 1.0; }

sim::Session make_trial(const Scenario& sc, std::size_t trial) {
  sim::ScenarioConfig c;
  c.phone = sim::galaxy_s4();
  c.environment = sim::meeting_room_quiet();
  c.speaker_distance = sc.range;
  c.phone_height = 1.3;
  c.slides_per_stature = 5;
  c.calibration_duration = 3.0;
  c.hold_duration = 0.7;
  if (sc.three_d) {
    c.speaker_height = 0.5;  // paper §VII-D: low-stature beacon
    c.two_statures = true;
    c.stature_change = 0.45;
    c.jitter = sim::hand_jitter();
  } else {
    c.speaker_height = 1.3;
    c.jitter = sim::ruler_jitter();
  }
  Rng rng(sc.seed0 + trial * 37);
  c.slide_distance = rng.uniform(0.50, 0.60);
  return sim::make_localization_session(c, rng);
}

TEST(AccuracyRegression, MatrixStaysWithinRecordedTolerances) {
  const Scenario matrix[] = {
      {"ttl_2d_4m", 4.0, false, 8100, 1.53, 3.53, 6},
      {"ttl_2d_7m", 7.0, false, 8200, 9.92, 19.55, 6},
      {"ttl_2d_10m", 10.0, false, 8300, 30.52, 61.52, 6},
      {"ple_3d_5m", 5.0, true, 8400, 11.34, 30.54, 6},
  };

  auto registry = std::make_shared<obs::MetricsRegistry>();
  // 2D scenarios run with the default config; the 3D hand-held ones use
  // the paper's acceptance rule for hand operation (bench_fig17_18).
  core::PipelineConfig hand;
  hand.ttl.min_slide_distance = 0.45;
  hand.ttl.max_z_rotation_deg = 20.0;
  runtime::Engine engine_2d({}, 0, {registry, nullptr});
  runtime::Engine engine_3d(hand, 0, {registry, nullptr});

  for (const Scenario& sc : matrix) {
    std::vector<sim::Session> sessions;
    sessions.reserve(kTrials);
    for (std::size_t t = 0; t < kTrials; ++t) sessions.push_back(make_trial(sc, t));
    runtime::Engine& engine = sc.three_d ? engine_3d : engine_2d;
    const std::vector<runtime::SessionReport> reports =
        engine.localize_all(sessions);
    ASSERT_EQ(reports.size(), kTrials);

    std::vector<double> errors_cm;
    for (std::size_t t = 0; t < kTrials; ++t) {
      if (reports[t].status != runtime::SessionStatus::ok) continue;
      errors_cm.push_back(100.0 *
                          core::localization_error(reports[t].result, sessions[t]));
    }
    ASSERT_FALSE(errors_cm.empty()) << sc.name << ": no valid fixes";
    const double median_cm = median(errors_cm);
    const double p90_cm = percentile(errors_cm, 90.0);
    std::printf("%-12s valid %zu/%zu  median %6.2f cm  p90 %6.2f cm  "
                "(recorded %.1f / %.1f)\n",
                sc.name, errors_cm.size(), kTrials, median_cm, p90_cm,
                sc.recorded_median_cm, sc.recorded_p90_cm);

    // Emit through the registry first (the operator-visible series), then
    // assert on the same numbers.
    const std::string prefix = std::string("accuracy.") + sc.name;
    registry->gauge(prefix + ".median_cm").set(median_cm);
    registry->gauge(prefix + ".p90_cm").set(p90_cm);
    registry->gauge(prefix + ".valid").set(static_cast<double>(errors_cm.size()));

    EXPECT_EQ(errors_cm.size(), sc.recorded_valid) << sc.name;
    EXPECT_NEAR(median_cm, sc.recorded_median_cm,
                tolerance_cm(sc.recorded_median_cm))
        << sc.name;
    EXPECT_NEAR(p90_cm, sc.recorded_p90_cm, tolerance_cm(sc.recorded_p90_cm))
        << sc.name;
    // Gross-failure backstop independent of the recorded table: the paper's
    // claim is decimeter-class accuracy at operational range.
    EXPECT_LT(p90_cm, 10.0 * sc.range) << sc.name;
  }

  // The emitted series round-trip through the export path.
  const std::string json = registry->to_json();
  for (const Scenario& sc : matrix) {
    EXPECT_NE(json.find(std::string("accuracy.") + sc.name + ".median_cm"),
              std::string::npos);
  }
  std::printf("%s", registry->to_prometheus().c_str());
}

}  // namespace
}  // namespace hyperear
