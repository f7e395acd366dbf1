/// Tests of the non-throwing pipeline surface: the Expected carrier, the
/// error taxonomy's round trip with the exception hierarchy, and
/// try_localize's failure-as-value contract.

#include "common/expected.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "sim/scenario.hpp"

namespace hyperear {
namespace {

using core::ErrorCategory;
using core::PipelineError;
using core::PipelineStage;

TEST(Expected, HoldsValue) {
  Expected<int, std::string> e = 42;
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(static_cast<bool>(e));
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
  EXPECT_THROW((void)e.error(), PreconditionError);
}

TEST(Expected, HoldsError) {
  Expected<int, std::string> e = make_unexpected(std::string("boom"));
  ASSERT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "boom");
  EXPECT_EQ(e.value_or(7), 7);
  EXPECT_THROW((void)e.value(), PreconditionError);
}

TEST(Expected, MovesValueOut) {
  Expected<std::vector<int>, std::string> e = std::vector<int>{1, 2, 3};
  const std::vector<int> taken = *std::move(e);
  EXPECT_EQ(taken.size(), 3u);
}

// --- taxonomy round trip: exception -> category -> exception -------------

TEST(ErrorTaxonomy, ClassifiesEachErrorSubclass) {
  EXPECT_EQ(core::classify_exception(PreconditionError("p")),
            ErrorCategory::precondition);
  EXPECT_EQ(core::classify_exception(NumericalError("n")), ErrorCategory::numerical);
  EXPECT_EQ(core::classify_exception(DetectionError("d")), ErrorCategory::detection);
  EXPECT_EQ(core::classify_exception(Error("e")), ErrorCategory::internal);
  EXPECT_EQ(core::classify_exception(std::runtime_error("r")),
            ErrorCategory::internal);
}

TEST(ErrorTaxonomy, RethrowRestoresExceptionType) {
  const auto roundtrip = [](const Error& original) {
    const PipelineError as_value =
        core::error_from_exception(original, PipelineStage::asp);
    try {
      core::rethrow(as_value);
    } catch (const Error& back) {
      EXPECT_STREQ(back.what(), original.what());
      EXPECT_EQ(core::classify_exception(back), as_value.category);
      return;
    }
    FAIL() << "rethrow did not throw an Error";
  };
  roundtrip(PreconditionError("violated contract"));
  roundtrip(NumericalError("did not converge"));
  roundtrip(DetectionError("no chirps"));
  roundtrip(Error("generic"));
}

TEST(ErrorTaxonomy, DescribeMentionsStageAndCategory) {
  const PipelineError e{ErrorCategory::detection, PipelineStage::ttl, "no pairs"};
  const std::string text = core::describe(e);
  EXPECT_NE(text.find("ttl"), std::string::npos);
  EXPECT_NE(text.find("detection"), std::string::npos);
  EXPECT_NE(text.find("no pairs"), std::string::npos);
}

// --- try_localize failure-as-value contract ------------------------------

TEST(TryLocalize, CorruptSessionIsErrorValueNotException) {
  const sim::Session empty;  // no audio at all
  const auto outcome = core::try_localize(empty);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().category, ErrorCategory::precondition);
  EXPECT_EQ(outcome.error().stage, PipelineStage::asp);
}

TEST(TryLocalize, InvalidConfigReportedBeforeAnyStage) {
  sim::Session empty;
  core::PipelineConfig bad;
  bad.asp.detector_threshold = 1.5;  // outside (0, 1)
  const auto outcome = core::try_localize(empty, bad);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().category, ErrorCategory::config);
  EXPECT_EQ(outcome.error().stage, PipelineStage::config);
}

TEST(TryLocalize, ConfigValidationCoversTtlBlock) {
  core::PipelineConfig bad;
  bad.ttl.max_pairs = 0;
  ASSERT_TRUE(bad.validate().has_value());
  EXPECT_EQ(bad.validate()->category, ErrorCategory::config);
  core::PipelineConfig good;
  EXPECT_FALSE(good.validate().has_value());
}

TEST(TryLocalize, NanFloatFieldsAreConfigErrorsNamingTheField) {
  // A NaN compares false to everything, so a `<= 0.0` test lets it through.
  // Every float field the config validates must still report a config
  // error naming itself, before any stage runs: a NaN
  // asp.min_event_spacing_s used to reach the detector's conversion to a
  // lag count, which is undefined behaviour.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using Set = void (*)(core::PipelineConfig&, double);
  const std::vector<std::pair<std::string, Set>> fields{
      {"asp.detector_threshold",
       [](core::PipelineConfig& c, double v) { c.asp.detector_threshold = v; }},
      {"asp.min_event_spacing_s",
       [](core::PipelineConfig& c, double v) { c.asp.min_event_spacing_s = v; }},
      {"ttl.min_slide_distance",
       [](core::PipelineConfig& c, double v) { c.ttl.min_slide_distance = v; }},
      {"ttl.max_z_rotation_deg",
       [](core::PipelineConfig& c, double v) { c.ttl.max_z_rotation_deg = v; }},
      {"ttl.chirp_duration_s",
       [](core::PipelineConfig& c, double v) { c.ttl.chirp_duration_s = v; }},
      {"ttl.lookback_s", [](core::PipelineConfig& c, double v) { c.ttl.lookback_s = v; }},
      {"ttl.max_range", [](core::PipelineConfig& c, double v) { c.ttl.max_range = v; }},
      {"min_stature_change",
       [](core::PipelineConfig& c, double v) { c.min_stature_change = v; }},
  };
  sim::ScenarioConfig sc;
  sc.speaker_distance = 4.0;
  sc.slides_per_stature = 1;
  Rng rng(77);
  const sim::Session session = sim::make_localization_session(sc, rng);
  for (const auto& [name, set] : fields) {
    core::PipelineConfig config;
    set(config, nan);
    const std::optional<PipelineError> e = config.validate();
    ASSERT_TRUE(e.has_value()) << name;
    EXPECT_EQ(e->category, ErrorCategory::config) << name;
    EXPECT_NE(e->message.find(name), std::string::npos) << name << ": " << e->message;
    const auto outcome = core::try_localize(session, config);
    ASSERT_FALSE(outcome.has_value()) << name;
    EXPECT_EQ(outcome.error().category, ErrorCategory::config) << name;
    EXPECT_EQ(outcome.error().stage, PipelineStage::config) << name;
  }
}

TEST(TryLocalize, PleOptionsComposeFromSharedTtl) {
  core::PipelineConfig config;
  config.ttl.min_slide_distance = 0.33;
  config.min_stature_change = 0.2;
  const core::PleOptions ple = config.ple_options();
  EXPECT_DOUBLE_EQ(ple.ttl.min_slide_distance, 0.33);
  EXPECT_DOUBLE_EQ(ple.min_stature_change, 0.2);
}

TEST(LocalizeShim, RethrowsTaxonomyMatchedException) {
  const sim::Session empty;
  EXPECT_THROW((void)core::localize(empty), PreconditionError);
}

TEST(TryLocalize, EndToEndSuccessMatchesShim) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  Rng rng(601);
  const sim::Session s = sim::make_localization_session(c, rng);

  core::StageMetrics metrics;
  const auto outcome = core::try_localize(s, {}, &metrics);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->valid);
  ASSERT_TRUE(outcome->ttl.has_value());  // 2D flow populated its sub-result
  EXPECT_FALSE(outcome->ple.has_value());
  EXPECT_FALSE(outcome->used_3d());

  EXPECT_GT(metrics.chirps_mic1, 0u);
  EXPECT_GT(metrics.chirps_mic2, 0u);
  EXPECT_TRUE(metrics.sfo_estimated);
  EXPECT_GT(metrics.asp_ms, 0.0);
  EXPECT_EQ(metrics.slides_accepted, outcome->slides_used);

  const core::LocalizationResult via_shim = core::localize(s);
  EXPECT_DOUBLE_EQ(via_shim.estimated_position.x, outcome->estimated_position.x);
  EXPECT_DOUBLE_EQ(via_shim.estimated_position.y, outcome->estimated_position.y);
  EXPECT_DOUBLE_EQ(via_shim.range, outcome->range);
}

}  // namespace
}  // namespace hyperear
