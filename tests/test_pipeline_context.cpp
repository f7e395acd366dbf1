/// PipelineContext: the shared DSP plan cache must be a pure optimization —
/// bit-identical results with a context, without one, and with a
/// *mismatched* one (which must be ignored in favour of a local rebuild).

#include "core/pipeline_context.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "core/asp.hpp"
#include "core/pipeline.hpp"
#include "core/session_workspace.hpp"
#include "sim/scenario.hpp"

namespace hyperear::core {
namespace {

sim::Session small_session(std::uint64_t seed) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  Rng rng(seed);
  return sim::make_localization_session(c, rng);
}

void expect_identical_events(const std::vector<ChirpEvent>& a,
                             const std::vector<ChirpEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << "event " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "event " << i;
    EXPECT_EQ(a[i].amplitude, b[i].amplitude) << "event " << i;
    EXPECT_EQ(a[i].echo_competition, b[i].echo_competition) << "event " << i;
  }
}

void expect_identical_asp(const AspResult& a, const AspResult& b) {
  expect_identical_events(a.mic1, b.mic1);
  expect_identical_events(a.mic2, b.mic2);
  EXPECT_EQ(a.estimated_period, b.estimated_period);
  EXPECT_EQ(a.sfo_ppm, b.sfo_ppm);
  EXPECT_EQ(a.sfo_estimated, b.sfo_estimated);
}

TEST(PipelineContext, AspBitIdenticalWithAndWithoutContext) {
  const sim::Session s = small_session(600);
  const AspOptions options;
  const PipelineContext context(options, s.prior.chirp, s.audio.sample_rate);
  ASSERT_TRUE(context.matches(options, s.prior.chirp, s.audio.sample_rate));

  const AspResult planless =
      preprocess_audio(s.audio, s.prior.chirp, s.prior.nominal_period,
                       s.prior.calibration_duration, options);
  const AspResult planned =
      preprocess_audio(s.audio, s.prior.chirp, s.prior.nominal_period,
                       s.prior.calibration_duration, options, &context);
  ASSERT_FALSE(planned.mic1.empty());
  expect_identical_asp(planless, planned);
}

TEST(PipelineContext, TryLocalizeBitIdenticalWithAndWithoutContext) {
  const sim::Session s = small_session(601);
  const PipelineConfig config;
  const PipelineContext context(config, s.prior.chirp, s.audio.sample_rate);
  SessionWorkspace workspace;

  const auto planless = try_localize(s, config);
  const auto planned = try_localize(s, config, context, workspace);
  ASSERT_TRUE(planless.has_value());
  ASSERT_TRUE(planned.has_value());
  EXPECT_EQ(planless->valid, planned->valid);
  EXPECT_EQ(planless->estimated_position.x, planned->estimated_position.x);
  EXPECT_EQ(planless->estimated_position.y, planned->estimated_position.y);
  EXPECT_EQ(planless->range, planned->range);
  EXPECT_EQ(planless->estimated_period, planned->estimated_period);
  EXPECT_EQ(planless->sfo_ppm, planned->sfo_ppm);
  EXPECT_EQ(planless->slides_used, planned->slides_used);
}

TEST(PipelineContext, MismatchedContextFallsBackToLocalPlans) {
  const sim::Session s = small_session(602);
  const AspOptions options;

  // A context for a *different* chirp: the pipeline must notice and build
  // its own plans rather than correlate against the wrong reference.
  dsp::ChirpParams other = s.prior.chirp;
  other.freq_high_hz += 500.0;
  const PipelineContext wrong(options, other, s.audio.sample_rate);
  ASSERT_FALSE(wrong.matches(options, s.prior.chirp, s.audio.sample_rate));

  const AspResult honest =
      preprocess_audio(s.audio, s.prior.chirp, s.prior.nominal_period,
                       s.prior.calibration_duration, options);
  const AspResult guarded =
      preprocess_audio(s.audio, s.prior.chirp, s.prior.nominal_period,
                       s.prior.calibration_duration, options, &wrong);
  expect_identical_asp(honest, guarded);

  // Same for a sample-rate mismatch.
  const PipelineContext wrong_fs(options, s.prior.chirp, s.audio.sample_rate * 2.0);
  ASSERT_FALSE(wrong_fs.matches(options, s.prior.chirp, s.audio.sample_rate));
}

TEST(PipelineContext, PlansMatchTheirInputs) {
  const sim::Session s = small_session(603);
  const AspOptions options;
  const PipelineContext context(options, s.prior.chirp, s.audio.sample_rate);
  EXPECT_EQ(context.sample_rate(), s.audio.sample_rate);
  EXPECT_TRUE(context.asp_options() == options);
  EXPECT_TRUE(context.chirp_params() == s.prior.chirp);
  EXPECT_EQ(context.detector().reference().size(),
            context.chirp().reference(s.audio.sample_rate).size());
  // The probe-only band-pass is always built: 255 taps over the chirp band.
  ASSERT_NE(context.bandpass_convolver(), nullptr);
  EXPECT_EQ(context.bandpass_convolver()->kernel_size(), 255u);

  AspOptions stricter = options;
  stricter.detector_threshold += 0.01;
  const PipelineContext other(stricter, s.prior.chirp, s.audio.sample_rate);
  EXPECT_FALSE(other.matches(options, s.prior.chirp, s.audio.sample_rate));
}

TEST(PipelineContext, RejectsInvalidInputsAtConstruction) {
  const dsp::ChirpParams chirp;
  EXPECT_THROW(PipelineContext(AspOptions{}, chirp, 0.0), PreconditionError);
  AspOptions bad;
  bad.detector_threshold = 2.0;
  EXPECT_THROW(PipelineContext(bad, chirp, 44100.0), PreconditionError);
}

}  // namespace
}  // namespace hyperear::core
