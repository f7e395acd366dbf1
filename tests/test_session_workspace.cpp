/// SessionWorkspace + arena: the canonical context-taking pipeline spelling
/// and its context-free wrappers must be the SAME computation — bit-identical
/// results whatever workspace history is — and a reused workspace must only
/// ever retain capacity, never information. The arena tests pin the
/// reset-retains-capacity contract the steady-state engine path relies on.

#include "core/session_workspace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "core/asp.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "sim/scenario.hpp"

namespace hyperear::core {
namespace {

sim::Session small_session(std::uint64_t seed, double calibration = 3.0,
                           int slides = 3) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = slides;
  c.calibration_duration = calibration;
  c.jitter = sim::ruler_jitter();
  Rng rng(seed);
  return sim::make_localization_session(c, rng);
}

void expect_identical_results(const LocalizationResult& a,
                              const LocalizationResult& b) {
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.estimated_position.x, b.estimated_position.x);
  EXPECT_EQ(a.estimated_position.y, b.estimated_position.y);
  EXPECT_EQ(a.range, b.range);
  EXPECT_EQ(a.estimated_period, b.estimated_period);
  EXPECT_EQ(a.sfo_ppm, b.sfo_ppm);
  EXPECT_EQ(a.slides_used, b.slides_used);
}

void expect_identical_asp(const AspResult& a, const AspResult& b) {
  ASSERT_EQ(a.mic1.size(), b.mic1.size());
  ASSERT_EQ(a.mic2.size(), b.mic2.size());
  for (std::size_t i = 0; i < a.mic1.size(); ++i) {
    EXPECT_EQ(a.mic1[i].time_s, b.mic1[i].time_s);
    EXPECT_EQ(a.mic1[i].score, b.mic1[i].score);
    EXPECT_EQ(a.mic1[i].amplitude, b.mic1[i].amplitude);
  }
  for (std::size_t i = 0; i < a.mic2.size(); ++i) {
    EXPECT_EQ(a.mic2[i].time_s, b.mic2[i].time_s);
  }
  EXPECT_EQ(a.estimated_period, b.estimated_period);
  EXPECT_EQ(a.sfo_ppm, b.sfo_ppm);
  EXPECT_EQ(a.sfo_estimated, b.sfo_estimated);
}

// --- wrapper == canonical ------------------------------------------------

TEST(SessionWorkspace, CanonicalTryLocalizeBitIdenticalToWrappers) {
  const sim::Session s = small_session(700);
  const PipelineConfig config;
  const PipelineContext context(config, s.prior.chirp, s.audio.sample_rate);
  SessionWorkspace workspace;

  const auto canonical = try_localize(s, config, context, workspace);
  const auto context_free = try_localize(s, config);
  const LocalizationResult throwing = localize(s, config);
  ASSERT_TRUE(canonical.has_value());
  ASSERT_TRUE(context_free.has_value());
  expect_identical_results(*canonical, *context_free);
  expect_identical_results(*canonical, throwing);
}

TEST(SessionWorkspace, CanonicalAspBitIdenticalToLegacySpelling) {
  const sim::Session s = small_session(701);
  const AspOptions options;
  const PipelineContext context(options, s.prior.chirp, s.audio.sample_rate);
  SessionWorkspace workspace;

  const AspResult canonical =
      preprocess_audio(s.audio, s.prior.nominal_period,
                       s.prior.calibration_duration, context, workspace);
  const AspResult legacy =
      preprocess_audio(s.audio, s.prior.chirp, s.prior.nominal_period,
                       s.prior.calibration_duration, options);
  expect_identical_asp(canonical, legacy);
}

// --- reuse retains capacity, never information ---------------------------

TEST(SessionWorkspace, ReuseAcrossDifferingSessionLengthsStaysBitIdentical) {
  // Alternate a long and a short session through ONE workspace, in both
  // orders: every run must equal the same session through a fresh
  // workspace, or buffer contents are leaking across sessions.
  const sim::Session long_s = small_session(702, 4.0, 4);
  const sim::Session short_s = small_session(703, 2.5, 2);
  ASSERT_NE(long_s.audio.mic1.size(), short_s.audio.mic1.size());
  const PipelineConfig config;
  const PipelineContext ctx_long(config, long_s.prior.chirp,
                                 long_s.audio.sample_rate);
  const PipelineContext ctx_short(config, short_s.prior.chirp,
                                  short_s.audio.sample_rate);

  const auto fresh_long = [&] {
    SessionWorkspace fresh;
    return try_localize(long_s, config, ctx_long, fresh);
  }();
  const auto fresh_short = [&] {
    SessionWorkspace fresh;
    return try_localize(short_s, config, ctx_short, fresh);
  }();
  ASSERT_TRUE(fresh_long.has_value());
  ASSERT_TRUE(fresh_short.has_value());

  SessionWorkspace shared;
  for (int round = 0; round < 2; ++round) {
    const auto warm_long = try_localize(long_s, config, ctx_long, shared);
    const auto warm_short = try_localize(short_s, config, ctx_short, shared);
    ASSERT_TRUE(warm_long.has_value());
    ASSERT_TRUE(warm_short.has_value());
    expect_identical_results(*warm_long, *fresh_long);
    expect_identical_results(*warm_short, *fresh_short);
  }
}

TEST(SessionWorkspace, MismatchedContextStillFallsBackToLocalPlans) {
  // The canonical spelling must never let a stale cache change results: a
  // context built for a different chirp is detected and rebuilt locally.
  const sim::Session s = small_session(704);
  const PipelineConfig config;
  dsp::ChirpParams other = s.prior.chirp;
  other.freq_high_hz += 500.0;
  const PipelineContext wrong(config, other, s.audio.sample_rate);
  SessionWorkspace workspace;

  const auto guarded = try_localize(s, config, wrong, workspace);
  const auto honest = try_localize(s, config);
  ASSERT_TRUE(guarded.has_value());
  ASSERT_TRUE(honest.has_value());
  expect_identical_results(*guarded, *honest);
}

// --- arena ---------------------------------------------------------------

TEST(Arena, ResetRetainsCapacityAndStopsGrowing) {
  MonotonicArena arena;
  EXPECT_EQ(arena.capacity_bytes(), 0u);  // lazy first block

  const auto churn = [&arena] {
    ArenaVector<double> v{ArenaAllocator<double>{arena}};
    for (int i = 0; i < 10000; ++i) v.push_back(static_cast<double>(i));
    return v.back();
  };
  (void)churn();
  const std::size_t warm = arena.capacity_bytes();
  EXPECT_GT(warm, 0u);
  for (int round = 0; round < 5; ++round) {
    arena.reset();
    EXPECT_EQ(arena.used_bytes(), 0u);
    EXPECT_EQ(churn(), 9999.0);
    EXPECT_EQ(arena.capacity_bytes(), warm)
        << "arena grew on round " << round << " despite reset";
  }
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  MonotonicArena arena;
  void* a = arena.allocate(3, 1);
  void* b = arena.allocate(16, 16);
  void* c = arena.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 8, 0u);
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  // Oversized request: dedicated block, still served.
  void* big = arena.allocate((std::size_t{1} << 23) + 5, 32);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.capacity_bytes(), (std::size_t{1} << 23) + 5);
}

TEST(Arena, VectorsSurviveGrowthAcrossBlocks) {
  MonotonicArena arena(64);  // tiny first block forces block-chain growth
  ArenaVector<int> v{ArenaAllocator<int>{arena}};
  for (int i = 0; i < 5000; ++i) v.push_back(i);
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SessionWorkspace, ArenaCapacityStableAcrossSessions) {
  // The workspace arena must reach steady state: after one session warmed
  // it, further sessions of the same shape must not grow it.
  const sim::Session s = small_session(705);
  const PipelineConfig config;
  const PipelineContext context(config, s.prior.chirp, s.audio.sample_rate);
  SessionWorkspace workspace;

  ASSERT_TRUE(try_localize(s, config, context, workspace).has_value());
  const std::size_t warm = workspace.arena().capacity_bytes();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(try_localize(s, config, context, workspace).has_value());
    EXPECT_EQ(workspace.arena().capacity_bytes(), warm);
  }
}

}  // namespace
}  // namespace hyperear::core
