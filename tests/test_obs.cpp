/// Tests of the observability layer itself (ctest label "obs"): histogram
/// bucket semantics, concurrent shard-merge determinism, exporter golden
/// strings, the null-sink contract (instrumented results bit-identical to
/// uninstrumented ones), tracer span structure, and the engine's
/// registry-backed stats() view round-tripping every error category.

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/pipeline_context.hpp"
#include "core/session_workspace.hpp"
#include "core/status.hpp"
#include "obs/trace.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

namespace hyperear::obs {
namespace {

// --------------------------------------------------------------------------
// Counters / gauges

TEST(Metrics, CounterAccumulatesAndMergesShards) {
  MetricsRegistry registry;
  const Counter c = registry.counter("requests_total");
  EXPECT_TRUE(static_cast<bool>(c));
  EXPECT_EQ(c.value(), 0.0);
  c.inc();
  c.inc(2.0);
  EXPECT_EQ(c.value(), 3.0);
}

TEST(Metrics, SameNameYieldsTheSameSeries) {
  MetricsRegistry registry;
  const Counter a = registry.counter("shared");
  const Counter b = registry.counter("shared");
  a.inc();
  b.inc();
  EXPECT_EQ(a.value(), 2.0);
  EXPECT_EQ(b.value(), 2.0);
  ASSERT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(Metrics, GaugeSetIsLastWriteWinsAndAddTracksLevels) {
  MetricsRegistry registry;
  const Gauge g = registry.gauge("queue.depth");
  g.set(5.0);
  EXPECT_EQ(g.value(), 5.0);
  g.add(2.0);
  g.add(-3.0);
  EXPECT_EQ(g.value(), 4.0);
}

// --------------------------------------------------------------------------
// Histogram bucket boundaries (Prometheus `le`: value <= bound)

TEST(Metrics, HistogramBucketBoundariesAreLeInclusive) {
  MetricsRegistry registry;
  const double bounds[] = {1.0, 2.0, 5.0};
  const Histogram h = registry.histogram("latency_ms", bounds);
  h.observe(-3.0);  // below everything -> first bucket
  h.observe(1.0);   // exactly on a bound -> that bucket (le semantics)
  h.observe(1.5);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(5.0001);  // above the last bound -> +Inf bucket

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSnapshot& hs = snap.histograms[0];
  ASSERT_EQ(hs.counts.size(), 4u);  // 3 bounds + implicit +Inf
  EXPECT_EQ(hs.counts[0], 2u);      // -3, 1.0
  EXPECT_EQ(hs.counts[1], 2u);      // 1.5, 2.0
  EXPECT_EQ(hs.counts[2], 1u);      // 5.0
  EXPECT_EQ(hs.counts[3], 1u);      // 5.0001
  EXPECT_EQ(hs.count, 6u);
  EXPECT_DOUBLE_EQ(hs.sum, -3.0 + 1.0 + 1.5 + 2.0 + 5.0 + 5.0001);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  MetricsRegistry registry;
  const std::vector<double> empty;
  EXPECT_THROW(std::ignore = registry.histogram("h", empty), PreconditionError);
  const double unsorted[] = {1.0, 1.0};
  EXPECT_THROW(std::ignore = registry.histogram("h", unsorted), PreconditionError);
  const double good[] = {1.0, 2.0};
  EXPECT_NO_THROW(std::ignore = registry.histogram("h", good));
  const double different[] = {1.0, 3.0};
  EXPECT_THROW(std::ignore = registry.histogram("h", different), PreconditionError);
  // Same bounds re-register fine and share the series.
  const Histogram again = registry.histogram("h", good);
  again.observe(0.5);
  EXPECT_EQ(registry.snapshot().histograms[0].count, 1u);
}

// --------------------------------------------------------------------------
// Concurrent shard merge determinism

TEST(Metrics, ConcurrentIncrementsMergeExactly) {
  MetricsRegistry registry;
  const Counter c = registry.counter("hits");
  const double bounds[] = {10.0, 100.0, 1000.0};
  const Histogram h = registry.histogram("sizes", bounds);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<double>(i % 4) * 100.0);  // 0,100,200,300 -> buckets 0,1,2,2
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Integral increments + fixed shard merge order => exact, deterministic
  // totals regardless of how the writers interleaved.
  EXPECT_EQ(c.value(), static_cast<double>(kThreads * kPerThread));
  const MetricsSnapshot a = registry.snapshot();
  const MetricsSnapshot b = registry.snapshot();
  ASSERT_EQ(a.histograms.size(), 1u);
  EXPECT_EQ(a.histograms[0].count, kThreads * kPerThread);
  EXPECT_EQ(a.histograms[0].counts[0], kThreads * kPerThread / 4);      // 0
  EXPECT_EQ(a.histograms[0].counts[1], kThreads * kPerThread / 4);      // 100
  EXPECT_EQ(a.histograms[0].counts[2], kThreads * kPerThread / 2);      // 200, 300
  EXPECT_EQ(a.histograms[0].counts[3], 0u);
  EXPECT_EQ(a.histograms[0].sum, b.histograms[0].sum);
  EXPECT_EQ(a.counters, b.counters);
}

// --------------------------------------------------------------------------
// Exporter golden strings (integral values print bare, so the renderings
// are exact)

MetricsRegistry& golden_registry(MetricsRegistry& registry) {
  registry.counter("requests_total").inc(3.0);
  registry.gauge("queue.depth").set(2.0);
  const double bounds[] = {1.0, 5.0};
  const Histogram h = registry.histogram("latency_ms", bounds);
  h.observe(0.5);
  h.observe(3.0);
  h.observe(10.0);
  return registry;
}

TEST(Metrics, JsonExporterGolden) {
  MetricsRegistry registry;
  EXPECT_EQ(golden_registry(registry).to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"requests_total\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"queue.depth\": 2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"latency_ms\": {\"le\": [1, 5], \"counts\": [1, 1, 1], "
            "\"count\": 3, \"sum\": 13.5}\n"
            "  }\n"
            "}\n");
}

TEST(Metrics, JsonExporterEmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n");
}

TEST(Metrics, PrometheusExporterGolden) {
  MetricsRegistry registry;
  // "queue.depth" must sanitize to queue_depth; buckets are cumulative.
  EXPECT_EQ(golden_registry(registry).to_prometheus(),
            "# TYPE requests_total counter\n"
            "requests_total 3\n"
            "# TYPE queue_depth gauge\n"
            "queue_depth 2\n"
            "# TYPE latency_ms histogram\n"
            "latency_ms_bucket{le=\"1\"} 1\n"
            "latency_ms_bucket{le=\"5\"} 2\n"
            "latency_ms_bucket{le=\"+Inf\"} 3\n"
            "latency_ms_sum 13.5\n"
            "latency_ms_count 3\n");
}

// --------------------------------------------------------------------------
// Null-sink contract

TEST(Metrics, NullHandlesAreInertNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_FALSE(static_cast<bool>(h));
  c.inc();
  g.set(5.0);
  g.add(1.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0.0);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Trace, NullTracerSpanIsInert) {
  TraceSpan inert;
  EXPECT_FALSE(static_cast<bool>(inert));
  TraceSpan with_null(nullptr, "asp", 1);
  EXPECT_FALSE(static_cast<bool>(with_null));
  with_null.finish();  // no-op, no crash
}

// --------------------------------------------------------------------------
// Tracer span structure

TEST(Trace, ParentChildStructureAndIdOrder) {
  Tracer tracer;
  {
    TraceSpan session(&tracer, "session", 7);
    {
      TraceSpan asp(&tracer, "asp", 7, &session);
      TraceSpan msp(&tracer, "msp", 7, &session);
    }
  }
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].name, "session");
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_EQ(spans[1].name, "asp");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].name, "msp");
  EXPECT_EQ(spans[2].parent, spans[0].id);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.session, 7u);
    EXPECT_GE(s.duration_ms, 0.0);
    EXPECT_GE(s.start_ms, 0.0);
  }
  // The parent outlived its children, so it must cover them.
  EXPECT_LE(spans[0].start_ms, spans[1].start_ms);
  EXPECT_GE(spans[0].start_ms + spans[0].duration_ms,
            spans[2].start_ms + spans[2].duration_ms);
}

TEST(Trace, MoveTransfersThePendingRecord) {
  Tracer tracer;
  {
    TraceSpan a(&tracer, "moved", 1);
    TraceSpan b = std::move(a);
    // NOLINTNEXTLINE(bugprone-use-after-move) -- the moved-from probe IS the
    // test: a must read as inactive after the transfer.
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
  }
  ASSERT_EQ(tracer.snapshot().size(), 1u);  // recorded once, not twice
  EXPECT_EQ(tracer.snapshot()[0].name, "moved");
}

// --------------------------------------------------------------------------
// Null-sink bit-identity through the real pipeline

sim::Session small_session(std::uint64_t seed) {
  sim::ScenarioConfig c;
  c.speaker_distance = 4.0;
  c.slides_per_stature = 3;
  c.calibration_duration = 3.0;
  c.jitter = sim::ruler_jitter();
  Rng rng(seed);
  return sim::make_localization_session(c, rng);
}

TEST(Obs, PipelineResultBitIdenticalWithAndWithoutRegistry) {
  const sim::Session session = small_session(900);
  const auto plain = core::try_localize(session);
  ASSERT_TRUE(plain.has_value());

  MetricsRegistry registry;
  Tracer tracer;
  const ObsContext obs{&registry, &tracer, 42};
  const auto traced = core::try_localize(session, {}, nullptr, &obs);
  ASSERT_TRUE(traced.has_value());

  // Metrics observe, never steer: every deterministic result field must be
  // bit-identical to the uninstrumented run.
  EXPECT_EQ(plain->valid, traced->valid);
  EXPECT_EQ(plain->slides_used, traced->slides_used);
  EXPECT_EQ(plain->estimated_position.x, traced->estimated_position.x);
  EXPECT_EQ(plain->estimated_position.y, traced->estimated_position.y);
  EXPECT_EQ(plain->range, traced->range);
  EXPECT_EQ(plain->estimated_period, traced->estimated_period);
  EXPECT_EQ(plain->sfo_ppm, traced->sfo_ppm);

  // ...and the instrumented run actually reported telemetry.
  const MetricsSnapshot snap = registry.snapshot();
  double sessions_total = 0.0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "pipeline.sessions_total") sessions_total = value;
  }
  EXPECT_EQ(sessions_total, 1.0);
  const std::vector<SpanRecord> spans = tracer.snapshot();
  ASSERT_GE(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "session");
  EXPECT_EQ(spans[0].session, 42u);
  EXPECT_EQ(spans[1].parent, spans[0].id);  // stages nest under the root
}

TEST(Obs, AspChunkTaskCountersCountEveryTaskAndOnlyHelpedOnes) {
  // The ASP stage counts its (channel, detector-chunk) tasks on the
  // session's registry; the serial executor has no helpers.
  const sim::Session session = small_session(901);
  const core::PipelineConfig config;
  const core::PipelineContext context(config, session.prior.chirp,
                                      session.audio.sample_rate);
  core::SessionWorkspace workspace;
  MetricsRegistry registry;
  const ObsContext obs{&registry, nullptr, 7};
  const auto traced = core::try_localize(session, config, context, workspace, nullptr, &obs);
  const auto plain = core::try_localize(session, config, context, workspace);
  ASSERT_TRUE(traced.has_value());
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(traced->estimated_position.x, plain->estimated_position.x);
  EXPECT_EQ(traced->estimated_position.y, plain->estimated_position.y);
  EXPECT_EQ(traced->estimated_period, plain->estimated_period);

  const std::size_t chunks = context.detector().chunk_count(session.audio.mic1.size());
  ASSERT_GE(chunks, 2u);
  EXPECT_EQ(registry.counter("asp.chunk_tasks_total").value(),
            static_cast<double>(core::SessionWorkspace::kChannels * chunks));
  EXPECT_EQ(registry.counter("asp.chunk_tasks_helped_total").value(), 0.0);

  // Through a one-worker engine: the same tasks, still nobody to help.
  auto engine_registry = std::make_shared<MetricsRegistry>();
  runtime::EngineObs eo;
  eo.registry = engine_registry;
  runtime::Engine engine(config, 1, eo);
  ASSERT_EQ(engine.submit(session).get().status, runtime::SessionStatus::ok);
  EXPECT_EQ(engine_registry->counter("asp.chunk_tasks_total").value(),
            static_cast<double>(core::SessionWorkspace::kChannels * chunks));
  EXPECT_EQ(engine_registry->counter("asp.chunk_tasks_helped_total").value(), 0.0);
}

// --------------------------------------------------------------------------
// EngineStats::errors_by_category round-trips every category (the extent is
// derived from the enum, not hardcoded)

static_assert(std::tuple_size_v<decltype(runtime::EngineStats::errors_by_category)> ==
                  core::kErrorCategoryCount,
              "stats view must cover every ErrorCategory");

TEST(Obs, EveryErrorCategoryRoundTripsThroughTheStatsView) {
  // Pre-charge the category counters on a shared registry using the same
  // names the engine registers; its stats() view must surface every one.
  auto registry = std::make_shared<MetricsRegistry>();
  std::set<std::string> names;
  for (std::size_t i = 0; i < core::kErrorCategoryCount; ++i) {
    const auto category = static_cast<core::ErrorCategory>(i);
    ASSERT_NE(core::to_string(category), nullptr);
    const std::string name =
        std::string("engine.errors_by_category.") + core::to_string(category);
    EXPECT_TRUE(names.insert(name).second) << "duplicate name: " << name;
    registry->counter(name).inc(static_cast<double>(i + 1));
  }

  runtime::EngineObs obs;
  obs.registry = registry;
  const runtime::Engine engine({}, 1, obs);
  const runtime::EngineStats stats = engine.stats();
  for (std::size_t i = 0; i < core::kErrorCategoryCount; ++i) {
    EXPECT_EQ(stats.errors_by_category[i], i + 1)
        << "category " << core::to_string(static_cast<core::ErrorCategory>(i));
  }
}

}  // namespace
}  // namespace hyperear::obs
