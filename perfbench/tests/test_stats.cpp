#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileRule, NamedQuantileWhenTenSamplesLieBeyondIt) {
  // 1000 samples: p99 has exactly 10 beyond it, so p99 itself is reported.
  const Percentile p = percentile(one_to(1000), 0.99);
  EXPECT_DOUBLE_EQ(p.quantile, 0.99);
  EXPECT_EQ(p.n, 1000u);
  EXPECT_DOUBLE_EQ(p.value, 990.0);
}

TEST(PercentileRule, FallsBackToHighestSupportedQuantile) {
  // 200 samples cannot support p99 (2 beyond): report q = 1 - 10/200.
  const Percentile p = percentile(one_to(200), 0.99);
  EXPECT_DOUBLE_EQ(p.quantile, 0.95);
  EXPECT_DOUBLE_EQ(p.value, 190.0);
  std::size_t beyond = 0;
  for (const double v : one_to(200)) beyond += v > p.value ? 1 : 0;
  EXPECT_EQ(beyond, kTailSupport);
}

TEST(PercentileRule, NeverBelowTheMedian) {
  EXPECT_DOUBLE_EQ(supported_quantile(0.9, 12), 0.5);
  EXPECT_DOUBLE_EQ(supported_quantile(0.9, 0), 0.5);
  const Percentile p = percentile(one_to(5), 0.99);
  EXPECT_DOUBLE_EQ(p.quantile, 0.5);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5).value, 0.0);
}

TEST(PercentileRule, MedianOfUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.5).value, 3.0);
}

Span span(std::uint64_t id, std::uint64_t parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ms = start;
  s.end_ms = end;
  return s;
}

TEST(SelfTime, NestedChildrenSubtractOnlyDirectChildren) {
  // session [0,100] > asp [10,60] > detect [20,50]; msp [70,80].
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 60),
                                   span(3, 2, 20, 50), span(4, 1, 70, 80)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 50.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 50.0 - 30.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 10.0);
}

TEST(SelfTime, OverlappingChildrenCountCoveredTimeOnce) {
  // Two parallel children [10,40] and [30,60] cover [10,60]: 50 ms.
  const std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                                   span(3, 1, 30, 60)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 50.0);
}

TEST(SelfTime, ChildSpillingPastParentIsClipped) {
  const std::vector<Span> spans = {span(1, 0, 10, 20), span(2, 1, 5, 15),
                                   span(3, 1, 18, 30)};
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 10.0 - 5.0 - 2.0);
}

TEST(SelfTime, ChildContainedInAnotherChildAndOrphans) {
  const std::vector<Span> spans = {span(1, 0, 0, 10), span(2, 1, 2, 8), span(3, 1, 3, 4),
                                   span(4, 99, 0, 1)};
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 4.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);  // unknown parent: a root
}

TEST(FailureAccounting, EveryNonFixOutcomeButSlideAgainFails) {
  Tally t;
  t.add(Outcome::fix);
  t.add(Outcome::fix);
  t.add(Outcome::no_fix);  // "slide again": completed, not failed
  t.add(Outcome::shed);
  t.add(Outcome::expired);
  t.add(Outcome::cancelled);
  t.add(Outcome::error);
  t.add(Outcome::mismatch);
  EXPECT_EQ(t.attempted(), 8u);
  EXPECT_EQ(t.completed(), 3u);
  EXPECT_EQ(t.failed(), 5u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 5.0 / 8.0);
  for (const Outcome o : {Outcome::shed, Outcome::expired, Outcome::cancelled,
                          Outcome::error, Outcome::mismatch}) {
    EXPECT_TRUE(is_failure(o)) << to_string(o);
  }
  EXPECT_FALSE(is_failure(Outcome::fix));
  EXPECT_FALSE(is_failure(Outcome::no_fix));
}

TEST(FailureAccounting, EmptyTallyHasNoShares) {
  const Tally t;
  EXPECT_EQ(t.attempted(), 0u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.0);
}

TEST(OpenLoopLatency, MeasuredFromDueTimeNotFromSend) {
  // Due at 100 ms, the generator stalled and its submit returned at 130 ms,
  // the server then took 50 ms: the user waited 80 ms, not 50.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(100.0, 130.0, 50.0), 80.0);
  // On time: only the call itself and the server's time count.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(100.0, 100.5, 50.0), 50.5);
  // A stall charges every request that fell due during it.
  EXPECT_DOUBLE_EQ(latency_from_due_ms(0.0, 130.0, 50.0) - latency_from_due_ms(120.0, 130.0, 50.0),
                   120.0);
}

}  // namespace
}  // namespace perfbench
