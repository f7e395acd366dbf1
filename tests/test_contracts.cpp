/// The contracts layer (common/contracts.hpp, DESIGN.md §11): in checked
/// builds every HE_* macro throws core::InvariantError naming the offending
/// expression; in NDEBUG builds the macros parse but never evaluate their
/// argument. The retrofit samples at the bottom pin the behavior of real
/// entry points in both modes — this suite runs in the default
/// (RelWithDebInfo, contracts off) build AND under the asan/tsan presets
/// (contracts on), so both columns of the build-mode matrix are exercised.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/parallel.hpp"
#include "core/status.hpp"
#include "dsp/ols.hpp"
#include "geom/triangulation.hpp"
#include "runtime/engine.hpp"
#include "sim/scenario.hpp"

namespace hyperear {
namespace {

[[maybe_unused]] bool mentions(const std::exception& e, const std::string& needle) {
  return std::string(e.what()).find(needle) != std::string::npos;
}

#if HE_CONTRACTS_ENABLED

TEST(Contracts, ExpectsThrowsInvariantErrorNamingTheExpression) {
  const int answer = 41;
  try {
    HE_EXPECTS(answer == 42);
    FAIL() << "HE_EXPECTS did not fire";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "HE_EXPECTS"));
    EXPECT_TRUE(mentions(e, "answer == 42"));
    EXPECT_TRUE(mentions(e, "precondition"));
  }
}

TEST(Contracts, EnsuresThrowsInvariantErrorNamingTheExpression) {
  const double residual = 2.0;
  try {
    HE_ENSURES(residual < 1.0);
    FAIL() << "HE_ENSURES did not fire";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "HE_ENSURES"));
    EXPECT_TRUE(mentions(e, "residual < 1.0"));
    EXPECT_TRUE(mentions(e, "postcondition"));
  }
}

TEST(Contracts, AssertFiniteCatchesScalarNan) {
  const double bad = std::numeric_limits<double>::quiet_NaN();
  try {
    HE_ASSERT_FINITE(bad);
    FAIL() << "HE_ASSERT_FINITE did not fire";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "HE_ASSERT_FINITE"));
    EXPECT_TRUE(mentions(e, "bad"));
  }
}

TEST(Contracts, AssertFiniteSweepsRangesAndPassesCleanOnes) {
  std::vector<double> xs{1.0, -2.5, 3.0};
  EXPECT_NO_THROW(HE_ASSERT_FINITE(xs));
  xs[1] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(HE_ASSERT_FINITE(xs), core::InvariantError);
}

TEST(ContractsRetrofit, NestedChunkPassOnOneThreadFiresTheContract) {
  // Both passes would run on the thread's one scratch; the lease refuses
  // the inner one, and unwinding releases the outer one.
  const core::SerialChunkExecutor serial;
  const core::ChunkExecutor::Task nested = [&](std::size_t, core::ChunkScratch&) {
    (void)serial.run(1, [](std::size_t, core::ChunkScratch&) {});
  };
  try {
    (void)serial.run(1, nested);
    FAIL() << "a nested chunk pass was let through";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "!state_->leased"));
  }
  const core::ThreadScratchLease lease;  // released on the way out
  EXPECT_THROW(core::ThreadScratchLease{}, core::InvariantError);
}

TEST(Contracts, PassingConditionsAreSilent) {
  EXPECT_NO_THROW(HE_EXPECTS(2 + 2 == 4));
  EXPECT_NO_THROW(HE_ENSURES(true));
  EXPECT_NO_THROW(HE_ASSERT_FINITE(0.0));
}

TEST(Contracts, InvariantErrorSitsInTheTaxonomy) {
  // IS-A PreconditionError (legacy catch sites keep working) and classifies
  // to the precondition category like one.
  const core::InvariantError e("contract violated: x > 0");
  EXPECT_NE(dynamic_cast<const PreconditionError*>(&e), nullptr);
  EXPECT_EQ(core::classify_exception(e), core::ErrorCategory::precondition);
}

// --- retrofitted entry points, checked-build column ---

TEST(ContractsRetrofit, ZeroLengthOlsKernelFiresTheContract) {
  try {
    const dsp::OlsConvolver conv{std::vector<double>{}};
    FAIL() << "empty kernel accepted";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "kernel_.empty()"));
  }
}

TEST(ContractsRetrofit, NegativeSlideDistanceFiresTheContract) {
  geom::AugmentedTdoa in;
  in.slide_distance = -0.55;
  in.mic_separation = 0.14;
  try {
    (void)geom::solve_augmented(in);
    FAIL() << "negative slide distance accepted";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "slide_distance > 0.0"));
  }
}

TEST(ContractsRetrofit, SubmitAfterShutdownFiresTheContract) {
  runtime::BatchEngine engine({}, 1);
  engine.shutdown();
  sim::Session session;
  try {
    (void)engine.submit(session);
    FAIL() << "submit after shutdown accepted";
  } catch (const core::InvariantError& e) {
    EXPECT_TRUE(mentions(e, "stopped()"));
  }
  // The contract fires before the submitted counter moves: no stats drift.
  EXPECT_EQ(engine.stats().submitted, 0u);
}

#else  // !HE_CONTRACTS_ENABLED — the NDEBUG column of the matrix.

TEST(Contracts, MacrosAreNoOpsAndDoNotEvaluateTheCondition) {
  int calls = 0;
  const auto probe = [&calls] {
    ++calls;
    return false;
  };
  HE_EXPECTS(probe());
  HE_ENSURES(probe());
  EXPECT_EQ(calls, 0) << "a disabled contract evaluated its condition";
  const double not_finite = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW(HE_ASSERT_FINITE(not_finite));
}

// --- retrofitted entry points, release column: the always-on `require`
// tier still guards the same mistakes, as PreconditionError.

TEST(ContractsRetrofit, ZeroLengthOlsKernelStillThrowsPreconditionError) {
  EXPECT_THROW(dsp::OlsConvolver{std::vector<double>{}}, PreconditionError);
}

TEST(ContractsRetrofit, NegativeSlideDistanceStillThrowsPreconditionError) {
  geom::AugmentedTdoa in;
  in.slide_distance = -0.55;
  in.mic_separation = 0.14;
  EXPECT_THROW((void)geom::solve_augmented(in), PreconditionError);
}

TEST(ContractsRetrofit, SubmitAfterShutdownStillThrowsPreconditionError) {
  runtime::BatchEngine engine({}, 1);
  engine.shutdown();
  sim::Session session;
  EXPECT_THROW((void)engine.submit(session), PreconditionError);
  EXPECT_EQ(engine.stats().submitted, 0u);
}

#endif  // HE_CONTRACTS_ENABLED

}  // namespace
}  // namespace hyperear
