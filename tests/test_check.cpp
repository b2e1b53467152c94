// Contract-macro semantics (src/util/check.h) and the negative paths of the
// matching audit (validate_matching, over station capacities) that the
// scheduler runs under DGS_DCHECK.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/matching.h"
#include "src/util/check.h"

namespace dgs {
namespace {

using core::Edge;
using core::Matching;

::testing::AssertionResult Contains(const std::string& haystack,
                                    const std::string& needle) {
  if (haystack.find(needle) != std::string::npos) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "expected \"" << haystack << "\" to contain \"" << needle << "\"";
}

// --- DGS_ENSURE: throws std::invalid_argument with a formatted report ------

TEST(CheckTest, EnsurePassesSilently) {
  EXPECT_NO_THROW(DGS_ENSURE(1 + 1 == 2));
  EXPECT_NO_THROW(DGS_ENSURE_GT(2.0, 1.0));
}

TEST(CheckTest, EnsureThrowsInvalidArgument) {
  EXPECT_THROW(DGS_ENSURE(false), std::invalid_argument);
}

TEST(CheckTest, EnsureMessageCarriesLocationAndExpression) {
  try {
    const double bytes = -3.5;
    DGS_ENSURE(bytes >= 0.0, "bytes=" << bytes);
    FAIL() << "DGS_ENSURE did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_TRUE(Contains(what, "DGS_ENSURE failed at "));
    EXPECT_TRUE(Contains(what, "test_check.cpp"));
    EXPECT_TRUE(Contains(what, "bytes >= 0.0"));
    EXPECT_TRUE(Contains(what, "bytes=-3.5"));
  }
}

TEST(CheckTest, EnsureOpCapturesBothOperands) {
  try {
    const int queued = 7;
    const int capacity = 3;
    DGS_ENSURE_LE(queued, capacity);
    FAIL() << "DGS_ENSURE_LE did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_TRUE(Contains(what, "queued <= capacity"));
    EXPECT_TRUE(Contains(what, "7 vs 3"));
  }
}

TEST(CheckTest, EnsureOpEvaluatesOperandsExactlyOnce) {
  int calls = 0;
  const auto count = [&calls] { return ++calls; };
  DGS_ENSURE_GE(count(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(CheckTest, EnsureConditionNotReevaluatedOnSuccess) {
  int calls = 0;
  const auto touch = [&calls] {
    ++calls;
    return true;
  };
  DGS_ENSURE(touch());
  EXPECT_EQ(calls, 1);
}

// --- DGS_CHECK: aborts with the report on stderr ---------------------------

TEST(CheckDeathTest, CheckAbortsWithFormattedReport) {
  const int station = 4;
  EXPECT_DEATH(DGS_CHECK(station < 2, "station=" << station),
               "DGS_CHECK failed at .*test_check\\.cpp:[0-9]+: "
               "station < 2 \\(station=4\\)");
}

TEST(CheckDeathTest, CheckOpReportsOperands) {
  EXPECT_DEATH(DGS_CHECK_EQ(2 + 2, 5), "2 \\+ 2 == 5 \\(4 vs 5\\)");
}

TEST(CheckTest, CheckPassesSilently) {
  DGS_CHECK(true);
  DGS_CHECK_LT(1, 2);
}

// --- DGS_DCHECK: active iff DGS_ENABLE_DCHECKS -----------------------------

#ifdef DGS_ENABLE_DCHECKS
TEST(CheckDeathTest, DcheckActiveInDcheckBuilds) {
  EXPECT_DEATH(DGS_DCHECK(false, "audit context"), "audit context");
}
#else
TEST(CheckTest, DcheckCompiledOutSkipsEvaluation) {
  int calls = 0;
  const auto count = [&calls] { return ++calls > 0; };
  DGS_DCHECK(count());
  EXPECT_EQ(calls, 0);
}
#endif

// --- validate_matching: hand-constructed violations ------------------------

TEST(ValidateMatchingTest, AcceptsStableMatching) {
  const std::vector<Edge> edges = {{0, 0, 5.0}, {0, 1, 1.0}, {1, 1, 4.0}};
  const Matching m = core::stable_matching(edges, 2, {1, 1});
  EXPECT_EQ(core::validate_matching(edges, m, 2, {1, 1}), "");
}

TEST(ValidateMatchingTest, RejectsEdgeIndexOutOfRange) {
  const std::vector<Edge> edges = {{0, 0, 5.0}};
  EXPECT_TRUE(
      Contains(core::validate_matching(edges, {3}, 1, {1}), "edge index 3"));
}

TEST(ValidateMatchingTest, RejectsEndpointOutOfRange) {
  const std::vector<Edge> edges = {{2, 0, 5.0}};
  EXPECT_TRUE(Contains(core::validate_matching(edges, {0}, 2, {1, 1}),
                       "endpoint out of range"));
}

TEST(ValidateMatchingTest, RejectsNonPositiveWeight) {
  const std::vector<Edge> edges = {{0, 0, 0.0}};
  EXPECT_TRUE(Contains(core::validate_matching(edges, {0}, 1, {1}),
                       "non-positive weight"));
}

TEST(ValidateMatchingTest, RejectsDoubleBookedStation) {
  // Both satellites assigned to station 0, which holds one link.
  const std::vector<Edge> edges = {{0, 0, 5.0}, {1, 0, 4.0}};
  EXPECT_TRUE(Contains(core::validate_matching(edges, {0, 1}, 2, {1},
                                               /*require_stable=*/false),
                       "station 0 over capacity: holds 2 links, capacity 1"));
}

TEST(ValidateMatchingTest, RejectsDoubleBookedSatellite) {
  const std::vector<Edge> edges = {{0, 0, 5.0}, {0, 1, 4.0}};
  EXPECT_TRUE(Contains(core::validate_matching(edges, {0, 1}, 1, {1, 1},
                                               /*require_stable=*/false),
                       "satellite 0 double-booked"));
}

TEST(ValidateMatchingTest, RejectsUnstableMatching) {
  // Edge (0,0) has weight 9 — the blocking pair: sat 0 and station 0 both
  // strictly prefer each other over the cross assignment below.
  const std::vector<Edge> edges = {
      {0, 0, 9.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}};
  const Matching crossed = {1, 2};  // sat0<->gs1, sat1<->gs0
  EXPECT_TRUE(
      Contains(core::validate_matching(edges, crossed, 2, {1, 1}), "unstable"));
  // The same assignment passes once stability is not required.
  EXPECT_EQ(core::validate_matching(edges, crossed, 2, {1, 1},
                                    /*require_stable=*/false),
            "");
}

// --- validate_matching at capacities above one ------------------------------

TEST(ValidateBMatchingTest, AcceptsCapacitatedResult) {
  const std::vector<Edge> edges = {{0, 0, 5.0}, {1, 0, 4.0}, {2, 0, 3.0}};
  const std::vector<int> caps = {2};
  const Matching m = core::stable_matching(edges, 3, caps);
  EXPECT_EQ(core::validate_matching(edges, m, 3, caps), "");
}

TEST(ValidateBMatchingTest, RejectsOverCapacityStation) {
  const std::vector<Edge> edges = {{0, 0, 5.0}, {1, 0, 4.0}, {2, 0, 3.0}};
  EXPECT_TRUE(Contains(core::validate_matching(edges, {0, 1, 2}, 3, {2},
                                               /*require_stable=*/false),
                       "station 0 over capacity"));
}

TEST(ValidateBMatchingTest, RejectsUnstableCapacitatedMatching) {
  // Station 0 (capacity 1) holds its worst suitor while a better one sits
  // on a worse station.
  const std::vector<Edge> edges = {{0, 0, 9.0}, {0, 1, 1.0}, {1, 0, 2.0}};
  const Matching m = {1, 2};  // sat0->gs1 (w=1), sat1->gs0 (w=2)
  EXPECT_TRUE(
      Contains(core::validate_matching(edges, m, 2, {1, 1}), "unstable"));
}

}  // namespace
}  // namespace dgs
