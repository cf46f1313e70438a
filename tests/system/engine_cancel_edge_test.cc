// Directed coverage of Cancel's edge cases on the incremental core:
// unknown / never-issued ids, already-retired ids, double cancellation,
// and — the interesting one — cancelling the last member of a dirty
// component, which must drop the now-empty component from the
// dirty worklist instead of leaving a stale root for Flush to trip on.

#include <vector>

#include <gtest/gtest.h>

#include "system/engine.h"
#include "testing/reference_coordinator.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

class EngineCancelEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }

  Database db_;
};

TEST_F(EngineCancelEdgeTest, CancelUnknownIdReturnsFalse) {
  CoordinationEngine engine(&db_);
  EXPECT_FALSE(engine.Cancel(-1));
  EXPECT_FALSE(engine.Cancel(0));    // no query was ever submitted
  EXPECT_FALSE(engine.Cancel(999));  // far beyond any issued id
  EXPECT_EQ(engine.stats().cancelled, 0u);
}

TEST_F(EngineCancelEdgeTest, CancelRetiredIdReturnsFalse) {
  CoordinationEngine engine(&db_);
  auto solo = engine.Submit("solo: { } K(w) :- Users(w, 'user5').");
  ASSERT_TRUE(solo.ok());
  // The loner coordinated (and retired) on arrival.
  EXPECT_EQ(engine.stats().coordinating_sets, 1u);
  EXPECT_FALSE(engine.IsPending(*solo));
  EXPECT_FALSE(engine.Cancel(*solo));
  EXPECT_EQ(engine.stats().cancelled, 0u);
}

TEST_F(EngineCancelEdgeTest, DoubleCancelReturnsFalseAndCountsOnce) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  auto stuck = engine.Submit("s: { Nobody(m) } W(s) :- Users(s, 'user1').");
  ASSERT_TRUE(stuck.ok());
  EXPECT_TRUE(engine.Cancel(*stuck));
  EXPECT_FALSE(engine.Cancel(*stuck));
  EXPECT_EQ(engine.stats().cancelled, 1u);
  EXPECT_TRUE(engine.PendingQueries().empty());
}

TEST_F(EngineCancelEdgeTest, CancellingLastMemberDropsDirtyComponent) {
  EngineOptions options;
  options.evaluate_every = 0;  // the singleton stays dirty, unevaluated
  CoordinationEngine engine(&db_, options);
  auto solo = engine.Submit("solo: { } K(w) :- Users(w, 'user5').");
  ASSERT_TRUE(solo.ok());
  EXPECT_TRUE(engine.Cancel(*solo));
  // The component is empty now; Flush must neither evaluate it nor
  // deliver anything (a stale dirty root would do one or the other,
  // or CHECK-fail building an empty task).
  EXPECT_EQ(engine.Flush(), 0u);
  EXPECT_EQ(engine.stats().evaluations, 0u);
  EXPECT_EQ(engine.stats().coordinating_sets, 0u);
  EXPECT_TRUE(engine.PendingQueries().empty());
}

TEST_F(EngineCancelEdgeTest, CancellingWholeDirtyPairDropsComponent) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  auto a = engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').");
  auto b = engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(engine.ComponentOf(*a).size(), 2u);
  EXPECT_TRUE(engine.Cancel(*a));
  EXPECT_TRUE(engine.Cancel(*b));  // last member of the dirty remnant
  EXPECT_EQ(engine.Flush(), 0u);
  EXPECT_EQ(engine.stats().evaluations, 0u);
  EXPECT_TRUE(engine.PendingQueries().empty());
}

TEST_F(EngineCancelEdgeTest, SurvivorOfCancelledPartnerStaysEvaluable) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  // A pair whose coordination is mutual, plus the pairless loner shape
  // after cancellation: cancelling `a` leaves `b` stuck (its post now
  // targets nobody), and cancelling a loner's whole component must
  // still let unrelated components evaluate.
  auto a = engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').");
  auto b = engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').");
  auto solo = engine.Submit("solo: { } K(w) :- Users(w, 'user5').");
  ASSERT_TRUE(a.ok() && b.ok() && solo.ok());
  EXPECT_TRUE(engine.Cancel(*a));
  // b's fragment was re-marked dirty, solo is dirty since arrival:
  // exactly these two components evaluate; only solo delivers.
  EXPECT_EQ(engine.Flush(), 1u);
  EXPECT_EQ(engine.stats().evaluations, 2u);
  EXPECT_FALSE(engine.IsPending(*solo));
  EXPECT_TRUE(engine.IsPending(*b));
  // And b, provably still stuck, is not re-examined by the next flush.
  EXPECT_EQ(engine.Flush(), 0u);
  EXPECT_EQ(engine.stats().evaluations, 2u);
}

TEST_F(EngineCancelEdgeTest, ReferenceMatchesOnCancelEdgeCases) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  ReferenceCoordinator reference(&db_);
  reference.set_evaluate_every(0);
  for (CoordinationService* service :
       {static_cast<CoordinationService*>(&engine),
        static_cast<CoordinationService*>(&reference)}) {
    const bool is_engine = service == &engine;
    EXPECT_FALSE(service->Cancel(3));
    auto a = service->Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').");
    ASSERT_TRUE(a.ok());
    EXPECT_TRUE(service->Cancel(*a));
    EXPECT_FALSE(service->Cancel(*a));
    EXPECT_EQ(service->Flush(), 0u);
    EXPECT_EQ(service->StatsSnapshot().cancelled, 1u)
        << "engine=" << is_engine;
  }
}

}  // namespace
}  // namespace entangled
