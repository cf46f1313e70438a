// Directed coverage of Cancel's edge cases on the incremental core:
// unknown / never-issued ids, already-retired ids, double cancellation,
// and — the interesting one — cancelling the last member of a dirty
// component, which must drop the now-empty component from the
// dirty worklist instead of leaving a stale root for Flush to trip on.
// Also ComponentOf's answer for ids that are not pending, on every
// CoordinationService.

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/durable_service.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
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

/// CoordinationService::ComponentOf's contract: a delivered, cancelled,
/// never-issued or negative id gets an empty component from every
/// service — the engine, the sharded front door, the durable decorator
/// and the reference oracle — and none of them aborts.
TEST_F(EngineCancelEdgeTest, ComponentOfIsEmptyUnlessPendingOnEveryService) {
  char dir_template[] = "/tmp/entangled_component_of_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;
  CoordinationEngine engine(&db_);
  ShardedCoordinationEngine sharded(&db_);
  ReferenceCoordinator reference(&db_);
  CoordinationEngine durable_inner(&db_);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  auto durable =
      DurableCoordinationService::Create(&durable_inner, &db_, durability);
  ASSERT_TRUE(durable.ok()) << durable.status();

  const std::vector<CoordinationService*> services = {
      &engine, &sharded, &reference, durable->get()};
  for (size_t i = 0; i < services.size(); ++i) {
    CoordinationService* service = services[i];
    auto delivered = service->Submit("solo: { } K(w) :- Users(w, 'user5').");
    auto stuck = service->Submit("s: { Nobody(m) } W(s) :- Users(s, 'user1').");
    auto cancelled =
        service->Submit("c: { Nobody(m) } V(s) :- Users(s, 'user2').");
    ASSERT_TRUE(delivered.ok() && stuck.ok() && cancelled.ok()) << i;
    ASSERT_TRUE(service->Cancel(*cancelled)) << i;
    EXPECT_EQ(service->ComponentOf(*stuck), std::vector<QueryId>{*stuck})
        << i;
    for (QueryId id : {*delivered, *cancelled, QueryId{3}, QueryId{-1}}) {
      EXPECT_FALSE(service->IsPending(id)) << i << " id " << id;
      EXPECT_TRUE(service->ComponentOf(id).empty()) << i << " id " << id;
    }
  }
  std::filesystem::remove_all(dir);
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
