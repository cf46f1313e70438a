#include "system/engine.h"

#include <gtest/gtest.h>

#include "core/validator.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 32).ok());
  }

  Database db_;
  std::vector<Delivery> delivered_;

  void Capture(CoordinationEngine* engine) {
    engine->set_delivery_callback(
        [this](const Delivery& delivery) { delivered_.push_back(delivery); });
  }
};

TEST_F(EngineTest, PairCoordinatesOnSecondArrival) {
  CoordinationEngine engine(&db_);
  Capture(&engine);
  auto a = engine.Submit(
      "a: { R(B, x) } R(A, x) :- Users(x, 'user1').");
  ASSERT_TRUE(a.ok()) << a.status();
  // a alone cannot coordinate: still pending.
  EXPECT_TRUE(engine.IsPending(*a));
  EXPECT_TRUE(delivered_.empty());

  auto b = engine.Submit(
      "b: { R(A, y) } R(B, y) :- Users(y, 'user1').");
  ASSERT_TRUE(b.ok()) << b.status();
  // The pair coordinates and retires.
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].QueryIds(), (std::vector<QueryId>{*a, *b}));
  EXPECT_FALSE(engine.IsPending(*a));
  EXPECT_FALSE(engine.IsPending(*b));
  auto solution = SolutionFromDelivery(engine.queries(), delivered_[0]);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_TRUE(ValidateSolution(db_, engine.queries(), *solution).ok());
}

TEST_F(EngineTest, SelfContainedQueryRetiresImmediately) {
  CoordinationEngine engine(&db_);
  Capture(&engine);
  auto solo = engine.Submit("solo: { } K(w) :- Users(w, 'user5').");
  ASSERT_TRUE(solo.ok());
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].QueryIds(), (std::vector<QueryId>{*solo}));
  EXPECT_TRUE(engine.PendingQueries().empty());
}

TEST_F(EngineTest, BatchedEvaluationWithFlush) {
  EngineOptions options;
  options.evaluate_every = 0;  // manual
  CoordinationEngine engine(&db_, options);
  Capture(&engine);
  ASSERT_TRUE(
      engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').").ok());
  ASSERT_TRUE(
      engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').").ok());
  ASSERT_TRUE(
      engine.Submit("solo: { } K(w) :- Users(w, 'user5').").ok());
  EXPECT_TRUE(delivered_.empty());
  EXPECT_EQ(engine.PendingQueries().size(), 3u);
  size_t found = engine.Flush();
  EXPECT_EQ(found, 2u);  // the pair and the singleton
  EXPECT_EQ(delivered_.size(), 2u);
  EXPECT_TRUE(engine.PendingQueries().empty());
}

TEST_F(EngineTest, UnsatisfiableQueryStaysPending) {
  CoordinationEngine engine(&db_);
  Capture(&engine);
  auto waiting = engine.Submit(
      "waiting: { R(B, x) } R(A, x) :- Users(x, 'user1').");
  ASSERT_TRUE(waiting.ok());
  EXPECT_TRUE(engine.IsPending(*waiting));
  EXPECT_EQ(engine.stats().coordinating_sets, 0u);
  // It keeps waiting across unrelated arrivals.
  ASSERT_TRUE(engine.Submit("solo: { } K(w) :- Users(w, 'user5').").ok());
  EXPECT_TRUE(engine.IsPending(*waiting));
}

TEST_F(EngineTest, LargestReachableSetRetiresTogether) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  Capture(&engine);
  // gwyneth -> chris <-> guy: one weak component, coordinating set of 3.
  ASSERT_TRUE(engine
                  .Submit("chris: { R(Guy, x) } R(Chris, x) :- "
                          "Users(x, 'user1').")
                  .ok());
  ASSERT_TRUE(engine
                  .Submit("guy: { R(Chris, y) } R(Guy, y) :- "
                          "Users(y, 'user1').")
                  .ok());
  ASSERT_TRUE(engine
                  .Submit("gwyneth: { R(Chris, z) } R(Gwyneth, z) :- "
                          "Users(z, 'user1').")
                  .ok());
  EXPECT_EQ(engine.Flush(), 1u);
  ASSERT_EQ(delivered_.size(), 1u);
  EXPECT_EQ(delivered_[0].queries.size(), 3u);
}

TEST_F(EngineTest, ParseErrorsSurface) {
  CoordinationEngine engine(&db_);
  auto bad = engine.Submit("not a query at all");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(engine.stats().submitted, 0u);
}

TEST_F(EngineTest, StatsTrackLifecycle) {
  CoordinationEngine engine(&db_);
  Capture(&engine);
  ASSERT_TRUE(
      engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').").ok());
  ASSERT_TRUE(
      engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').").ok());
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.coordinating_sets, 1u);
  EXPECT_EQ(stats.coordinated_queries, 2u);
  EXPECT_GE(stats.evaluations, 1u);
  EXPECT_GT(stats.db_queries, 0u);
}

TEST_F(EngineTest, RetiredQueriesDoNotRecoordinate) {
  CoordinationEngine engine(&db_);
  Capture(&engine);
  ASSERT_TRUE(
      engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').").ok());
  ASSERT_TRUE(
      engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').").ok());
  ASSERT_EQ(delivered_.size(), 1u);
  // A second pair with the same answer relations coordinates among
  // themselves only (the first pair is retired).
  auto a2 = engine.Submit("a2: { R(B, x) } R(A, x) :- Users(x, 'user2').");
  ASSERT_TRUE(a2.ok());
  auto b2 = engine.Submit("b2: { R(A, y) } R(B, y) :- Users(y, 'user2').");
  ASSERT_TRUE(b2.ok());
  ASSERT_EQ(delivered_.size(), 2u);
  EXPECT_EQ(delivered_[1].QueryIds(), (std::vector<QueryId>{*a2, *b2}));
}

}  // namespace
}  // namespace entangled
