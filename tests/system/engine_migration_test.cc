// Unit coverage for the engine refactor behind shard migration:
// QuerySet::AdoptQueries variable re-homing, the
// ExtractPending()/AdoptPending() round-trip, EvaluateNow as the
// externally driven per-arrival step, the O(1) pending count, and
// EngineStats aggregation.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parser.h"
#include "core/query.h"
#include "system/engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

TEST(AdoptQueriesTest, RehomesVariablesInParseOrder) {
  QuerySet src;
  ASSERT_TRUE(
      ParseQuery("q0: { A(T, p) } B(U, q) :- Users(p, q).", &src).ok());
  ASSERT_TRUE(ParseQuery("q1: { } C(V, r) :- Users(r, 'x').", &src).ok());

  QuerySet dst;
  // Pre-existing variables shift the adopted ids; the mapping reports
  // where each source variable landed.
  dst.NewVar("pre");
  std::vector<std::pair<VarId, VarId>> var_map;
  std::vector<QueryId> adopted = dst.AdoptQueries(src, {0, 1}, &var_map);
  ASSERT_EQ(adopted, (std::vector<QueryId>{0, 1}));
  // q0 uses p then q (first occurrence over posts, head, body), q1 uses
  // r: adopted as dst vars 1, 2, 3 after the pre-existing one.
  EXPECT_EQ(var_map, (std::vector<std::pair<VarId, VarId>>{
                         {0, 1}, {1, 2}, {2, 3}}));
  EXPECT_EQ(dst.var_name(1), src.var_name(0));
  // The adopted queries render identically modulo the renumbering.
  EXPECT_EQ(dst.query(0).name, "q0");
  EXPECT_EQ(dst.query(1).name, "q1");
  EXPECT_EQ(dst.QueryToString(1), src.QueryToString(1));
}

TEST(AdoptQueriesTest, SubsetOfQueriesMapsOnlyTheirVariables) {
  QuerySet src;
  ASSERT_TRUE(ParseQuery("q0: { } A(T, p) :- Users(p, 'x').", &src).ok());
  ASSERT_TRUE(ParseQuery("q1: { } B(U, q) :- Users(q, 'y').", &src).ok());

  QuerySet dst;
  std::vector<std::pair<VarId, VarId>> var_map;
  std::vector<QueryId> adopted = dst.AdoptQueries(src, {1}, &var_map);
  ASSERT_EQ(adopted, (std::vector<QueryId>{0}));
  // Only q1's variable appears; q0's was never touched.
  EXPECT_EQ(var_map, (std::vector<std::pair<VarId, VarId>>{{1, 0}}));
}

class EngineMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }

  static std::vector<std::string> Pair(const std::string& rel) {
    return {
        "a_" + rel + ": { " + rel + "(Bob, x) } " + rel +
            "(Alice, x) :- Users(x, 'user3').",
        "b_" + rel + ": { " + rel + "(Alice, y) } " + rel +
            "(Bob, y) :- Users(y, 'user3').",
    };
  }

  Database db_;
};

TEST_F(EngineMigrationTest, ExtractAdoptRoundTripPreservesCoordination) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine source(&db_, options);
  // An entangled pair plus an unrelated singleton, all pending.
  for (const std::string& text : Pair("P")) {
    ASSERT_TRUE(source.Submit(text).ok());
  }
  ASSERT_TRUE(
      source.Submit("lone: { Z(Never, v) } Z(T, v) :- Users(v, 'user2').")
          .ok());
  ASSERT_EQ(source.num_pending(), 3u);

  CoordinationEngine::PendingExtract extract = source.ExtractPending();
  EXPECT_EQ(extract.ids, (std::vector<QueryId>{0, 1, 2}));
  EXPECT_EQ(extract.queries.size(), 3u);
  // The source forgot them completely.
  EXPECT_EQ(source.num_pending(), 0u);
  EXPECT_TRUE(source.PendingQueries().empty());
  EXPECT_EQ(source.Flush(), 0u);

  CoordinationEngine target(&db_, options);
  target.AdoptPending(&extract);
  EXPECT_EQ(target.PendingQueries(), (std::vector<QueryId>{0, 1, 2}));
  EXPECT_EQ(target.num_pending(), 3u);
  // Adoption is not a submission...
  EXPECT_EQ(target.stats().submitted, 0u);
  // ...but the adopted components are dirty: the pair coordinates on
  // the next flush while the singleton stays stuck.
  size_t deliveries = 0;
  target.set_delivery_callback([&deliveries](const Delivery& d) {
    ++deliveries;
    EXPECT_EQ(d.QueryIds(), (std::vector<QueryId>{0, 1}));
    EXPECT_EQ(d.queries[0].name, "a_P");
  });
  EXPECT_EQ(target.Flush(), 1u);
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(target.PendingQueries(), (std::vector<QueryId>{2}));
  EXPECT_EQ(target.ComponentOf(2), (std::vector<QueryId>{2}));
}

TEST_F(EngineMigrationTest, EvaluateNowEvaluatesOnlyThatComponent) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  for (const std::string& text : Pair("P")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  std::vector<std::string> q = Pair("Q");
  for (const std::string& text : q) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  size_t deliveries = 0;
  engine.set_delivery_callback(
      [&deliveries](const Delivery&) { ++deliveries; });
  // Only P's component is evaluated; Q's stays dirty and pending.
  EXPECT_TRUE(engine.EvaluateNow(0));
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(engine.last_delivery_schedule_key(), 0);
  EXPECT_EQ(engine.PendingQueries(), (std::vector<QueryId>{2, 3}));
  // Retired queries are no-ops.
  EXPECT_FALSE(engine.EvaluateNow(0));
  EXPECT_EQ(engine.Flush(), 1u);
  EXPECT_EQ(deliveries, 2u);
  EXPECT_EQ(engine.last_delivery_schedule_key(), 2);
}

TEST_F(EngineMigrationTest, NumPendingTracksEveryTransition) {
  CoordinationEngine engine(&db_);
  ASSERT_TRUE(
      engine.Submit("s: { S(Never, v) } S(T, v) :- Users(v, 'user2').").ok());
  EXPECT_EQ(engine.num_pending(), 1u);
  ASSERT_TRUE(engine.Submit(Pair("P")[0]).ok());
  ASSERT_TRUE(engine.Submit(Pair("P")[1]).ok());  // pair delivers eagerly
  EXPECT_EQ(engine.num_pending(), 1u);
  EXPECT_TRUE(engine.Cancel(0));
  EXPECT_EQ(engine.num_pending(), 0u);
  EXPECT_EQ(engine.PendingQueries().size(), engine.num_pending());
}

TEST(EngineStatsTest, AccumulationSumsEveryField) {
  EngineStats a;
  a.submitted = 1;
  a.cancelled = 2;
  a.evaluations = 3;
  a.coordinated_queries = 4;
  a.coordinating_sets = 5;
  a.unsafe_components = 6;
  a.db_queries = 7;
  EngineStats b = a;
  b += a;
  EXPECT_EQ(b.submitted, 2u);
  EXPECT_EQ(b.cancelled, 4u);
  EXPECT_EQ(b.evaluations, 6u);
  EXPECT_EQ(b.coordinated_queries, 8u);
  EXPECT_EQ(b.coordinating_sets, 10u);
  EXPECT_EQ(b.unsafe_components, 12u);
  EXPECT_EQ(b.db_queries, 14u);
  const EngineStats c = a + a;
  EXPECT_EQ(c.db_queries, 14u);
}

}  // namespace
}  // namespace entangled
