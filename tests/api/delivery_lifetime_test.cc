// Delivery self-containment: a captured Delivery must stay valid —
// byte-for-byte, including its strings and witness values — while the
// engine underneath it keeps mutating (cancellations, flushes, new
// submissions, and sharded shard merges/migrations/GC).  This is the
// regression guard for the lifetime hazard the session API redesign
// removed: the old callback handed out `const QuerySet&`, which dangled
// across Cancel and shard migration.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// A fully-owned rendering of everything a Delivery exposes, built by
/// *reading every field* (so any dangling reference inside the Delivery
/// would be dereferenced here, and any content change diffs).
std::string DeepRender(const Delivery& d) {
  std::string out = "seq=" + std::to_string(d.sequence) + "\n";
  for (const DeliveredQuery& q : d.queries) {
    out += "id=" + std::to_string(q.id) + " name=" + q.name +
           " text=" + q.text + "\n";
    for (const Atom& answer : q.answers) {
      out += "  answer=" + answer.ToString() + "\n";
    }
    for (const auto& [name, value] : q.witness) {
      // ToString() touches the interner-backed storage for symbols.
      out += "  " + name + "=" + value.ToString(/*quote=*/true) + "\n";
    }
  }
  out += d.ToString();
  return out;
}

class DeliveryLifetimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 32).ok());
  }

  static std::vector<std::string> Pair(const std::string& rel) {
    return {
        "a_" + rel + ": { " + rel + "(Bob, x) } " + rel +
            "(Alice, x) :- Users(x, 'user3').",
        "b_" + rel + ": { " + rel + "(Alice, y) } " + rel +
            "(Bob, y) :- Users(y, 'user3').",
    };
  }

  static std::string Stuck(const std::string& rel, const std::string& tag) {
    return "s_" + rel + ": { " + rel + "(Never" + tag + ", x) } " + rel +
           "(" + tag + ", x) :- Users(x, 'user7').";
  }

  Database db_;
};

TEST_F(DeliveryLifetimeTest, SurvivesCancelAndFlushOnSingleEngine) {
  CoordinationEngine engine(&db_);
  std::vector<Delivery> captured;
  engine.set_delivery_callback(
      [&](const Delivery& d) { captured.push_back(d); });

  for (const std::string& text : Pair("P")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  ASSERT_EQ(captured.size(), 1u);
  const std::string snapshot = DeepRender(captured[0]);

  // Mutate the engine hard: pending queries arrive, get cancelled,
  // more sets deliver, flushes repartition.
  auto stuck = engine.Submit(Stuck("S", "T0"));
  ASSERT_TRUE(stuck.ok());
  for (const std::string& text : Pair("Q")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  ASSERT_TRUE(engine.Cancel(*stuck));
  engine.Flush();
  ASSERT_EQ(captured.size(), 2u);

  EXPECT_EQ(DeepRender(captured[0]), snapshot)
      << "captured Delivery changed under engine mutation";
}

TEST_F(DeliveryLifetimeTest, SurvivesShardMigrationAndGc) {
  ShardedCoordinationEngine engine(&db_);
  std::vector<Delivery> captured;
  engine.set_delivery_callback(
      [&](const Delivery& d) { captured.push_back(d); });

  // A delivery out of shard P (which immediately GCs its shard: the
  // engine the delivery came from is destroyed right after).
  for (const std::string& text : Pair("P")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  ASSERT_EQ(captured.size(), 1u);
  const std::string snapshot = DeepRender(captured[0]);
  EXPECT_EQ(engine.sharded_stats().shards_gced, 1u);

  // Two stuck queries in separate shards, then a bridge whose footprint
  // spans both groups: the shards merge and the smaller side's pending
  // query migrates into the survivor (new ids, new variable namespace
  // for the moved query — the captured Delivery must not care).
  ASSERT_TRUE(engine.Submit(Stuck("S", "T0")).ok());
  ASSERT_TRUE(engine.Submit(Stuck("R", "T1")).ok());
  ASSERT_TRUE(engine
                  .Submit("br: { S(NeverT0, x), R(NeverT1, x) } "
                          "B(Tb, x) :- Users(x, 'user7').")
                  .ok());
  EXPECT_EQ(engine.sharded_stats().group_merges, 1u);
  EXPECT_GE(engine.sharded_stats().queries_migrated, 1u);

  // More churn: another pair delivers, a flush sweeps, a cancel drains.
  for (const std::string& text : Pair("V")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  engine.Flush();
  ASSERT_FALSE(engine.PendingQueries().empty());
  ASSERT_TRUE(engine.Cancel(engine.PendingQueries().front()));
  ASSERT_GE(captured.size(), 2u);

  EXPECT_EQ(DeepRender(captured[0]), snapshot)
      << "captured Delivery changed under shard migration/GC";
}

TEST_F(DeliveryLifetimeTest, SurvivesEngineDestruction) {
  Delivery captured;
  {
    CoordinationEngine engine(&db_);
    engine.set_delivery_callback(
        [&](const Delivery& d) { captured = d; });
    for (const std::string& text : Pair("P")) {
      ASSERT_TRUE(engine.Submit(text).ok());
    }
  }
  // The engine (and its QuerySet, graph, and bindings) is gone; the
  // event remains fully readable.
  EXPECT_EQ(captured.queries.size(), 2u);
  EXPECT_FALSE(DeepRender(captured).empty());
  EXPECT_EQ(captured.queries[0].name, "a_P");
}

}  // namespace
}  // namespace entangled
