// Directed coverage for the sharded front door
// (system/sharded_engine.h): byte-identical behaviour against a single
// CoordinationEngine over the same stream (deliveries, witnesses,
// pending sets, order), stats aggregation across migrations and GC,
// per-arrival cadence, and the callback-reentrancy contract with
// entry-point-named failures.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
#include "core/query.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// One recorded delivery, in global ids.
struct LoggedDelivery {
  std::vector<QueryId> queries;
  /// Each participant's witness, in participant order.
  std::vector<std::vector<std::pair<std::string, Value>>> witnesses;

  static LoggedDelivery Of(const Delivery& delivery) {
    LoggedDelivery logged{delivery.QueryIds(), {}};
    for (const DeliveredQuery& q : delivery.queries) {
      logged.witnesses.push_back(q.witness);
    }
    return logged;
  }
};

class ShardedEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 32).ok());
  }

  /// Mutually entangled pair through answer relation `rel`: both
  /// deliver as soon as the second one arrives.
  static std::vector<std::string> Pair(const std::string& rel) {
    return {
        "a_" + rel + ": { " + rel + "(Bob, x) } " + rel +
            "(Alice, x) :- Users(x, 'user3').",
        "b_" + rel + ": { " + rel + "(Alice, y) } " + rel +
            "(Bob, y) :- Users(y, 'user3').",
    };
  }

  /// A pending query that never coordinates (its post is unanswered).
  static std::string Stuck(const std::string& rel, const std::string& tag) {
    return "s_" + rel + ": { " + rel + "(Never" + tag + ", x) } " + rel +
           "(" + tag + ", x) :- Users(x, 'user7').";
  }

  Database db_;
};

/// Replays the same hand-written stream — pairs in disjoint relations,
/// a stuck query, cancels, a k-way bridge forcing migration, explicit
/// flushes — on the single engine and on sharded variants, asserting
/// byte-identical logs, witnesses, and pending sets.
TEST_F(ShardedEngineTest, MatchesSingleEngineByteForByte) {
  auto drive = [&](CoordinationService* engine,
                   std::vector<LoggedDelivery>* log) {
    engine->set_delivery_callback([log](const Delivery& delivery) {
      log->push_back(LoggedDelivery::Of(delivery));
    });
    // Disjoint pairs under eager evaluation.
    for (const std::string& text : Pair("P")) {
      ASSERT_TRUE(engine->Submit(text).ok());
    }
    ASSERT_TRUE(engine->Submit(Stuck("S", "T0")).ok());
    // A backlog admitted without evaluation, then flushed at once.
    engine->set_evaluate_every(0);
    for (const std::string& text : Pair("Q")) {
      ASSERT_TRUE(engine->Submit(text).ok());
    }
    ASSERT_TRUE(engine->Submit(Stuck("R", "T1")).ok());
    engine->Flush();
    // A bridge spanning S and R migrates both stuck queries into one
    // shard (on the sharded engine) without disturbing ids.
    ASSERT_TRUE(engine
                    ->Submit("br: { S(NeverT0, x), R(NeverT1, x) } "
                             "B(Tb, x) :- Users(x, 'user7').")
                    .ok());
    engine->set_evaluate_every(1);
    // A batch holding one more coordinating pair.
    ASSERT_TRUE(engine->SubmitBatch(Pair("V")).ok());
    engine->Cancel(engine->PendingQueries().front());
    engine->Flush();
  };

  CoordinationEngine single(&db_);
  std::vector<LoggedDelivery> single_log;
  drive(&single, &single_log);

  for (size_t shard_threads : {size_t{1}, size_t{4}}) {
    ShardedEngineOptions options;
    options.shard_threads = shard_threads;
    ShardedCoordinationEngine sharded(&db_, options);
    std::vector<LoggedDelivery> sharded_log;
    drive(&sharded, &sharded_log);

    ASSERT_EQ(single_log.size(), sharded_log.size())
        << "shard_threads=" << shard_threads;
    for (size_t i = 0; i < single_log.size(); ++i) {
      EXPECT_EQ(single_log[i].queries, sharded_log[i].queries)
          << "delivery " << i << " at shard_threads=" << shard_threads;
      EXPECT_EQ(single_log[i].witnesses, sharded_log[i].witnesses)
          << "witness " << i << " at shard_threads=" << shard_threads;
    }
    EXPECT_EQ(single.PendingQueries(), sharded.PendingQueries());
    EXPECT_EQ(single.num_pending(), sharded.num_pending());

    const EngineStats s = single.StatsSnapshot();
    const EngineStats v = sharded.StatsSnapshot();
    EXPECT_EQ(s.submitted, v.submitted);
    EXPECT_EQ(s.cancelled, v.cancelled);
    EXPECT_EQ(s.coordinating_sets, v.coordinating_sets);
    EXPECT_EQ(s.coordinated_queries, v.coordinated_queries);
  }
}

TEST_F(ShardedEngineTest, StatsAggregateAcrossMigrationAndGc) {
  ShardedCoordinationEngine engine(&db_);
  // Two deliveries in separate shards (each GCs its shard), then a
  // migration-inducing bridge between two stuck queries.
  for (const std::string& text : Pair("P")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  for (const std::string& text : Pair("Q")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  ASSERT_TRUE(engine.Submit(Stuck("S", "T0")).ok());
  ASSERT_TRUE(engine.Submit(Stuck("R", "T1")).ok());
  ASSERT_TRUE(engine
                  .Submit("br: { S(NeverT0, x), R(NeverT1, x) } "
                          "B(Tb, x) :- Users(x, 'user7').")
                  .ok());

  const EngineStats stats = engine.StatsSnapshot();
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.coordinating_sets, 2u);
  EXPECT_EQ(stats.coordinated_queries, 4u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_GE(stats.evaluations, 2u);  // includes retired shards' counters

  const ShardedStats& sharded = engine.sharded_stats();
  EXPECT_EQ(sharded.shards_gced, 2u);       // each delivered pair drained one
  EXPECT_EQ(sharded.group_merges, 1u);      // the bridge
  // Small-into-large: one stuck query moved into the other's shard, the
  // survivor's stayed put.
  EXPECT_EQ(sharded.queries_migrated, 1u);
  EXPECT_EQ(sharded.queries_retained, 1u);
  EXPECT_EQ(sharded.merge_events, 1u);
  EXPECT_EQ(sharded.merge_migrated_max, 1u);
  EXPECT_EQ(engine.num_pending(), 3u);
  EXPECT_EQ(engine.num_live_shards(), 1u);

  // The observability counters survive the same churn.  The evaluation
  // histogram aggregates one sample per evaluation — including those
  // run by the two shards GC has since dissolved — and front-door parse
  // failures land in `rejected` without disturbing anything else.
  EXPECT_EQ(stats.eval_latency.count(), stats.evaluations);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_FALSE(engine.Submit("not a query").ok());
  EXPECT_FALSE(engine.SubmitBatch({Stuck("S", "T2"), "also bad"}).ok());
  const EngineStats after = engine.StatsSnapshot();
  EXPECT_EQ(after.rejected, 2u);
  EXPECT_EQ(after.submitted, stats.submitted);  // nothing half-admitted
  EXPECT_EQ(after.evaluations, stats.evaluations);
  EXPECT_EQ(after.eval_latency.count(), stats.eval_latency.count());

  // The gauges view agrees with the aggregate: one live (merged) shard
  // holding every survivor, and the merge/migration history.
  const ServiceGauges gauges = engine.GaugesSnapshot();
  EXPECT_EQ(gauges.live_shards, 1u);
  ASSERT_EQ(gauges.shards.size(), 1u);
  EXPECT_EQ(gauges.shards[0].pending, 3u);
  EXPECT_EQ(gauges.pending, 3u);
  EXPECT_EQ(gauges.intake_depth, 0u);
  EXPECT_EQ(gauges.group_merges, 1u);
  EXPECT_EQ(gauges.queries_migrated, 1u);
  EXPECT_EQ(gauges.queries_retained, 1u);
  EXPECT_EQ(gauges.merge_events, 1u);
  EXPECT_EQ(gauges.merge_migrated_max, 1u);
}

TEST(EngineStatsTest, MergeFoldsRejectionsAndEvalHistogram) {
  EngineStats a;
  a.rejected = 1;
  a.evaluations = 2;
  a.eval_latency.Record(10);
  a.eval_latency.Record(700);
  EngineStats b;
  b.rejected = 2;
  b.evaluations = 1;
  b.eval_latency.Record(20);

  a += b;
  EXPECT_EQ(a.rejected, 3u);
  EXPECT_EQ(a.evaluations, 3u);
  EXPECT_EQ(a.eval_latency.count(), 3u);
  EXPECT_EQ(a.eval_latency.total_ns(), 730u);
  EXPECT_EQ(a.eval_latency.max_ns(), 700u);
}

TEST_F(ShardedEngineTest, EvaluateEveryCadenceCountsAcrossShards) {
  ShardedEngineOptions options;
  options.engine.evaluate_every = 2;
  ShardedCoordinationEngine engine(&db_, options);
  size_t deliveries = 0;
  engine.set_delivery_callback(
      [&deliveries](const Delivery&) { ++deliveries; });
  std::vector<std::string> pair = Pair("P");
  // Arrival 1 (no evaluation yet), arrival 2 — the cadence fires on the
  // pair's second half even though the two arrivals share a shard and
  // an unrelated arrival pattern would have routed elsewhere; the count
  // is front-door-global exactly like a single engine's.
  ASSERT_TRUE(engine.Submit(pair[0]).ok());
  EXPECT_EQ(deliveries, 0u);
  ASSERT_TRUE(engine.Submit(pair[1]).ok());
  EXPECT_EQ(deliveries, 1u);

  // Now interleave across shards: stuck arrival in S (count 1), pair
  // half in Q (count 2 -> evaluates only the Q arrival's component).
  std::vector<std::string> q_pair = Pair("Q");
  ASSERT_TRUE(engine.Submit(Stuck("S", "T0")).ok());
  ASSERT_TRUE(engine.Submit(q_pair[0]).ok());
  EXPECT_EQ(deliveries, 1u);
  ASSERT_TRUE(engine.Submit(q_pair[1]).ok());
  EXPECT_EQ(deliveries, 1u);  // cadence at 1 of 2: not evaluated yet
  engine.Flush();
  EXPECT_EQ(deliveries, 2u);
}

using ShardedEngineDeathTest = ShardedEngineTest;

TEST_F(ShardedEngineDeathTest, ReentrantSubmitDiesNamingEntryPoint) {
  ShardedCoordinationEngine engine(&db_);
  engine.set_delivery_callback([&engine](const Delivery&) {
    (void)engine.Submit("late: { } K(v) :- Users(v, 'user1').");
  });
  std::vector<std::string> pair = Pair("P");
  ASSERT_TRUE(engine.Submit(pair[0]).ok());
  EXPECT_DEATH(engine.Submit(pair[1]),
               "Submit called from inside a delivery callback");
}

TEST_F(ShardedEngineDeathTest, ReentrantFlushDiesNamingEntryPoint) {
  ShardedCoordinationEngine engine(&db_);
  engine.set_delivery_callback(
      [&engine](const Delivery&) { engine.Flush(); });
  std::vector<std::string> pair = Pair("P");
  ASSERT_TRUE(engine.Submit(pair[0]).ok());
  EXPECT_DEATH(engine.Submit(pair[1]),
               "Flush called from inside a delivery callback");
}

}  // namespace
}  // namespace entangled
