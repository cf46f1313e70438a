// Directed coverage for the small-into-large shard-merge path
// (system/sharded_engine.h): differential k-way merges over streams
// whose global ids interleave across shards — held byte-identical to a
// single CoordinationEngine — plus memoized component state surviving
// a merge in the surviving shard (eval_cache_hits), survivor deliveries
// carrying the migrated queries' own ids and variables, and
// bridge-then-cancel churn that recycles freed shard slots.

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
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

class ShardedMergeTest : public ::testing::Test {
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
    return "s_" + rel + tag + ": { " + rel + "(Never" + tag + ", x) } " +
           rel + "(" + tag + ", x) :- Users(x, 'user7').";
  }

  /// A pending query that joins `rel`'s tag component: its post unifies
  /// with the Stuck(rel, tag) head, so it extends that component
  /// without resolving it (Stuck's own post stays unanswered).
  static std::string Joiner(const std::string& rel, const std::string& tag) {
    return "j_" + rel + tag + ": { " + rel + "(" + tag + ", x) } " + rel +
           "(J" + tag + ", x) :- Users(x, 'user7').";
  }

  /// A memo-recording pending query: no postconditions (so it survives
  /// postcondition pre-cleaning and the SCC sweep reaches it — a Stuck
  /// query's dead post would prune it before any memo entry is written)
  /// and an ungroundable body, so each evaluation records a replayable
  /// failed-grounding verdict in the component's EvalMemo.
  static std::string Sink(const std::string& rel, const std::string& tag) {
    return "k_" + rel + tag + ": { } " + rel + "(" + tag +
           ", y) :- Users(y, 'nouser'), Users(y2, 'user1').";
  }

  Database db_;
};

/// The differential: a stream whose arrivals interleave across three
/// relation groups (so every shard's local ids map to *non-contiguous*
/// global ids), then a k-way bridge merging all three shards at once,
/// then more interleaved traffic, joins into merged components,
/// cancels, and coordinating pairs.  The single engine and the
/// small-into-large sharded engine (both pool widths) must agree byte
/// for byte.
TEST_F(ShardedMergeTest, KWayMergeWithInterleavedIdsMatchesSingleEngine) {
  auto drive = [&](CoordinationService* engine,
                   std::vector<LoggedDelivery>* log) {
    engine->set_delivery_callback([log](const Delivery& delivery) {
      log->push_back(LoggedDelivery::Of(delivery));
    });
    engine->set_evaluate_every(0);
    // Interleaved arrivals: shard S gets global ids {0,3,6,7}, shard R
    // {1,4}, shard W {2,5} — no shard's table is globally contiguous.
    ASSERT_TRUE(engine->Submit(Stuck("S", "T0")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("R", "U0")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("W", "V0")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("S", "T1")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("R", "U1")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("W", "V1")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("S", "T2")).ok());
    ASSERT_TRUE(engine->Submit(Stuck("S", "T3")).ok());
    engine->Flush();
    // The 4-way bridge: its footprint spans S, R, and W (plus its own
    // head relation B), uniting every live group in one arrival.  S is
    // the heavy side and must survive with R's and W's queries
    // migrating in — invisible in every output below.
    ASSERT_TRUE(engine
                    ->Submit("br: { S(NeverT0, x), R(NeverU0, x), "
                             "W(NeverV0, x) } B(Tb, x) :- "
                             "Users(x, 'user7').")
                    .ok());
    // A second bridge posting into *heads* (T3's and V1's): a real
    // coordination component spanning a native survivor query and a
    // migrated one, so the solver orders mixed-origin members by key.
    ASSERT_TRUE(engine
                    ->Submit("br2: { S(T3, x), W(V1, x) } C(Tc, x) :- "
                             "Users(x, 'user7').")
                    .ok());
    // Post-merge traffic: joins extending a migrated component (U1) and
    // an untouched survivor component (T2), landing interleaved with a
    // coordinating pair in a fresh relation.
    ASSERT_TRUE(engine->Submit(Joiner("R", "U1")).ok());
    ASSERT_TRUE(engine->Submit(Pair("P")[0]).ok());
    ASSERT_TRUE(engine->Submit(Joiner("S", "T2")).ok());
    ASSERT_TRUE(engine->Submit(Pair("P")[1]).ok());
    engine->Flush();
    // Cancels by pending rank: same rank -> same global id everywhere.
    ASSERT_TRUE(engine->Cancel(engine->PendingQueries().front()));
    engine->set_evaluate_every(1);
    ASSERT_TRUE(engine->SubmitBatch(Pair("V")).ok());
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

    const std::string which = "threads=" + std::to_string(shard_threads);
    ASSERT_EQ(single_log.size(), sharded_log.size()) << which;
    for (size_t i = 0; i < single_log.size(); ++i) {
      EXPECT_EQ(single_log[i].queries, sharded_log[i].queries)
          << "delivery " << i << " at " << which;
      EXPECT_EQ(single_log[i].witnesses, sharded_log[i].witnesses)
          << "witness " << i << " at " << which;
    }
    EXPECT_EQ(single.PendingQueries(), sharded.PendingQueries()) << which;
    EXPECT_EQ(single.num_pending(), sharded.num_pending()) << which;
    // ComponentOf must report sorted global ids even though the
    // survivor's local order interleaves migrated and native queries.
    for (QueryId id : sharded.PendingQueries()) {
      std::vector<QueryId> component = sharded.ComponentOf(id);
      EXPECT_TRUE(std::is_sorted(component.begin(), component.end()))
          << which << " ComponentOf(" << id << ")";
      EXPECT_EQ(component, single.ComponentOf(id)) << which;
    }

    // Small-into-large: S's four queries stay put, R's and W's four
    // (2 + 2, including both bridged tags) migrate in one merge.
    EXPECT_EQ(sharded.sharded_stats().merge_events, 1u) << which;
    EXPECT_EQ(sharded.sharded_stats().queries_retained, 4u) << which;
    EXPECT_EQ(sharded.sharded_stats().queries_migrated, 4u) << which;
    EXPECT_EQ(sharded.sharded_stats().merge_migrated_max, 4u) << which;
  }
}

/// A delivery carved from a survivor shard after a small-into-large
/// merge mixes native and migrated queries, whose local ids and
/// variables are no longer in global order.  The translated Delivery
/// must still equal the single engine's event field by field, each
/// participant's witness included.
TEST_F(ShardedMergeTest, SurvivorDeliveryIsTranslatedWhole) {
  const std::vector<std::string> texts = {
      Stuck("S", "T0"),
      "r: { R(Bob, x) } R(Alice, x) :- Users(x, 'user3').",  // shard R
      "s: { S(Bob, y) } S(Alice, y) :- Users(y, 'user3').",  // shard S
      Stuck("S", "T1"),
      // Merges the light R shard into S, then coordinates with r and s:
      // in S, r's migrated variable now sits above s's native one.
      "br: { R(Alice, z), S(Alice, z) } R(Bob, z), S(Bob, z) :- "
      "Users(z, 'user3').",
  };
  auto run = [&texts](CoordinationService* engine) {
    std::vector<Delivery> log;
    engine->set_delivery_callback(
        [&log](const Delivery& delivery) { log.push_back(delivery); });
    for (const std::string& text : texts) {
      EXPECT_TRUE(engine->Submit(text).ok()) << text;
    }
    return log;
  };
  CoordinationEngine single(&db_);
  const std::vector<Delivery> expected = run(&single);
  ASSERT_EQ(expected.size(), 1u);
  const Delivery& e = expected.front();
  for (size_t shard_threads : {size_t{1}, size_t{4}}) {
    ShardedEngineOptions options;
    options.shard_threads = shard_threads;
    ShardedCoordinationEngine sharded(&db_, options);
    const std::vector<Delivery> got = run(&sharded);
    const std::string which = "threads=" + std::to_string(shard_threads);
    ASSERT_EQ(sharded.sharded_stats().queries_migrated, 1u) << which;
    ASSERT_EQ(got.size(), 1u) << which;
    const Delivery& d = got.front();
    EXPECT_EQ(d.QueryIds(), (std::vector<QueryId>{1, 2, 4})) << which;
    EXPECT_EQ(d.sequence, e.sequence) << which;
    ASSERT_EQ(d.queries.size(), e.queries.size()) << which;
    for (size_t i = 0; i < d.queries.size(); ++i) {
      EXPECT_EQ(d.queries[i].id, e.queries[i].id) << which;
      EXPECT_EQ(d.queries[i].name, e.queries[i].name) << which;
      EXPECT_EQ(d.queries[i].text, e.queries[i].text) << which;
      EXPECT_EQ(d.queries[i].answers, e.queries[i].answers) << which;
      EXPECT_EQ(d.queries[i].witness, e.queries[i].witness) << which;
    }
  }
  // Each participant's witness binds exactly its own variable.
  ASSERT_EQ(e.queries.size(), 3u);
  const char* names[] = {"x", "y", "z"};
  for (size_t i = 0; i < e.queries.size(); ++i) {
    ASSERT_EQ(e.queries[i].witness.size(), 1u) << i;
    EXPECT_EQ(e.queries[i].witness[0].first, names[i]);
  }
}

/// Memo retention: the surviving shard's evaluated-component state
/// (EvalMemo sweep verdicts) must survive a merge, so post-merge
/// re-evaluation of an extended survivor component serves sweep steps
/// from the memo.
TEST_F(ShardedMergeTest, SurvivorKeepsMemoizedComponentStateAcrossMerge) {
  ShardedCoordinationEngine engine(&db_);
  engine.set_evaluate_every(0);
  // A heavy S shard with four evaluated sink components (the flush
  // records each one's failed-grounding verdict in its memo), and a
  // light R shard.
  for (const char* tag : {"T0", "T1", "T2", "T3"}) {
    ASSERT_TRUE(engine.Submit(Sink("S", tag)).ok());
  }
  ASSERT_TRUE(engine.Submit(Sink("R", "U0")).ok());
  engine.Flush();
  const uint64_t hits_before = engine.StatsSnapshot().eval_cache_hits;
  // The bridge's footprint merges R's shard into S's (its posts name
  // tags no head answers, so no coordination edge forms and no
  // component is disturbed — the merge itself is the only event).
  // S's components keep their memos; R's U0 re-indexes from scratch in
  // the survivor (the O(smaller-side) cost).
  ASSERT_TRUE(engine
                  .Submit("br: { S(NeverT0, x), R(NeverU0, x) } "
                          "B(Tb, x) :- Users(x, 'user7').")
                  .ok());
  ASSERT_EQ(engine.sharded_stats().merge_events, 1u);
  // Extend the survivor component T1 with a post into its head and
  // re-flush: the sweep of the grown component reaches R(sink) first,
  // and the survivor serves that step from the memo it recorded before
  // the merge.
  ASSERT_TRUE(engine.Submit(Joiner("S", "T1")).ok());
  engine.Flush();
  EXPECT_GT(engine.StatsSnapshot().eval_cache_hits, hits_before);
}

/// Bridge-then-cancel churn: merges followed by cancels drain shards,
/// free their slots, and the next wave reuses them.  The slot table
/// must stay bounded by the live width, and the routing table by the
/// live shards' relations, not the churn count.
TEST_F(ShardedMergeTest, BridgeThenCancelChurnRecyclesSlots)  {
  ShardedCoordinationEngine engine(&db_);
  engine.set_evaluate_every(0);
  int64_t max_slot = 0;
  for (int round = 0; round < 6; ++round) {
    const std::string x = "X" + std::to_string(round);
    const std::string y = "Y" + std::to_string(round);
    ASSERT_TRUE(engine.Submit(Stuck(x, "T")).ok());
    ASSERT_TRUE(engine.Submit(Stuck(y, "U")).ok());
    ASSERT_EQ(engine.num_live_shards(), 2u);
    ASSERT_TRUE(engine
                    .Submit("br" + std::to_string(round) + ": { " + x +
                            "(NeverT, x), " + y + "(NeverU, x) } B" +
                            std::to_string(round) +
                            "(Tb, x) :- Users(x, 'user7').")
                    .ok());
    ASSERT_EQ(engine.num_live_shards(), 1u);
    ASSERT_EQ(engine.num_routed_relations(), 3u);  // X, Y and B, per round
    for (const ShardGauge& row : engine.GaugesSnapshot().shards) {
      max_slot = std::max(max_slot, row.slot);
    }
    // Cancel everything; the merged shard drains and GCs, freeing its
    // slot for the next round.
    std::vector<QueryId> pending = engine.PendingQueries();
    for (auto it = pending.rbegin(); it != pending.rend(); ++it) {
      ASSERT_TRUE(engine.Cancel(*it));
    }
    ASSERT_EQ(engine.num_live_shards(), 0u);
    ASSERT_EQ(engine.num_pending(), 0u);
    ASSERT_EQ(engine.num_routed_relations(), 0u);
  }
  const ShardedStats& stats = engine.sharded_stats();
  EXPECT_EQ(stats.merge_events, 6u);
  EXPECT_EQ(stats.queries_migrated, 6u);  // one light side per round
  EXPECT_EQ(stats.queries_retained, 6u);
  EXPECT_EQ(stats.merge_migrated_max, 1u);
  EXPECT_EQ(stats.shards_created, 12u);
  // Slot recycling: 12 shards ever created, but the table never grew
  // past the first round's width.
  EXPECT_LE(max_slot, 1);

  // Freed slots still work end to end: a coordinating pair lands in a
  // recycled slot and delivers.
  size_t deliveries = 0;
  engine.set_delivery_callback([&](const Delivery&) { ++deliveries; });
  engine.set_evaluate_every(1);
  for (const std::string& text : Pair("Z")) {
    ASSERT_TRUE(engine.Submit(text).ok());
  }
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(engine.num_pending(), 0u);
}

}  // namespace
}  // namespace entangled
