// Directed coverage for delta-aware evaluation (per-component EvalMemo
// sweep caches and skip fingerprints): the cache-invalidation edges.
// Each test drives a stream where a stale cache would change the output
// — a cancelled memoized member, a relation mutated between flushes, a
// memoized component migrated between engines, a shard merge — and
// asserts the engine still matches the from-scratch ReferenceCoordinator
// byte for byte while the cache counters show the machinery actually
// engaged.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "testing/reference_coordinator.h"
#include "workload/generator.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

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

  friend bool operator==(const LoggedDelivery& a, const LoggedDelivery& b) {
    return a.queries == b.queries && a.witnesses == b.witnesses;
  }
};

void LogDeliveries(CoordinationService* engine,
                   std::vector<LoggedDelivery>* log) {
  engine->set_delivery_callback([log](const Delivery& delivery) {
    log->push_back(LoggedDelivery::Of(delivery));
  });
}

class EngineDeltaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }

  /// Evaluation only at explicit Flush() calls.
  static EngineOptions FlushOnly() {
    EngineOptions options;
    options.evaluate_every = 0;
    return options;
  }

  Database db_;
};

TEST_F(EngineDeltaTest, CancelOfMemoizedMemberInvalidates) {
  // An unsafe triple fails its first flush (the verdict is memoized);
  // cancelling one clashing head must drop the memo so the next flush
  // evaluates the repartitioned pair and delivers it.
  auto drive = [](CoordinationService* engine,
                  std::vector<LoggedDelivery>* log) {
    LogDeliveries(engine, log);
    engine->set_evaluate_every(0);
    ASSERT_TRUE(
        engine->Submit("a: { U(B, x) } U(A, x) :- Users(x, 'user1').").ok());
    ASSERT_TRUE(
        engine->Submit("b1: { U(A, y) } U(B, y) :- Users(y, 'user1').").ok());
    ASSERT_TRUE(
        engine->Submit("b2: { U(A, z) } U(B, z) :- Users(z, 'user1').").ok());
    EXPECT_EQ(engine->Flush(), 0u);  // unsafe: nothing delivered
    EXPECT_TRUE(engine->Cancel(2));
    EXPECT_EQ(engine->Flush(), 1u);
  };
  CoordinationEngine engine(&db_, FlushOnly());
  ReferenceCoordinator reference(&db_);
  std::vector<LoggedDelivery> log;
  std::vector<LoggedDelivery> reference_log;
  drive(&engine, &log);
  drive(&reference, &reference_log);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].queries, (std::vector<QueryId>{0, 1}));
  EXPECT_TRUE(log == reference_log);
  // The memoized failure was discarded with the cancel, never reused.
  EXPECT_EQ(engine.stats().evaluations_avoided, 0u);
  EXPECT_EQ(engine.stats().evaluations, 2u);
}

TEST_F(EngineDeltaTest, RelationMutationBetweenFlushesReevaluates) {
  // Two stuck components: one reads Users, one reads the (empty)
  // Extra relation.  Inserting into Extra between flushes must
  // re-evaluate exactly the Extra component — the Users component's
  // stamps are current, so its re-check is skipped — and the insert
  // must flip the Extra pair to deliverable.
  auto* extra = db_.CreateRelation("Extra", {"v"}).value();

  CoordinationEngine engine(&db_, FlushOnly());
  std::vector<LoggedDelivery> log;
  LogDeliveries(&engine, &log);
  ASSERT_TRUE(
      engine.Submit("ua: { U(Done, x) } U(T, x) :- Users(x, 'user1').").ok());
  ASSERT_TRUE(engine.Submit("ea: { E(B, x) } E(A, x) :- Extra(x).").ok());
  ASSERT_TRUE(engine.Submit("eb: { E(A, y) } E(B, y) :- Extra(y).").ok());
  EXPECT_EQ(engine.Flush(), 0u);  // both components fail cleanly
  EXPECT_EQ(engine.stats().evaluations, 2u);
  EXPECT_EQ(engine.stats().evaluations_avoided, 0u);

  ASSERT_TRUE(extra->Insert({Value::Str("now")}).ok());
  EXPECT_EQ(engine.Flush(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].queries, (std::vector<QueryId>{1, 2}));
  // The mutation dirtied every live component, but only the Extra pair
  // was actually re-solved; the Users singleton skipped via its stamps.
  EXPECT_EQ(engine.stats().evaluations, 3u);
  EXPECT_EQ(engine.stats().evaluations_avoided, 1u);

  // An untouched database re-flushes to nothing at all.
  EXPECT_EQ(engine.Flush(), 0u);
  EXPECT_EQ(engine.stats().evaluations, 3u);
  EXPECT_EQ(engine.stats().evaluations_avoided, 1u);
}

TEST_F(EngineDeltaTest, MigrationDropsMemoizedState) {
  // A memoized clean failure must not follow the queries through an
  // ExtractPending()/AdoptPending() migration: the adopting engine
  // rebuilds from scratch and delivers once the missing partner lands.
  CoordinationEngine source(&db_, FlushOnly());
  ASSERT_TRUE(
      source.Submit("a: { U(B, x) } U(A, x) :- Users(x, 'user1').").ok());
  EXPECT_EQ(source.Flush(), 0u);  // clean failure memoized in `source`
  EXPECT_EQ(source.stats().evaluations, 1u);

  CoordinationEngine::PendingExtract extract = source.ExtractPending();
  ASSERT_EQ(extract.ids, (std::vector<QueryId>{0}));

  CoordinationEngine target(&db_, FlushOnly());
  std::vector<LoggedDelivery> log;
  LogDeliveries(&target, &log);
  target.AdoptPending(&extract);
  ASSERT_TRUE(
      target.Submit("b: { U(A, y) } U(B, y) :- Users(y, 'user1').").ok());
  EXPECT_EQ(target.Flush(), 1u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].queries, (std::vector<QueryId>{0, 1}));
  EXPECT_EQ(target.stats().evaluations_avoided, 0u);
}

TEST_F(EngineDeltaTest, ShardMergeByMigrationMatchesSingleEngine) {
  // Two stuck pairs memoize failures in separate shards; a bridge
  // forces a merge-by-migration; a late partner then completes one
  // pair.  The sharded engine must match the from-scratch reference
  // byte for byte across the whole stream.
  auto drive = [&](CoordinationService* engine,
                   std::vector<LoggedDelivery>* log) {
    LogDeliveries(engine, log);
    engine->set_evaluate_every(0);
    ASSERT_TRUE(
        engine->Submit("sa: { S(B, x) } S(A, x) :- Users(x, 'user3').").ok());
    ASSERT_TRUE(
        engine->Submit("ra: { R(B, x) } R(A, x) :- Users(x, 'user3').").ok());
    engine->Flush();  // both fail; verdicts memoized per shard
    // The bridge's postconditions span both relations, merging the two
    // components (and, sharded, migrating them into one shard).
    ASSERT_TRUE(engine
                    ->Submit("br: { S(A, x), R(A, x) } Q(T, x) :- "
                             "Users(x, 'user3').")
                    .ok());
    engine->Flush();  // still stuck (ra and br prune away)
    ASSERT_TRUE(
        engine->Submit("sb: { S(A, y) } S(B, y) :- Users(y, 'user3').").ok());
    engine->Flush();  // {sa, sb} completes
  };

  ReferenceCoordinator single(&db_);
  std::vector<LoggedDelivery> single_log;
  drive(&single, &single_log);
  ASSERT_EQ(single_log.size(), 1u);
  EXPECT_EQ(single_log[0].queries, (std::vector<QueryId>{0, 3}));

  for (size_t shard_threads : {size_t{1}, size_t{4}}) {
    ShardedEngineOptions options;
    options.engine = FlushOnly();
    options.shard_threads = shard_threads;
    ShardedCoordinationEngine sharded(&db_, options);
    std::vector<LoggedDelivery> sharded_log;
    drive(&sharded, &sharded_log);
    ASSERT_EQ(sharded_log.size(), single_log.size())
        << "shard_threads=" << shard_threads;
    EXPECT_TRUE(sharded_log[0] == single_log[0]);
    EXPECT_EQ(sharded.PendingQueries(), single.PendingQueries());
  }
}

TEST(EngineDeltaRenameTest, RenamedSymbolsHitIdenticalCacheDecisions) {
  // Cache decisions key on structure (member sets, edges, relation
  // stamps), never on interned symbol spellings: replaying the same
  // stream under an injective symbol renaming (every relation name and
  // string constant prefixed) must reproduce the exact evaluation /
  // memo-hit / skip counters.  The stream grows a stuck cycle one
  // satellite at a time — each re-evaluation memo-hits the unchanged
  // tail SCCs — then mutates an unrelated relation so the final flush
  // skips the component entirely off its stamps.
  EngineStats stats[2];
  for (int renamed = 0; renamed < 2; ++renamed) {
    const std::string p = renamed ? "Rn" : "";  // injective symbol renaming
    Database db;
    ASSERT_TRUE(InstallSocialTable(&db, p + "Users", 16).ok());
    auto* aux = db.CreateRelation(p + "Aux", {"v"}).value();

    CoordinationEngine engine(&db);
    // A cycle whose combined body never grounds ('nouser' is absent):
    // the component fails cleanly and its sweep verdicts are memoized.
    ASSERT_TRUE(engine
                    .Submit("pa: { " + p + "P(B, x) } " + p + "P(A, x) :- " +
                            p + "Users(x, '" + p + "nouser').")
                    .ok());
    ASSERT_TRUE(engine
                    .Submit("pb: { " + p + "P(A, y) } " + p + "P(B, y) :- " +
                            p + "Users(y, '" + p + "nouser').")
                    .ok());
    // Satellites posting into the cycle: each arrival re-solves the
    // component, and every sweep step below the arrival is served from
    // the memo (identical R(c), identical stamps).
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine
                      .Submit("c" + std::to_string(i) + ": { " + p +
                              "P(A, z) } " + p + "P(C" + std::to_string(i) +
                              ", z) :- " + p + "Users(z, '" + p +
                              "nouser').")
                      .ok());
    }
    // Mutating an unrelated relation dirties the component (facts
    // changed), but its stamps are current: the flush skips it.
    ASSERT_TRUE(aux->Insert({Value::Str(p + "row")}).ok());
    engine.Flush();
    stats[renamed] = engine.stats();
  }
  EXPECT_EQ(stats[0].evaluations, stats[1].evaluations);
  EXPECT_EQ(stats[0].eval_cache_hits, stats[1].eval_cache_hits);
  EXPECT_EQ(stats[0].evaluations_avoided, stats[1].evaluations_avoided);
  EXPECT_EQ(stats[0].coordinating_sets, stats[1].coordinating_sets);
  EXPECT_EQ(stats[0].coordinating_sets, 0u);  // the cycle stays stuck
  EXPECT_GT(stats[0].eval_cache_hits, 0u);
  EXPECT_GT(stats[0].evaluations_avoided, 0u);
}

}  // namespace
}  // namespace entangled
