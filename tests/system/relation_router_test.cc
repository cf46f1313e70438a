// Routing edge cases in the sharded front door, which maps each answer
// relation that a live shard's queries named in their postconditions or
// heads to that shard (system/sharded_engine.h): body relations never
// route, k-way shard merges in one submission, shard GC when a Cancel
// drains a shard, re-bridging a previously merged-then-drained group,
// and global-id stability across migration.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

class ShardedRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
    ShardedEngineOptions options;
    options.engine.evaluate_every = 0;  // drive evaluation explicitly
    engine_ = std::make_unique<ShardedCoordinationEngine>(&db_, options);
  }

  /// A pending query with head relation `rel` and tag `tag`, optionally
  /// posting on `post_rel`(`post_tag`, x).  Body always grounds.
  static std::string Query(const std::string& name, const std::string& rel,
                           const std::string& tag,
                           const std::string& posts = "") {
    return name + ": { " + posts + " } " + rel + "(" + tag +
           ", x) :- Users(x, 'user1').";
  }

  QueryId MustSubmit(const std::string& text) {
    auto id = engine_->Submit(text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  Database db_;
  std::unique_ptr<ShardedCoordinationEngine> engine_;
};

TEST_F(ShardedRoutingTest, DisjointFootprintsGetSeparateShards) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  QueryId b = MustSubmit(Query("qb", "B", "Tb"));
  QueryId c = MustSubmit(Query("qc", "C", "Tc"));
  EXPECT_EQ(engine_->num_live_shards(), 3u);
  EXPECT_FALSE(engine_->SameShard(a, b));
  EXPECT_FALSE(engine_->SameShard(b, c));
  EXPECT_EQ(engine_->sharded_stats().group_merges, 0u);
  // A, B and C route; the shared body relation Users does not.
  EXPECT_EQ(engine_->num_routed_relations(), 3u);
}

TEST_F(ShardedRoutingTest, KWayMergeInOneSubmission) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  QueryId b = MustSubmit(Query("qb", "B", "Tb"));
  QueryId c = MustSubmit(Query("qc", "C", "Tc"));
  ASSERT_EQ(engine_->num_live_shards(), 3u);

  // One arrival whose posts span A, B, and C (and a new head relation
  // D): the three live shards merge at once, and D joins the survivor.
  QueryId k = MustSubmit(Query("qk", "D", "Td",
                               "A(Ta, x), B(Tb, x), C(Tc, x)"));
  EXPECT_EQ(engine_->num_live_shards(), 1u);
  EXPECT_TRUE(engine_->SameShard(a, k));
  EXPECT_TRUE(engine_->SameShard(b, k));
  EXPECT_TRUE(engine_->SameShard(c, k));
  const ShardedStats& stats = engine_->sharded_stats();
  EXPECT_EQ(stats.group_merges, 1u);
  // Small-into-large: one of the three equal-sized shards survives
  // (ties break toward the smallest slot) and the other two migrate.
  EXPECT_EQ(stats.shards_absorbed, 2u);
  EXPECT_EQ(stats.queries_migrated, 2u);
  EXPECT_EQ(stats.queries_retained, 1u);
  EXPECT_EQ(stats.merge_migrated_max, 2u);

  // The posts unify with the three heads, so the coordination component
  // spans all four queries — and ComponentOf reports global ids.
  EXPECT_EQ(engine_->ComponentOf(k), (std::vector<QueryId>{a, b, c, k}));
}

TEST_F(ShardedRoutingTest, CancelEmptyingAShardGcsIt) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  MustSubmit(Query("qb", "B", "Tb"));
  ASSERT_EQ(engine_->num_live_shards(), 2u);

  EXPECT_TRUE(engine_->Cancel(a));
  EXPECT_EQ(engine_->num_live_shards(), 1u);
  EXPECT_EQ(engine_->sharded_stats().shards_gced, 1u);
  EXPECT_FALSE(engine_->IsPending(a));
  EXPECT_EQ(engine_->num_pending(), 1u);
  // A unrouted with the shard: the next A query starts a fresh shard
  // instead of resurrecting routing state.
  QueryId a2 = MustSubmit(Query("qa2", "A", "Ta2"));
  EXPECT_EQ(engine_->num_live_shards(), 2u);
  EXPECT_TRUE(engine_->IsPending(a2));
}

TEST_F(ShardedRoutingTest, RebridgingAMergedThenDrainedGroup) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  QueryId b = MustSubmit(Query("qb", "B", "Tb"));
  QueryId bridge = MustSubmit(Query("qbr", "C", "Tc", "A(Ta, x), B(Tb, x)"));
  ASSERT_EQ(engine_->num_live_shards(), 1u);
  ASSERT_EQ(engine_->sharded_stats().group_merges, 1u);

  // Drain the merged shard entirely; its relations A, B and C unroute.
  EXPECT_TRUE(engine_->Cancel(bridge));
  EXPECT_TRUE(engine_->Cancel(a));
  EXPECT_TRUE(engine_->Cancel(b));
  EXPECT_EQ(engine_->num_live_shards(), 0u);
  EXPECT_EQ(engine_->num_pending(), 0u);
  EXPECT_EQ(engine_->sharded_stats().shards_gced, 1u);
  EXPECT_EQ(engine_->num_routed_relations(), 0u);

  // A and B start out independent again...
  QueryId a2 = MustSubmit(Query("qa2", "A", "Ta"));
  QueryId b2 = MustSubmit(Query("qb2", "B", "Tb"));
  EXPECT_EQ(engine_->num_live_shards(), 2u);
  EXPECT_FALSE(engine_->SameShard(a2, b2));
  // ...and a fresh bridge re-merges them from scratch.
  QueryId bridge2 = MustSubmit(Query("qbr2", "C", "Tc", "A(Ta, x), B(Tb, x)"));
  EXPECT_EQ(engine_->num_live_shards(), 1u);
  EXPECT_TRUE(engine_->SameShard(a2, bridge2));
  EXPECT_TRUE(engine_->SameShard(b2, bridge2));
  EXPECT_EQ(engine_->sharded_stats().group_merges, 2u);
}

TEST_F(ShardedRoutingTest, GlobalIdsAreStableAcrossMigration) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  QueryId b = MustSubmit(Query("qb", "B", "Tb"));
  QueryId c = MustSubmit(Query("qc", "C", "Tc"));
  QueryId bridge = MustSubmit(Query("qbr", "D", "Td",
                                    "A(Ta, x), B(Tb, x), C(Tc, x)"));
  // Migration moves queries between shards but never changes an id.
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(c, 2);
  EXPECT_EQ(bridge, 3);
  for (QueryId id : {a, b, c, bridge}) {
    EXPECT_TRUE(engine_->IsPending(id));
  }
  EXPECT_EQ(engine_->PendingQueries(), (std::vector<QueryId>{a, b, c, bridge}));
  EXPECT_EQ(engine_->ComponentOf(a), (std::vector<QueryId>{a, b, c, bridge}));

  // Cancelling the bridge splits the component; ids still stable even
  // though every query migrated shards.
  EXPECT_TRUE(engine_->Cancel(bridge));
  EXPECT_EQ(engine_->ComponentOf(a), (std::vector<QueryId>{a}));
  EXPECT_EQ(engine_->PendingQueries(), (std::vector<QueryId>{a, b, c}));
}

}  // namespace
}  // namespace entangled
