// Router edge cases: the union-find over answer relations
// (system/relation_router.h) and the routing/merge/GC behaviour it
// drives in the sharded front door — k-way group merges in one
// submission, shard GC when a Cancel drains a shard, re-bridging a
// previously merged-then-drained group, and global-id stability across
// migration.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query.h"
#include "system/relation_router.h"
#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

// ---------------------------------------------------------------------------
// RelationRouter unit tests
// ---------------------------------------------------------------------------

TEST(RelationRouterTest, InternIsIdempotent) {
  RelationRouter router;
  RelationId a = router.Intern("A");
  EXPECT_EQ(router.Intern("A"), a);
  RelationId b = router.Intern("B");
  EXPECT_NE(a, b);
  EXPECT_EQ(router.num_relations(), 2u);
  EXPECT_EQ(router.relation_name(a), "A");
  EXPECT_EQ(router.num_groups(), 2u);
}

TEST(RelationRouterTest, FootprintCoversPostsAndHeadsOnly) {
  QuerySet set;
  QueryBuilder builder(&set, "q");
  VarId x = builder.Var("x");
  builder.Post("A", {Term::Str("T"), Term::Var(x)});
  builder.Post("B", {Term::Str("T"), Term::Var(x)});
  builder.Head("C", {Term::Str("T"), Term::Var(x)});
  builder.Body("Users", {Term::Var(x), Term::Str("user1")});
  QueryId q = builder.Build();

  RelationRouter router;
  std::vector<RelationId> footprint = router.Footprint(set, q);
  ASSERT_EQ(footprint.size(), 3u);  // A, B, C — never the body's Users
  for (RelationId r : footprint) {
    EXPECT_NE(router.relation_name(r), "Users");
  }
}

TEST(RelationRouterTest, UniteReportsPriorRootsAndMerges) {
  RelationRouter router;
  RelationId a = router.Intern("A");
  RelationId b = router.Intern("B");
  RelationId c = router.Intern("C");
  // Three singleton groups; one footprint touching all three merges
  // them and reports all three prior roots.
  std::vector<RelationId> prior;
  RelationId root = router.Unite({a, b, c}, &prior);
  EXPECT_EQ(prior.size(), 3u);
  EXPECT_EQ(router.Find(a), root);
  EXPECT_EQ(router.Find(b), root);
  EXPECT_EQ(router.Find(c), root);
  EXPECT_EQ(router.num_groups(), 1u);
  EXPECT_EQ(router.GroupRelations(root).size(), 3u);

  // Uniting within the merged group is a no-op with one prior root.
  router.Unite({b, c}, &prior);
  EXPECT_EQ(prior.size(), 1u);
  EXPECT_EQ(prior.front(), root);
}

TEST(RelationRouterTest, DissolveGroupRestoresSingletons) {
  RelationRouter router;
  RelationId a = router.Intern("A");
  RelationId b = router.Intern("B");
  RelationId root = router.Unite({a, b});
  ASSERT_EQ(router.num_groups(), 1u);
  router.DissolveGroup(root);
  EXPECT_EQ(router.num_groups(), 2u);
  EXPECT_EQ(router.Find(a), a);
  EXPECT_EQ(router.Find(b), b);
  // Dissolved relations re-bridge like fresh ones.
  EXPECT_EQ(router.Find(a), router.Find(a));
  RelationId again = router.Unite({a, b});
  EXPECT_EQ(router.Find(b), again);
}

// ---------------------------------------------------------------------------
// Routing behaviour through the sharded front door
// ---------------------------------------------------------------------------

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
}

TEST_F(ShardedRoutingTest, KWayMergeInOneSubmission) {
  QueryId a = MustSubmit(Query("qa", "A", "Ta"));
  QueryId b = MustSubmit(Query("qb", "B", "Tb"));
  QueryId c = MustSubmit(Query("qc", "C", "Tc"));
  ASSERT_EQ(engine_->num_live_shards(), 3u);

  // One arrival whose posts span A, B, and C (and a new head relation
  // D): all four groups — three of them live shards — merge at once.
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
  // A's group dissolved with the shard: the next A query starts a
  // fresh shard instead of resurrecting routing state.
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

  // Drain the merged shard entirely; its {A, B, C} relation group
  // dissolves back into singletons.
  EXPECT_TRUE(engine_->Cancel(bridge));
  EXPECT_TRUE(engine_->Cancel(a));
  EXPECT_TRUE(engine_->Cancel(b));
  EXPECT_EQ(engine_->num_live_shards(), 0u);
  EXPECT_EQ(engine_->num_pending(), 0u);
  EXPECT_EQ(engine_->sharded_stats().shards_gced, 1u);

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
