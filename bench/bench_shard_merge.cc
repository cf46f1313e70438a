// Shard merges: bridge arrivals/sec against a growing resident group,
// and the queries each merge moves under small-into-large migration.
//
// Scenario: one heavy relation group holds kResidents stuck queries
// (each its own component, all sharing relation G's footprint).  Each
// timed arrival first plants a stuck loner in a fresh relation Xi, then
// submits a bridge whose footprint spans Xi and G — so every bridge
// forces a two-shard merge.  Under the small-into-large policy the
// heavy shard survives and only the loner (plus nothing else) migrates:
// O(1) per bridge, and the residents' memoized component state rides
// along untouched.  A policy that rebuilds the union into a fresh engine
// moves every query on both sides of every merge: O(residents) per
// bridge, quadratic over the stream.  Over the same stream that is
// exactly queries_migrated + queries_retained (the survivor's queries
// stay put under small-into-large, so they are the difference).
//
// The gate is count-based, not time-based (robust on throttled CI
// hardware): the rebuild policy's moves must be >= 5x the
// small-into-large policy's — the O(smaller-side) acceptance bar.
// Wall-clock arrivals/sec is reported for the perf trajectory alongside.
//
// rebuild_ratio = (queries_migrated + queries_retained) / queries_migrated.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "system/sharded_engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

constexpr size_t kSocialRows = 4096;
constexpr size_t kResidents = 64;  ///< stuck queries in the heavy group
constexpr size_t kBridges = 64;    ///< timed merge-forcing arrivals

const Database& SocialDb() {
  static Database* db = [] {
    auto* database = new Database();
    ENTANGLED_CHECK(InstallSocialTable(database, "Users", kSocialRows).ok());
    return database;
  }();
  return *db;
}

/// Resident `i`: a pending sink in the shared heavy relation G — no
/// postconditions (so evaluation reaches it and records its verdict in
/// the component memo; a dead post would be pre-cleaned before any
/// state is built) and an ungroundable multi-atom body, so it pends
/// forever as its own evaluated component.  Small-into-large never
/// touches it again after the first flush.
std::string Resident(size_t i) {
  const std::string tag = "T" + std::to_string(i);
  return "g" + std::to_string(i) + ": { } G(" + tag +
         ", y) :- Users(y, 'nouser'), Users(y2, 'user1'), "
         "Users(y3, 'user2').";
}

/// The stuck loner bridge `i` will pull into the heavy group.
std::string Loner(size_t i) {
  const std::string rel = "X" + std::to_string(i);
  return "l" + std::to_string(i) + ": { " + rel + "(NeverL, x) } " + rel +
         "(L, x) :- Users(x, 'user7').";
}

/// Bridge `i`: footprint spans X<i> and G, so its arrival merges the
/// loner's shard into the heavy one.
std::string Bridge(size_t i) {
  const std::string rel = "X" + std::to_string(i);
  return "b" + std::to_string(i) + ": { " + rel + "(NeverL, x), G(NeverT0, "
         "x) } B(Tb" + std::to_string(i) + ", x) :- Users(x, 'user7').";
}

struct MergeOutcome {
  double seconds = 0;
  ShardedStats stats;
  uint64_t cache_hits = 0;
  double arrivals_per_sec() const { return kBridges / seconds; }
  /// Queries a rebuild-the-union merge policy moves over the stream.
  uint64_t rebuild_moves() const {
    return stats.queries_migrated + stats.queries_retained;
  }
};

MergeOutcome RunStream() {
  ShardedEngineOptions options;
  options.engine.evaluate_every = 0;
  ShardedCoordinationEngine engine(&SocialDb(), options);

  // Untimed setup: the resident group, evaluated once so every
  // component carries memoized solver state into the merge storm.
  for (size_t i = 0; i < kResidents; ++i) {
    ENTANGLED_CHECK(engine.Submit(Resident(i)).ok());
  }
  ENTANGLED_CHECK_EQ(engine.Flush(), size_t{0});
  ENTANGLED_CHECK_EQ(engine.num_pending(), kResidents);

  // Timed: each iteration plants a loner shard and bridges it into the
  // heavy group — one forced merge per bridge, then a flush so the
  // merged shard re-settles (the post-merge evaluation a live service
  // would pay).
  MergeOutcome outcome;
  WallTimer timer;
  for (size_t i = 0; i < kBridges; ++i) {
    ENTANGLED_CHECK(engine.Submit(Loner(i)).ok());
    ENTANGLED_CHECK(engine.Submit(Bridge(i)).ok());
    engine.Flush();
  }
  outcome.seconds = timer.ElapsedSeconds();
  ENTANGLED_CHECK_EQ(engine.num_pending(), kResidents + 2 * kBridges);
  ENTANGLED_CHECK_EQ(engine.num_live_shards(), size_t{1});
  outcome.stats = engine.sharded_stats();
  outcome.cache_hits = engine.StatsSnapshot().eval_cache_hits;
  return outcome;
}

void ShardMergeSeries() {
  benchutil::PrintSeriesHeader(
      "Shard merges: " + std::to_string(kBridges) +
          " bridge arrivals into a " + std::to_string(kResidents) +
          "-resident group, small-into-large",
      {"arrivals_per_sec", "migrated", "retained", "migrated_max",
       "rebuild_moves", "rebuild_ratio"});

  const MergeOutcome o = RunStream();
  const double rebuild_ratio = static_cast<double>(o.rebuild_moves()) /
                               static_cast<double>(o.stats.queries_migrated);
  benchutil::PrintRow({o.arrivals_per_sec(),
                       static_cast<double>(o.stats.queries_migrated),
                       static_cast<double>(o.stats.queries_retained),
                       static_cast<double>(o.stats.merge_migrated_max),
                       static_cast<double>(o.rebuild_moves()), rebuild_ratio});
  benchutil::PrintJsonRecord(
      "shard_merge",
      {{"residents", static_cast<double>(kResidents)},
       {"bridges", static_cast<double>(kBridges)},
       {"arrivals_per_sec", o.arrivals_per_sec()},
       {"merge_events", static_cast<double>(o.stats.merge_events)},
       {"queries_migrated", static_cast<double>(o.stats.queries_migrated)},
       {"queries_retained", static_cast<double>(o.stats.queries_retained)},
       {"merge_migrated_max",
        static_cast<double>(o.stats.merge_migrated_max)},
       {"eval_cache_hits", static_cast<double>(o.cache_hits)},
       {"rebuild_moves", static_cast<double>(o.rebuild_moves())},
       {"rebuild_ratio", rebuild_ratio}});

  ENTANGLED_CHECK_EQ(o.stats.merge_events, static_cast<uint64_t>(kBridges));
  // A rebuild re-homes the whole union per merge while small-into-large
  // moves only the loner: >= 5x fewer moves is the acceptance bar (the
  // true gap grows with the resident group — 128x at these sizes).
  ENTANGLED_CHECK_GE(o.rebuild_moves(), 5 * o.stats.queries_migrated)
      << "small-into-large merges must move >= 5x fewer queries than "
         "rebuilding the union";
  // Per-merge high-water mark: the survivor never rebuilt.
  ENTANGLED_CHECK_LE(o.stats.merge_migrated_max, uint64_t{2});
  benchutil::PrintNote(
      "small-into-large migrated " +
      std::to_string(o.stats.queries_migrated) + " queries and retained " +
      std::to_string(o.stats.queries_retained) + " in place across " +
      std::to_string(o.stats.merge_events) + " merges; rebuilding the union "
      "would move " + std::to_string(o.rebuild_moves()));
}

}  // namespace
}  // namespace entangled

int main() {
  entangled::ShardMergeSeries();
  return 0;
}
