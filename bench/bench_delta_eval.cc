// Delta-aware evaluation: events/sec and database probes through one
// large live component absorbing single-query arrivals.
//
// Scenario: a hub query posts at kMembers-1 sink queries (distinct
// relations, so each sink is its own SCC), and every sink's body is an
// unsatisfiable full scan of the kSocialRows-row Users table.  The
// component is stuck: each evaluation grounds every sink SCC (one
// database FindOne each, all failing) and then dooms the hub off its
// failed successors.  Arrivals post into the first sink — each one
// joins the component and, at evaluate_every=1, re-solves it.
//
// Without a memo that is O(members) database probes per arrival: every
// sweep step the per-component EvalMemo serves (eval_cache_hits) is one
// probe a memo-free evaluation issues, so db_queries + eval_cache_hits
// over the timed window is the memo-free probe count.  With the memo the
// engine replays every sink's stamped verdict, so an arrival costs zero
// probes — only the graph sweep itself.  The gate is count-based
// (deterministic on any hardware): timed db_queries must be at most a
// fifth of the memo-free count.

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "system/engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

constexpr size_t kSocialRows = 16384;
constexpr size_t kMembers = 256;  ///< component size when the clock starts
constexpr size_t kSinks = kMembers - 1;  ///< failing sink SCCs per sweep
constexpr size_t kArrivals = 32;  ///< timed single-query arrivals

const Database& SocialDb() {
  static Database* db = [] {
    auto* database = new Database();
    ENTANGLED_CHECK(InstallSocialTable(database, "Users", kSocialRows).ok());
    return database;
  }();
  return *db;
}

/// Sink `i`: no postconditions (always alive), head in its own
/// relation, and a multi-atom body that never grounds ('nouser' is not
/// a handle).  The extra atoms are what an evaluation pays for per
/// sweep step — substitution application, combined-body construction,
/// dedup — and what the memo's stored verdict replays for free.
std::string Sink(size_t i) {
  const std::string rel = "S" + std::to_string(i);
  return "s" + std::to_string(i) + ": { } " + rel +
         "(A, y) :- Users(y, 'nouser'), Users(y2, 'user1'), "
         "Users(y3, 'user2'), Users(y4, 'user3').";
}

/// The hub: one postcondition per sink, so all sinks and the hub are
/// one connected component.
std::string Hub() {
  std::string posts;
  for (size_t i = 0; i < kSinks; ++i) {
    if (i > 0) posts += ", ";
    posts += "S" + std::to_string(i) + "(A, x)";
  }
  return "h: { " + posts + " } H(T, x) :- Users(x, 'nouser').";
}

/// Arrival `i`: posts into sink 0, joining the component as one more
/// doomed-by-successor SCC.
std::string Arrival(size_t i) {
  return "c" + std::to_string(i) + ": { S0(A, w) } C" + std::to_string(i) +
         "(T, w) :- Users(w, 'nouser').";
}

/// Counters of the timed window only (setup excluded).
struct DeltaOutcome {
  double seconds = 0;
  uint64_t evaluations = 0;
  uint64_t evaluations_avoided = 0;
  uint64_t db_queries = 0;
  uint64_t eval_cache_hits = 0;
  uint64_t coordinating_sets = 0;
  double events_per_sec() const { return kArrivals / seconds; }
  /// Probes an engine without the memo issues for the same window.
  uint64_t memo_free_probes() const { return db_queries + eval_cache_hits; }
};

DeltaOutcome RunStream() {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&SocialDb(), options);

  // Untimed setup: grow the component to kMembers and evaluate it
  // once, priming the memo with every sink's stamped verdict.
  for (size_t i = 0; i < kSinks; ++i) {
    ENTANGLED_CHECK(engine.Submit(Sink(i)).ok());
  }
  ENTANGLED_CHECK(engine.Submit(Hub()).ok());
  ENTANGLED_CHECK_EQ(engine.Flush(), size_t{0});
  ENTANGLED_CHECK_EQ(engine.num_pending(), kMembers);

  // Timed: one evaluation per absorbed arrival.
  engine.set_evaluate_every(1);
  const EngineStats before = engine.stats();
  DeltaOutcome outcome;
  WallTimer timer;
  for (size_t i = 0; i < kArrivals; ++i) {
    ENTANGLED_CHECK(engine.Submit(Arrival(i)).ok());
  }
  outcome.seconds = timer.ElapsedSeconds();
  ENTANGLED_CHECK_EQ(engine.num_pending(), kMembers + kArrivals);
  const EngineStats& after = engine.stats();
  outcome.evaluations = after.evaluations - before.evaluations;
  outcome.evaluations_avoided =
      after.evaluations_avoided - before.evaluations_avoided;
  outcome.db_queries = after.db_queries - before.db_queries;
  outcome.eval_cache_hits = after.eval_cache_hits - before.eval_cache_hits;
  outcome.coordinating_sets =
      after.coordinating_sets - before.coordinating_sets;
  return outcome;
}

void DeltaEvalSeries() {
  benchutil::PrintSeriesHeader(
      "Delta evaluation: events/sec absorbing single arrivals into a " +
          std::to_string(kMembers) + "-member component",
      {"events_per_sec", "db_queries", "eval_cache_hits",
       "memo_free_probes"});

  const DeltaOutcome o = RunStream();
  benchutil::PrintRow({o.events_per_sec(), static_cast<double>(o.db_queries),
                       static_cast<double>(o.eval_cache_hits),
                       static_cast<double>(o.memo_free_probes())});
  benchutil::PrintJsonRecord(
      "delta_eval",
      {{"members", static_cast<double>(kMembers)},
       {"arrivals", static_cast<double>(kArrivals)},
       {"events_per_sec", o.events_per_sec()},
       {"evaluations", static_cast<double>(o.evaluations)},
       {"db_queries", static_cast<double>(o.db_queries)},
       {"eval_cache_hits", static_cast<double>(o.eval_cache_hits)},
       {"memo_free_probes", static_cast<double>(o.memo_free_probes())},
       {"evaluations_avoided", static_cast<double>(o.evaluations_avoided)}});

  // Every arrival re-solved the stuck component, and the memo engaged.
  ENTANGLED_CHECK_EQ(o.evaluations, static_cast<uint64_t>(kArrivals));
  ENTANGLED_CHECK_EQ(o.coordinating_sets, uint64_t{0});
  ENTANGLED_CHECK_GT(o.eval_cache_hits, uint64_t{0});
  ENTANGLED_CHECK_LE(5 * o.db_queries, o.memo_free_probes())
      << "memoized sweep steps must cut single-arrival database probes to "
         "at most a fifth of what a memo-free evaluation issues";
  benchutil::PrintNote(
      "timed window: " + std::to_string(o.db_queries) +
      " database probes issued, " + std::to_string(o.eval_cache_hits) +
      " sweep steps served by the memo (" +
      std::to_string(o.memo_free_probes()) + " probes without it)");
}

}  // namespace
}  // namespace entangled

int main() {
  entangled::DeltaEvalSeries();
  return 0;
}
