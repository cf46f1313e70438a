// Streaming-engine throughput: incremental coordination core versus
// the from-scratch ReferenceCoordinator (testing/reference_coordinator.h).
//
// Scenario: a backlog of `pending` stuck queries (each waiting on a
// postcondition nobody answers — the §6.1 steady state of requests that
// have not coordinated yet) sits in the engine while a stream of
// mutually-entangled pairs arrives under the eager per-arrival policy.
// The incremental core admits an arrival through its per-relation
// unification index and evaluates just the arrival's component (a
// union-find lookup); the reference rebuilds the coordination graph over
// the whole pending set for every arrival, which is O(pending²)
// atom-pair work per submission.
//
// A second series measures Flush() fan-out: N independent coordinating
// components evaluated by 1 vs. several worker threads.
//
// A third series (index_admission) counts the unification work of
// admission alone, straight through ExtendedCoordinationGraph: candidate
// atoms tested per admitted query against the edges they produce.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/coordination_graph.h"
#include "core/parser.h"
#include "system/engine.h"
#include "testing/reference_coordinator.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

constexpr size_t kSocialRows = 4096;

const Database& SocialDb() {
  static Database* db = [] {
    auto* database = new Database();
    ENTANGLED_CHECK(InstallSocialTable(database, "Users", kSocialRows).ok());
    return database;
  }();
  return *db;
}

std::string StuckQuery(size_t i) {
  return "w" + std::to_string(i) + ": { Dead" + std::to_string(i) +
         "(m) } W" + std::to_string(i) + "(s) :- Users(s, 'user" +
         std::to_string(i % 97) + "').";
}

/// Pair i coordinates with itself through answer relation P{i}.
std::vector<std::string> PairQueries(size_t i) {
  const std::string rel = "P" + std::to_string(i);
  const std::string handle = "'user" + std::to_string(i % 97) + "'";
  return {
      "a" + std::to_string(i) + ": { " + rel + "(Bob, x) } " + rel +
          "(Alice, x) :- Users(x, " + handle + ").",
      "b" + std::to_string(i) + ": { " + rel + "(Alice, y) } " + rel +
          "(Bob, y) :- Users(y, " + handle + ").",
  };
}

struct StreamOutcome {
  double seconds = 0;
  size_t arrivals = 0;
  uint64_t sets = 0;
  uint64_t db_queries = 0;
  double qps() const { return arrivals / seconds; }
};

/// Preloads the stuck backlog without evaluation, switches to the eager
/// per-arrival policy, then streams pair arrivals until `max_arrivals`
/// or the time budget runs out (the reference is far too slow to stream
/// thousands of arrivals at a 10k backlog).
StreamOutcome RunStream(CoordinationService* engine, size_t pending,
                        size_t max_arrivals, double budget_seconds) {
  engine->set_evaluate_every(0);
  for (size_t i = 0; i < pending; ++i) {
    auto id = engine->Submit(StuckQuery(i));
    ENTANGLED_CHECK(id.ok()) << id.status();
  }
  engine->set_evaluate_every(1);

  StreamOutcome outcome;
  const uint64_t db_before = engine->StatsSnapshot().db_queries;
  WallTimer timer;
  size_t pair = 0;
  while (outcome.arrivals < max_arrivals &&
         (outcome.arrivals < 2 ||
          timer.ElapsedSeconds() < budget_seconds)) {
    for (const std::string& text : PairQueries(pair++)) {
      auto id = engine->Submit(text);
      ENTANGLED_CHECK(id.ok()) << id.status();
      ++outcome.arrivals;
    }
  }
  outcome.seconds = timer.ElapsedSeconds();
  const EngineStats stats = engine->StatsSnapshot();
  outcome.sets = stats.coordinating_sets;
  outcome.db_queries = stats.db_queries - db_before;
  ENTANGLED_CHECK_EQ(outcome.sets, static_cast<uint64_t>(pair))
      << "every pair must coordinate on its second arrival";
  ENTANGLED_CHECK_EQ(engine->PendingQueries().size(), pending)
      << "the stuck backlog must survive untouched";
  return outcome;
}

void StreamSeries() {
  benchutil::PrintSeriesHeader(
      "Incremental stream: sustained submissions/sec vs pending backlog, "
      "eager per-arrival evaluation",
      {"pending", "incremental_qps", "rebuild_qps", "speedup"});
  double speedup_at_10k = 0;
  for (size_t pending : {size_t{1000}, size_t{10000}}) {
    CoordinationEngine incremental(&SocialDb());
    StreamOutcome fast = RunStream(&incremental, pending,
                                   /*max_arrivals=*/2000,
                                   /*budget_seconds=*/5.0);
    ReferenceCoordinator reference(&SocialDb());
    StreamOutcome slow = RunStream(&reference, pending,
                                   /*max_arrivals=*/2000,
                                   /*budget_seconds=*/2.0);
    const double speedup = fast.qps() / slow.qps();
    if (pending == 10000) speedup_at_10k = speedup;
    benchutil::PrintRow({static_cast<double>(pending), fast.qps(),
                         slow.qps(), speedup});
    benchutil::PrintJsonRecord(
        "incremental_stream",
        {{"pending", static_cast<double>(pending)},
         {"incremental_qps", fast.qps()},
         {"incremental_arrivals", static_cast<double>(fast.arrivals)},
         {"incremental_db_queries", static_cast<double>(fast.db_queries)},
         {"rebuild_qps", slow.qps()},
         {"rebuild_arrivals", static_cast<double>(slow.arrivals)},
         {"rebuild_db_queries", static_cast<double>(slow.db_queries)},
         {"speedup", speedup}});
  }
  benchutil::PrintNote(
      "the reference coordinator (rebuild_*) rebuilds the coordination "
      "graph over the whole pending set per arrival; the incremental index "
      "touches only the arrival's relation buckets and component");
  ENTANGLED_CHECK_GE(speedup_at_10k, 5.0)
      << "incremental core must beat the from-scratch reference by >= 5x "
         "sustained submissions/sec at a 10k pending backlog";
}

void ParallelFlushSeries() {
  benchutil::PrintSeriesHeader(
      "Parallel flush: N independent coordinating pairs per flush, "
      "1 vs 4 worker threads",
      {"components", "t1_ms", "t4_ms", "t1_qps", "t4_qps"});
  for (size_t components : {size_t{64}, size_t{256}}) {
    double ms[2];
    for (size_t mode = 0; mode < 2; ++mode) {
      EngineOptions options;
      options.evaluate_every = 0;
      options.flush_threads = mode == 0 ? 1 : 4;
      CoordinationEngine engine(&SocialDb(), options);
      for (size_t i = 0; i < components; ++i) {
        for (const std::string& text : PairQueries(i)) {
          ENTANGLED_CHECK(engine.Submit(text).ok());
        }
      }
      WallTimer timer;
      size_t delivered = engine.Flush();
      ms[mode] = timer.ElapsedMillis();
      ENTANGLED_CHECK_EQ(delivered, components);
    }
    const double n = static_cast<double>(2 * components);
    benchutil::PrintRow({static_cast<double>(components), ms[0], ms[1],
                         n / (ms[0] / 1e3), n / (ms[1] / 1e3)});
    benchutil::PrintJsonRecord(
        "parallel_flush",
        {{"components", static_cast<double>(components)},
         {"t1_ms", ms[0]},
         {"t4_ms", ms[1]},
         {"t1_qps", n / (ms[0] / 1e3)},
         {"t4_qps", n / (ms[1] / 1e3)}});
  }
  benchutil::PrintNote(
      "disjoint dirty components evaluate on the pool; results apply in "
      "deterministic component order, so outputs match the serial flush "
      "bit for bit (gains require hardware parallelism)");
}

/// Admission through the unification index alone, on dense-shaped
/// groups (perfbench's `dense`): 16-24 members, each posting with
/// probability 0.25 on each partner's head, every group g coordinating
/// through `A<g % 16>` and naming members by constant first arguments,
/// `A9(G9M4, x)`.  The last `live_groups` groups stay live and each
/// admitted group retires the oldest, one retirement per delivered
/// group, so a relation bucket holds atoms of several groups.  Tests and
/// edges are counts; they repeat exactly on any host.
void IndexAdmissionSeries() {
  constexpr size_t kGroups = 1000;
  constexpr size_t kRelations = 16;
  benchutil::PrintSeriesHeader(
      "Index admission: dense-shaped groups through AddQuery/RetireQueries, "
      "candidates tested and edges per admitted query",
      {"live_groups", "tests_per_admission", "edges_per_admission",
       "admit_us"});
  Rng rng(24);
  QuerySet set;
  std::vector<std::vector<QueryId>> groups(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    const size_t size = 16 + rng.NextBounded(9);
    auto atom = [g](size_t member) {
      return "A" + std::to_string(g % kRelations) + "(G" + std::to_string(g) +
             "M" + std::to_string(member) + ", x)";
    };
    for (size_t m = 0; m < size; ++m) {
      std::string posts;
      for (size_t partner = 0; partner < size; ++partner) {
        if (partner == m || !rng.NextBool(0.25)) continue;
        posts += (posts.empty() ? "" : ", ") + atom(partner);
      }
      auto id = ParseQuery("q" + std::to_string(g) + "_" + std::to_string(m) +
                               ": { " + posts + " } " + atom(m) +
                               " :- Users(x, 'u').",
                           &set);
      ENTANGLED_CHECK(id.ok()) << id.status();
      groups[g].push_back(*id);
    }
  }
  for (size_t live_groups : {size_t{16}, size_t{64}}) {
    ExtendedCoordinationGraph graph;
    uint64_t admissions = 0;
    uint64_t edges = 0;
    WallTimer timer;
    for (size_t g = 0; g < kGroups; ++g) {
      for (QueryId q : groups[g]) {
        graph.AddQuery(set, q);
        ++admissions;
        // No member posts on its own head, so no edge is in both lists.
        edges += graph.OutEdges(q).size() + graph.InEdges(q).size();
      }
      if (g >= live_groups) graph.RetireQueries(groups[g - live_groups]);
    }
    const double admit_us = timer.ElapsedSeconds() * 1e6 / admissions;
    const uint64_t tests = graph.positionwise_tests();
    const double n = static_cast<double>(admissions);
    benchutil::PrintRow({static_cast<double>(live_groups), tests / n,
                         edges / n, admit_us});
    benchutil::PrintJsonRecord(
        "index_admission",
        {{"live_groups", static_cast<double>(live_groups)},
         {"admissions", n},
         {"tests_per_admission", tests / n},
         {"edges_per_admission", edges / n},
         {"admit_us", admit_us}});
    ENTANGLED_CHECK_LE(tests, 2 * edges)
        << "admission must not test candidates whose first argument names "
           "another member: "
        << tests << " tests for " << edges << " edges";
  }
  benchutil::PrintNote(
      "admit_us times AddQuery plus the amortized RetireQueries; the "
      "first-argument filter keeps tests near edges at any backlog");
}

}  // namespace
}  // namespace entangled

int main() {
  entangled::StreamSeries();
  entangled::ParallelFlushSeries();
  entangled::IndexAdmissionSeries();
  return 0;
}
