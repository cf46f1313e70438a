// Generated-scenario throughput sweep: replays randomized workloads
// from the WorkloadGenerator (one run per topology x stream size) on
// the incremental engine and reports wall time, event throughput, and
// delivery counts.  Emits one BENCH_JSON record per configuration, so
// the committed BENCH_scenarios.json baseline tracks how engine
// changes move synthetic-workload throughput across interaction-graph
// shapes — the axes related work singles out as the hardness drivers.

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "system/engine.h"
#include "testing/stress_harness.h"
#include "workload/generator.h"

namespace entangled {
namespace {

struct Outcome {
  double ms = 0;
  uint64_t deliveries = 0;
  uint64_t evaluations = 0;
  uint64_t db_queries = 0;
  uint64_t eval_cache_hits = 0;
  uint64_t evaluations_avoided = 0;
};

/// Relation mutated by the churn epilogue below.  No generated query
/// ever reads it, so the inserts change no outcome — they only make
/// the database version move between flushes.
constexpr char kChurnRelation[] = "BenchChurn";

Outcome Replay(Database* db, const GeneratedWorkload& workload,
               size_t flush_threads) {
  EngineOptions options;
  options.flush_threads = flush_threads;
  CoordinationEngine engine(db, options);
  WallTimer timer;
  const std::string error = ReplayWorkloadEvents(&engine, workload.events);
  ENTANGLED_CHECK(error.empty()) << error;
  // Database-churn epilogue: a fact lands in a relation nobody reads,
  // then a flush.  The version bump dirties every live component, and
  // delta evaluation's stamps prove each one unchanged — the steady
  // state of a long-lived stream over a mutating database, and what
  // keeps evaluations_avoided nonzero in the committed baseline.
  ENTANGLED_CHECK(
      db->FindMutable(kChurnRelation)->Insert({Value::Int(1)}).ok());
  engine.Flush();
  Outcome outcome;
  outcome.ms = timer.ElapsedMillis();
  outcome.deliveries = engine.stats().coordinating_sets;
  outcome.evaluations = engine.stats().evaluations;
  outcome.db_queries = engine.stats().db_queries;
  outcome.eval_cache_hits = engine.stats().eval_cache_hits;
  outcome.evaluations_avoided = engine.stats().evaluations_avoided;
  return outcome;
}

void RunSweep() {
  benchutil::PrintSeriesHeader(
      "Generated-scenario sweep: incremental engine over topologies",
      {"topology", "queries", "threads", "events", "time_ms", "events_per_s",
       "deliveries"});
  for (GraphTopology topology : AllTopologies()) {
    for (size_t num_queries : {size_t{50}, size_t{150}}) {
      GeneratorOptions options;
      options.seed = 0xBE9C + static_cast<uint64_t>(topology) * 131 +
                     num_queries;
      options.topology = topology;
      options.num_queries = num_queries;
      options.population = 96;
      options.rows_per_relation = 192;
      options.batch_rate = 0.3;
      options.cancel_rate = 0.1;
      options.sharing_density = 0.2;
      options.eval_every_rate = 0.1;
      WorkloadGenerator generator(options);
      Database db;
      ENTANGLED_CHECK(generator.BuildDatabase(&db).ok());
      ENTANGLED_CHECK(db.CreateRelation(kChurnRelation, {"v"}).ok());
      GeneratedWorkload workload = generator.Generate();

      for (size_t threads : {size_t{1}, size_t{4}}) {
        Outcome outcome;
        const double ms = benchutil::MeanMillis(
            3, [&] { outcome = Replay(&db, workload, threads); });
        const double events_per_s =
            ms > 0 ? 1000.0 * static_cast<double>(workload.events.size()) / ms
                   : 0;
        benchutil::PrintRow({static_cast<double>(topology),
                             static_cast<double>(workload.num_queries),
                             static_cast<double>(threads),
                             static_cast<double>(workload.events.size()), ms,
                             events_per_s,
                             static_cast<double>(outcome.deliveries)});
        benchutil::PrintJsonRecord(
            std::string("scenarios_") + TopologyName(topology),
            {{"num_queries", static_cast<double>(workload.num_queries)},
             {"threads", static_cast<double>(threads)},
             {"events", static_cast<double>(workload.events.size())},
             {"ms", ms},
             {"events_per_s", events_per_s},
             {"deliveries", static_cast<double>(outcome.deliveries)},
             {"evaluations", static_cast<double>(outcome.evaluations)},
             {"db_queries", static_cast<double>(outcome.db_queries)},
             {"eval_cache_hits",
              static_cast<double>(outcome.eval_cache_hits)},
             {"evaluations_avoided",
              static_cast<double>(outcome.evaluations_avoided)}});
      }
    }
  }
}

}  // namespace
}  // namespace entangled

int main() {
  entangled::RunSweep();
  return 0;
}
