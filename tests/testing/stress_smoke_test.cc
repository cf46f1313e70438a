// The tier-1 stress gate (registered with ctest as `stress_smoke`):
// a fixed-seed sweep of generated scenarios across all four topologies
// and several knob profiles, each differentially verified — the
// incremental engine at flush_threads 1 and 4 *and* the sharded front
// door at shard-pool threads 1 and 4 against the from-scratch
// ReferenceCoordinator — with witness validation, component-partition
// equality, EngineStats invariants, and metamorphic re-runs.  Kept
// under ~30 s; the deep sweep lives in stress_long_test.cc.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/stress_harness.h"
#include "workload/generator.h"

namespace entangled {
namespace {

/// One knob profile applied across topologies and seeds.
struct Profile {
  const char* name;
  void (*apply)(GeneratorOptions*);
};

const Profile kProfiles[] = {
    {"default", [](GeneratorOptions*) {}},
    {"cancel_heavy",
     [](GeneratorOptions* o) {
       o->cancel_rate = 0.4;
       o->unsafe_rate = 0.3;
     }},
    {"batch_heavy",
     [](GeneratorOptions* o) {
       o->batch_rate = 0.8;
       o->max_batch = 6;
       o->eval_every_rate = 0.2;
     }},
    {"bridged",
     [](GeneratorOptions* o) {
       o->sharing_density = 0.6;
       o->min_group = 3;
     }},
    {"wide_schema",
     [](GeneratorOptions* o) {
       o->num_relations = 5;
       o->min_arity = 1;
       o->max_arity = 4;
       o->max_body_atoms = 3;
       o->stuck_body_rate = 0.2;
     }},
    // Answer-relation namespace widths for the sharded front door: one
    // shard per group is the default elsewhere (relation_partitions=0);
    // these profiles force the all-merge pathological case, a few wide
    // relation groups, and a fine partitioning, with cancels and
    // bridges so shards merge, migrate, and GC mid-stream.
    {"all_merge",
     [](GeneratorOptions* o) {
       o->relation_partitions = 1;
       o->cancel_rate = 0.2;
     }},
    {"partitioned_4",
     [](GeneratorOptions* o) {
       o->relation_partitions = 4;
       o->sharing_density = 0.4;
       o->cancel_rate = 0.2;
     }},
    {"partitioned_16",
     [](GeneratorOptions* o) {
       o->relation_partitions = 16;
       o->batch_rate = 0.5;
     }},
    // Merge churn: every 3rd query bridges the two most recent earlier
    // groups, so k-way shard merges fire constantly — the hot path of
    // the small-into-large migration.
    {"bridge_storm",
     [](GeneratorOptions* o) {
       o->bridge_storm = 3;
       o->min_group = 3;
       o->cancel_rate = 0.2;
     }},
};

TEST(StressSmoke, SweepAllTopologies) {
  StressOptions stress;
  // Every smoke scenario also runs the kill-and-rehydrate differential
  // (durable-wrapped incremental + sharded variants crashed mid-stream
  // and recovered from disk); the modulo in the harness turns this one
  // knob into a stream-dependent crash point per scenario.
  stress.crash_at_event = 11;
  StressHarness harness(stress);
  size_t scenarios = 0;
  size_t total_deliveries = 0;
  for (GraphTopology topology : AllTopologies()) {
    for (const Profile& profile : kProfiles) {
      for (uint64_t seed : {1u, 2u}) {
        GeneratorOptions options;
        options.seed = 1000 * static_cast<uint64_t>(topology) +
                       100 * (&profile - kProfiles) + seed;
        options.topology = topology;
        options.num_queries = 24;
        profile.apply(&options);
        StressReport report = harness.RunScenario(options);
        EXPECT_TRUE(report.ok)
            << TopologyName(topology) << "/" << profile.name
            << " seed=" << options.seed << ": " << report.failure << "\n"
            << report.reproduction;
        ++scenarios;
        total_deliveries += report.deliveries;
      }
    }
  }
  // The acceptance bar: >= 20 distinct seeded scenarios over >= 4
  // topologies, all divergence-free.
  EXPECT_GE(scenarios, 20u);
  EXPECT_EQ(AllTopologies().size(), 4u);
  // The sweep must actually exercise deliveries, not just stuck sets.
  EXPECT_GT(total_deliveries, 0u);
  std::printf("stress_smoke: %zu scenarios, %zu oracle deliveries\n",
              scenarios, total_deliveries);
}

/// The quota-armed profile (tier-1 typed-rejection coverage): every
/// scenario additionally replays through sessions holding a tight
/// per-session pending quota.  The harness requires each bounce to be a
/// typed kQuotaPending outcome counted in the metrics snapshot (no
/// exceptions, no silent drops) and the accepted queries' delivery
/// stream to be byte-identical to an oracle fed only the accepted
/// submissions.
TEST(StressSmoke, QuotaArmedDifferential) {
  StressOptions stress;
  stress.quota_max_session_pending = 3;
  // The quota overlay is the subject; skip the metamorphic re-runs that
  // only re-verify engine internals to keep the tier-1 budget.
  stress.run_metamorphic = false;
  StressHarness harness(stress);

  size_t scenarios = 0;
  size_t total_bounces = 0;
  for (GraphTopology topology : AllTopologies()) {
    for (uint64_t seed : {1u, 2u}) {
      GeneratorOptions options;
      options.seed = 9000 + 100 * static_cast<uint64_t>(topology) + seed;
      options.topology = topology;
      options.num_queries = 24;
      // Stuck-heavy streams build the pending mass that trips the quota.
      options.stuck_body_rate = 0.3;
      options.cancel_rate = 0.2;
      StressReport report = harness.RunScenario(options);
      EXPECT_TRUE(report.ok)
          << TopologyName(topology) << " seed=" << options.seed << ": "
          << report.failure << "\n"
          << report.reproduction;
      ++scenarios;
      total_bounces += report.quota_bounces;
    }
  }
  EXPECT_GE(scenarios, 8u);
  // The sweep must actually bounce submissions, or the quota paths
  // went untested.
  EXPECT_GT(total_bounces, 0u);
  std::printf("stress_smoke: quota-armed %zu scenarios, %zu bounces\n",
              scenarios, total_bounces);
}

/// Crash-point sweep: one cancel-and-batch-heavy scenario killed and
/// rehydrated at many distinct event indices — including 0 (crash
/// before anything, recover from the genesis snapshot) and past-the-end
/// (crash after the last event, recover, deliver nothing new).  Each
/// recovery must resume delivery sequences and reproduce the oracle
/// stream byte for byte.
TEST(StressSmoke, CrashPointSweep) {
  for (size_t crash_at : {1u, 3u, 7u, 16u, 29u, 53u}) {
    StressOptions stress;
    stress.crash_at_event = crash_at;
    // The durability overlay is the subject; skip the passes that only
    // re-verify engine internals to keep the tier-1 budget.
    stress.run_metamorphic = false;
    stress.session_count = 0;
    StressHarness harness(stress);
    GeneratorOptions options;
    options.seed = 4242;
    options.topology = GraphTopology::kErdosRenyi;
    options.num_queries = 24;
    options.cancel_rate = 0.3;
    options.batch_rate = 0.4;
    options.eval_every_rate = 0.2;
    StressReport report = harness.RunScenario(options);
    EXPECT_TRUE(report.ok) << "crash_at_event=" << crash_at << ": "
                           << report.failure << "\n"
                           << report.reproduction;
  }
}

/// A larger single scenario exercising the parallel flush path with a
/// big backlog (evaluate_every toggles + batches build pending mass).
TEST(StressSmoke, BacklogScenario) {
  GeneratorOptions options;
  options.seed = 77;
  options.topology = GraphTopology::kErdosRenyi;
  options.num_queries = 80;
  options.batch_rate = 0.6;
  options.eval_every_rate = 0.3;
  options.cancel_rate = 0.2;
  options.sharing_density = 0.3;
  StressHarness harness;
  StressReport report = harness.RunScenario(options);
  EXPECT_TRUE(report.ok) << report.failure << "\n" << report.reproduction;
  EXPECT_GE(report.submitted, 80u);
}

}  // namespace
}  // namespace entangled
