// The nightly-style deep stress sweep (registered with ctest as
// `stress_long`, label `long`).  Unarmed it skips in milliseconds so
// the tier-1 run stays fast; arm the real sweep with
//
//   ENTANGLED_STRESS_LONG=1 ctest --test-dir build -L long
//
// which runs a few hundred seeded scenarios across every topology with
// larger populations, deeper streams, and all metamorphic variants.

#include <cstdio>
#include <cstdlib>

#include <gtest/gtest.h>

#include "testing/stress_harness.h"
#include "workload/generator.h"

namespace entangled {
namespace {

bool LongSweepArmed() {
  const char* armed = std::getenv("ENTANGLED_STRESS_LONG");
  return armed != nullptr && armed[0] != '\0' && armed[0] != '0';
}

TEST(StressLong, DeepSweep) {
  if (!LongSweepArmed()) {
    GTEST_SKIP() << "set ENTANGLED_STRESS_LONG=1 to arm the deep sweep";
  }
  size_t scenarios = 0;
  for (GraphTopology topology : AllTopologies()) {
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      // Cross the kill-and-rehydrate differential into the sweep: the
      // crash point walks the stream with the seed (the harness takes
      // it modulo events+1, so every region — genesis, mid-stream,
      // past-the-end — gets hit across the sweep).
      StressOptions stress;
      stress.crash_at_event = 5 + 17 * seed;
      StressHarness harness(stress);
      GeneratorOptions options;
      options.seed = 0xBEEF0000 + 1000 * static_cast<uint64_t>(topology) +
                     seed;
      options.topology = topology;
      options.num_queries = 60 + 10 * (seed % 5);
      options.population = 128;
      options.rows_per_relation = 256;
      options.num_relations = 4;
      options.cancel_rate = 0.05 * static_cast<double>(seed % 7);
      options.batch_rate = 0.1 * static_cast<double>(seed % 8);
      options.sharing_density = 0.15 * static_cast<double>(seed % 4);
      options.unsafe_rate = 0.1 * static_cast<double>(seed % 3);
      options.eval_every_rate = 0.1;
      // Cycle the answer-relation namespace width so the sharded
      // variants sweep everything from one-shard-per-group to the
      // pathological everything-in-one-shard case.
      static constexpr size_t kPartitions[] = {0, 1, 4, 16};
      options.relation_partitions = kPartitions[seed % 4];
      // Cross in merge churn on a third of the seeds: frequent k-way
      // bridges drive the small-into-large migration path through deep
      // merge chains.
      static constexpr size_t kStorms[] = {0, 4, 7};
      options.bridge_storm = kStorms[seed % 3];
      StressReport report = harness.RunScenario(options);
      ASSERT_TRUE(report.ok)
          << TopologyName(topology) << " seed=" << options.seed << ": "
          << report.failure << "\n"
          << report.reproduction;
      ++scenarios;
    }
  }
  std::printf("stress_long: %zu scenarios verified\n", scenarios);
}

}  // namespace
}  // namespace entangled
