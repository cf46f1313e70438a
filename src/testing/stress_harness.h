#ifndef ENTANGLED_TESTING_STRESS_HARNESS_H_
#define ENTANGLED_TESTING_STRESS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/generator.h"

namespace entangled {

/// \brief Options for StressHarness.
struct StressOptions {
  /// Incremental engine variants differentially compared against the
  /// from-scratch oracle (ReferenceCoordinator,
  /// testing/reference_coordinator.h) on every scenario.  Each entry is
  /// a Flush() thread count.
  std::vector<size_t> flush_thread_counts = {1, 4};

  /// Intake-queue capacities crossed with every flush-thread count
  /// above (0 = inline admission, the historical path).  An armed
  /// intake defers admission to the next flush/read boundary, so this
  /// exercises the deferred-id prediction and drain replay against the
  /// same byte-identical contract.
  std::vector<size_t> intake_capacities = {0, 64};

  /// ShardedCoordinationEngine variants additionally compared against
  /// the same oracle on every scenario (the sharded front door promises
  /// byte-identical delivery logs, witnesses, and pending sets at any
  /// shard-pool width).  Each entry is a shard-pool thread count; empty
  /// disables the sharded differential.
  std::vector<size_t> shard_thread_counts = {1, 4};

  /// Additionally replay every scenario through the session front door
  /// (api/session.h) wrapping each engine variant above — submissions
  /// round-robined across this many ClientSessions — and require (a)
  /// every session's push-callback stream to match its PollEvents()
  /// drain byte-for-byte, (b) the sessions' merged event stream to be
  /// byte-identical to the oracle's delivery log, and (c) per-session
  /// pending bookkeeping to tile the service's pending set.  0 disables
  /// the session differential.
  size_t session_count = 3;

  /// Arm every replayed session with this per-session pending quota
  /// (SessionOptions::max_pending; 0 disables the quota differential).
  /// When set, each scenario additionally replays through quota-armed
  /// sessions and requires (a) every bounced submission to be a *typed*
  /// kQuotaPending outcome, counted in the manager's metrics snapshot —
  /// no exceptions, no silent drops — and (b) the accepted queries'
  /// delivery stream to be byte-identical to an oracle fed only the
  /// accepted submissions (rejected texts never reach the service, so
  /// id assignment and rank-addressed cancels stay aligned).
  size_t quota_max_session_pending = 0;

  /// Run the metamorphic variants (within-batch permutation, relation
  /// row shuffling, symbol renaming) after the differential passes.
  bool run_metamorphic = true;

  /// On failure, shrink the event stream to a minimal failing prefix
  /// (binary search, then greedy single-event removal) and render it
  /// into StressReport::reproduction.
  bool shrink_on_failure = true;

  /// Replay budget for shrinking (each probe replays the oracle plus
  /// every incremental variant).
  size_t max_shrink_replays = 400;

  /// Injected into the *incremental* engines only (the oracle always
  /// runs clean).  Used by negative tests to prove the harness detects
  /// a deliberately-broken engine; see EngineFaultInjection.
  EngineFaultInjection fault;

  /// Arm the kill-and-rehydrate differential (0 disables).  Selected
  /// variants — one inline incremental, one deferred-intake
  /// incremental, one sharded — are wrapped in a
  /// DurableCoordinationService over a throwaway storage directory and
  /// "crashed" (destroyed where they stand, no shutdown) after
  /// `crash_at_event % (events.size() + 1)` events; a fresh engine is
  /// then rehydrated from disk and runs the remainder.  The
  /// concatenation of the pre-crash and post-recovery delivery streams
  /// must be byte-identical — ids, witnesses, resumed sequences, final
  /// pending set — to the uninterrupted oracle.
  size_t crash_at_event = 0;
};

/// \brief Everything one engine replay produced.
struct StressReplay {
  /// Every delivery, whole: ids, names, texts, grounded answers and
  /// each participant's witness are all compared across replays.
  std::vector<Delivery> log;
  std::vector<QueryId> final_pending;
  size_t pending_count = 0;  ///< the engine's O(1) num_pending()
  /// The final pending set partitioned into weakly connected
  /// components (ComponentOf once per component): members ascending,
  /// components ascending by smallest member.
  std::vector<std::vector<QueryId>> components;
  EngineStats stats;
  std::string error;  ///< witness/parse failure inside the replay
};

/// \brief Replays `events` against `engine` (any CoordinationService —
/// single or sharded): Submit / SubmitBatch / rank-addressed Cancel /
/// set_evaluate_every / Flush.  The shared dispatch loop behind the
/// harness and bench_scenarios, so the event semantics (in particular
/// `cancel_rank % pending.size()` addressing) have exactly one
/// definition.  Returns an error description when the engine rejects a
/// generated query; empty string on success.
std::string ReplayWorkloadEvents(CoordinationService* engine,
                                 const std::vector<WorkloadEvent>& events);

/// \brief Outcome of one differentially-verified scenario.
struct StressReport {
  bool ok = true;
  std::string failure;       ///< first divergence, human-readable
  std::string reproduction;  ///< STRESS_REPRO block (set on failure)
  size_t events = 0;         ///< events in the generated stream
  size_t submitted = 0;      ///< query texts across submit events
  size_t deliveries = 0;     ///< coordinating sets the oracle delivered
  size_t shrunk_events = 0;  ///< events in the minimal reproduction
  size_t quota_bounces = 0;  ///< typed quota rejections in the armed run
};

/// \brief Replays generated workloads against the incremental and
/// sharded engines (per thread-count variant) and the from-scratch
/// oracle (ReferenceCoordinator) at once, asserting identical
/// deliveries in identical order (every field of every Delivery),
/// identical final component partitions, Definition-1 validity of every
/// delivery, and EngineStats invariants (e.g. coordinated_queries <=
/// submitted - cancelled).  Scenarios that pass are additionally re-run through
/// metamorphic transformations; scenarios that fail are shrunk to a
/// minimal failing event prefix rendered for reproduction.
class StressHarness {
 public:
  explicit StressHarness(StressOptions options = {});

  const StressOptions& options() const { return options_; }

  /// Generates the scenario described by `gen` (database + event
  /// stream) and verifies it end to end.
  StressReport RunScenario(const GeneratorOptions& gen) const;

  /// Differentially verifies a caller-supplied event stream against
  /// `db` (no metamorphic variants — those need the generator).  Used
  /// by directed tests, including the fault-injection negative tests.
  StressReport VerifyEvents(const Database& db,
                            const std::vector<WorkloadEvent>& events) const;

 private:
  /// Empty string when the differential + invariants pass; otherwise a
  /// description of the first divergence.  `oracle_deliveries`
  /// (optional) receives the oracle's coordinating-set count;
  /// `single_thread` (optional) receives the flush_threads=1 replay
  /// when that variant ran, so callers can reuse it.
  std::string CheckOnce(const Database& db,
                        const std::vector<WorkloadEvent>& events,
                        size_t* oracle_deliveries,
                        StressReplay* single_thread = nullptr,
                        size_t* quota_bounces = nullptr) const;

  /// Metamorphic variants compared against `base` (the scenario's
  /// flush_threads=1 replay); empty string when all hold.
  std::string RunMetamorphic(const GeneratorOptions& gen, const Database& db,
                             const GeneratedWorkload& workload,
                             const StressReplay& base) const;

  /// Shrinks a failing stream (budgeted); returns a stream that still
  /// fails CheckOnce (the input itself when shrinking cannot improve).
  std::vector<WorkloadEvent> Shrink(
      const Database& db, const std::vector<WorkloadEvent>& events) const;

  StressOptions options_;
};

/// Renders the reproduction block printed on failure:
///
///   STRESS_REPRO seed=7 topology=chain queries=24 events=5/63
///     [0] SUBMIT q0_0: { ... } ...
///     [1] CANCEL rank=3
///     [2] FLUSH
///
/// `gen` may be null for caller-supplied (directed) streams, which
/// have no generator metadata to reproduce from — the events listing
/// itself is the reproduction.
std::string FormatReproduction(const GeneratorOptions* gen,
                               const std::vector<WorkloadEvent>& events,
                               size_t original_events);

}  // namespace entangled

#endif  // ENTANGLED_TESTING_STRESS_HARNESS_H_
