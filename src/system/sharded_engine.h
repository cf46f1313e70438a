#ifndef ENTANGLED_SYSTEM_SHARDED_ENGINE_H_
#define ENTANGLED_SYSTEM_SHARDED_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "system/engine.h"

namespace entangled {

/// \brief Options for ShardedCoordinationEngine.
struct ShardedEngineOptions {
  /// Configuration of the inner per-shard engines, except that
  /// `engine.evaluate_every` is interpreted as the *front door's*
  /// cadence (counted across all shards, exactly like a single engine
  /// counts it across all arrivals); the inner engines always run with
  /// automatic evaluation disabled and are driven explicitly.
  EngineOptions engine;

  /// Worker threads for Flush(): independent shards flush concurrently
  /// (1 = flush shards serially on the calling thread).  Outputs do not
  /// depend on this count — deliveries are applied in deterministic
  /// merged order.
  size_t shard_threads = 1;
};

/// \brief Counters specific to the sharded service.
struct ShardedStats {
  uint64_t shards_created = 0;    ///< inner engines ever constructed
  uint64_t shards_absorbed = 0;   ///< shards drained into a merge
  uint64_t shards_gced = 0;       ///< empty shards retired
  uint64_t group_merges = 0;      ///< footprints that united >1 shard
  /// Pending queries a merge physically moved between engines.  Under
  /// the small-into-large policy only the non-survivor sides count —
  /// the survivor's queries stay put and count as retained below.
  uint64_t queries_migrated = 0;
  uint64_t queries_retained = 0;    ///< survivor-side queries left in place
  uint64_t merge_events = 0;        ///< shard-merge operations performed
  uint64_t merge_migrated_max = 0;  ///< most queries any one merge moved
};

/// \brief The multi-tenant front door: a CoordinationService that
/// routes every arriving query to one of many inner CoordinationEngines
/// by its **relation footprint** (the answer relations its
/// postconditions and heads name) and keeps the whole ensemble
/// byte-compatible with a single engine over the union.
///
/// The sharding invariant: a coordination edge requires a postcondition
/// and a head naming the same answer relation, so queries with disjoint
/// footprints share no edge.  The front door maps each answer relation
/// that a live shard's queries named to that shard; an arrival joins
/// the shard its footprint names (creating one, or merging several)
/// and claims its unrouted relations for it, so no edge ever crosses
/// shards.  A drained shard's relations unroute, so the map holds only
/// live shards' relations.  Submit/SubmitBatch/Cancel route in
/// O(footprint) lookups; Flush() fans independent shards out on a
/// shared thread pool.
///
/// When an arrival's footprint names k > 1 live shards, they merge and
/// only the *smaller* shards' pending queries **migrate** into the
/// largest survivor (CoordinationEngine::ExtractPending plus one bulk
/// AdoptPending per source) — O(smaller side) per merge, not O(union).
/// Every query lives in its shard under its one id, and the inner
/// engines order all solver input, apply-heap, and delivery-key
/// decisions on ids rather than their private admission slots; the
/// survivor's slot order therefore need not stay monotone in id order,
/// its memoized component state survives the merge untouched, and the
/// solver's discovery-order tie-breaks still see members in exact
/// submission order.
///
/// Determinism contract (enforced by the stress harness): for any event
/// stream, the delivery log, witnesses, and pending set are
/// byte-identical to a single CoordinationEngine, at any shard-pool
/// width.  Cross-shard delivery order is reconstructed by merging the
/// shards' delivery streams on the component schedule key
/// (CoordinationEngine::last_delivery_schedule_key), i.e.
/// merge-by-smallest-id.
///
/// Each query is stored once, in the shard that owns it: SubmitParsed
/// routes the caller's parse by its footprint and moves it into the
/// shard under the next id; Submit parses the text first.  Shards
/// answer in those same ids, so the front door keeps only the shard of
/// each *pending* query and rewrites no id on the way in or out.
/// Deliveries are materialized in ids by the shard's engine on
/// whichever thread flushes the shard; each participant's witness is
/// keyed by its own variables' positions, so no variable map exists.
///
/// The public API is single-threaded, like CoordinationEngine's;
/// callbacks always fire on the calling thread.
class ShardedCoordinationEngine : public CoordinationService {
 public:
  ShardedCoordinationEngine(const Database* db,
                            ShardedEngineOptions options = {});

  /// Callbacks must not re-enter the front door (same contract as
  /// CoordinationEngine::set_delivery_callback); the Delivery is fully
  /// owned — it survives any later Cancel/Flush/shard migration.
  void set_delivery_callback(DeliveryCallback callback) override {
    callback_ = std::move(callback);
  }

  void set_evaluate_every(size_t evaluate_every) override {
    options_.engine.evaluate_every = evaluate_every;
  }

  /// Recovery hook: pins the front door's per-arrival phase (no intake
  /// to drain here — admission is always inline at the front door).
  void RestoreCadencePhase(size_t phase) override { since_last_eval_ = phase; }

  /// Recovery hook: the next admission takes id `next_id`, the next
  /// merged delivery sequence `next_sequence`.
  void ResumeNumbering(QueryId next_id, uint64_t next_sequence) override;

  /// The text entry points parse, then admit as the parsed ones do.
  Result<QueryId> Submit(const std::string& query_text) override;
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) override;
  Result<QueryId> SubmitParsed(const std::string& query_text,
                               QuerySet parsed) override;
  Result<std::vector<QueryId>> SubmitBatchParsed(
      const std::vector<std::string>& query_texts, QuerySet parsed) override;
  bool Cancel(QueryId id) override;
  size_t Flush() override;

  std::vector<QueryId> PendingQueries() const override;
  bool IsPending(QueryId id) const override;
  size_t num_pending() const override { return pending_.size(); }
  std::vector<QueryId> ComponentOf(QueryId id) const override;

  /// Aggregate across the front door, every live shard, and every
  /// retired shard (EngineStats::operator+=): one snapshot a single
  /// engine over the same stream would agree with on the fields the
  /// delivery log determines.
  EngineStats StatsSnapshot() const override;

  /// Load gauges with one row per live shard (slot, pending,
  /// evaluations) plus the global merge/migration counters.  Passive —
  /// inner engines run inline intake (depth 0) and nothing drains.
  ServiceGauges GaugesSnapshot() const override;

  // ------------------------------------------------------------------
  // Introspection (tests, benches, operators)
  // ------------------------------------------------------------------

  const ShardedStats& sharded_stats() const { return sharded_stats_; }

  /// Live inner engines right now.
  size_t num_live_shards() const { return num_live_shards_; }

  /// Answer relations currently routed to a live shard.
  size_t num_routed_relations() const { return relation_shard_.size(); }

  /// Whether two pending queries are currently routed to the same
  /// shard (component-mates always are; the converse need not hold).
  bool SameShard(QueryId a, QueryId b) const;

 private:
  /// One delivery buffered during a shard flush, keyed for the
  /// cross-shard merge.
  struct BufferedDelivery {
    QueryId key = -1;  ///< schedule key (component smallest id)
    /// Fully materialized when a delivery callback is set; otherwise
    /// only the participant ids are filled in.
    Delivery delivery;
  };

  struct Shard {
    std::unique_ptr<CoordinationEngine> engine;  ///< null once retired
    /// The answer relations routed to this shard (relation_shard_).
    std::vector<std::string> relations;
    /// Filled by this shard's delivery callback (on whichever thread
    /// flushes the shard — each shard is flushed by exactly one
    /// thread), drained and merged on the calling thread.
    std::vector<BufferedDelivery> deliveries;
  };

  void CheckNotReentrant(const char* entry_point) const;

  /// Routes query `index` of a freshly parsed `*staging` set as query
  /// `id`: looks up the live shards its footprint's relations name
  /// (creating one when none, merging them when several), claims the
  /// footprint's unrouted relations for that shard, moves the query
  /// into it under `id`, and marks it pending.  No evaluation.  Returns
  /// the shard slot the query landed in.
  size_t RouteAndAdmit(QuerySet* staging, QueryId index, QueryId id);

  /// Fresh inner engine wired to this front door; returns its slot.
  size_t CreateShard();

  /// Merges the given live slots small-into-large: the slot with the
  /// most pending queries (ties -> smallest slot) survives with its
  /// engine and memoized component state intact, and every
  /// other slot's extract is adopted into it with one bulk AdoptPending
  /// call per source — O(sum of smaller sides) total — and its relations
  /// are routed to it.  Returns the surviving slot.
  size_t MergeShards(const std::vector<size_t>& slots);

  /// Moves one source extract into `into_slot`'s engine (single bulk
  /// AdoptPending under the extract's ids) and repoints those pending
  /// queries at it.  Returns the number of queries moved.
  uint64_t AdoptExtractIntoShard(
      size_t into_slot, CoordinationEngine::PendingExtract* extract);

  /// Folds the shard's stats into the retired accumulator and destroys
  /// its engine.
  void RetireShard(size_t slot, bool absorbed);

  /// Shard-callback target: has the shard's engine materialize one
  /// delivery in ids (fully only when a callback listens) and buffers
  /// it.
  void OnShardDelivery(size_t slot, const CoordinationSolution& solution);

  /// Merges the named slots' buffered deliveries by schedule key,
  /// updates the global pending set, and fires the outer callback per
  /// delivery.  Returns the number of deliveries.
  size_t DrainDeliveries(const std::vector<size_t>& slots);

  /// Retires any of the named slots that drained to zero pending
  /// queries and unroutes their relations, so relations re-bridge along
  /// the footprints future traffic actually exhibits instead of
  /// accreting forever.
  void MaybeGcShards(const std::vector<size_t>& slots);

  const Database* db_;
  ShardedEngineOptions options_;

  /// Next query id: a single engine over the same stream would allocate
  /// exactly this one.
  QueryId next_id_ = 0;
  std::unordered_map<QueryId, size_t> pending_;  ///< pending id -> shard
  size_t since_last_eval_ = 0;

  /// Answer relation -> the live shard it routes to.
  std::unordered_map<std::string, size_t> relation_shard_;
  std::vector<Shard> shards_;
  std::vector<size_t> free_slots_;  ///< retired slots awaiting reuse
  size_t num_live_shards_ = 0;
  /// Slots possibly holding dirty components (touched since their last
  /// flush); Flush() visits only these instead of every slot ever made.
  std::unordered_set<size_t> flush_candidates_;

  DeliveryCallback callback_;
  bool in_callback_ = false;
  uint64_t next_delivery_sequence_ = 0;
  EngineStats front_stats_;    // submitted is counted here, once, globally
  EngineStats retired_stats_;  // folded-in stats of destroyed shards
  ShardedStats sharded_stats_;
  /// Shared by the shard fan-out and the inner engines' flushes; null
  /// unless shard_threads or engine.flush_threads exceeds 1.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace entangled

#endif  // ENTANGLED_SYSTEM_SHARDED_ENGINE_H_
