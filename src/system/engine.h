#ifndef ENTANGLED_SYSTEM_ENGINE_H_
#define ENTANGLED_SYSTEM_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algo/scc_coordination.h"
#include "api/delivery.h"
#include "common/arena.h"
#include "common/metrics.h"
#include "common/mpsc_queue.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/coordination_graph.h"
#include "core/grounding.h"
#include "core/query.h"
#include "db/database.h"

namespace entangled {

/// \brief Engine work counters.
struct EngineStats {
  uint64_t submitted = 0;            ///< queries accepted
  uint64_t cancelled = 0;            ///< pending queries withdrawn
  uint64_t evaluations = 0;          ///< component evaluations run
  uint64_t coordinated_queries = 0;  ///< queries retired in solutions
  uint64_t coordinating_sets = 0;    ///< solutions delivered
  uint64_t unsafe_components = 0;    ///< components skipped as unsafe
  uint64_t db_queries = 0;           ///< conjunctive queries issued
  uint64_t eval_cache_hits = 0;      ///< sweep steps served by an EvalMemo
  uint64_t evaluations_avoided = 0;  ///< dirty components skipped via stamps
  uint64_t rejected = 0;             ///< submissions refused (parse errors)

  /// Wall-clock time of every component evaluation the engine ran
  /// (solver + memo sweeps; skipped evaluations do not record).  Merged
  /// field-wise like the counters, so a sharded snapshot aggregates the
  /// per-shard histograms — including shards already drained and
  /// destroyed — into one engine-wide distribution.
  LatencyHistogram eval_latency;

  /// Field-wise accumulation, so per-shard counters aggregate into one
  /// engine-wide snapshot (system/sharded_engine.h).
  EngineStats& operator+=(const EngineStats& other) {
    submitted += other.submitted;
    cancelled += other.cancelled;
    evaluations += other.evaluations;
    coordinated_queries += other.coordinated_queries;
    coordinating_sets += other.coordinating_sets;
    unsafe_components += other.unsafe_components;
    db_queries += other.db_queries;
    eval_cache_hits += other.eval_cache_hits;
    evaluations_avoided += other.evaluations_avoided;
    rejected += other.rejected;
    eval_latency += other.eval_latency;
    return *this;
  }
  friend EngineStats operator+(EngineStats a, const EngineStats& b) {
    a += b;
    return a;
  }
};

/// \brief Test-only fault injection.  Each flag disables one
/// maintenance step of the incremental core so the stress harness's
/// negative tests (tests/testing/) can prove the differential harness
/// actually detects the resulting divergence.  Never set in
/// production code.
struct EngineFaultInjection {
  /// Cancel() still retires the query from the incremental index, but
  /// the surviving fragments of its component lose their dirty marks —
  /// so a component that a cancellation made safe (or coordinable) is
  /// never re-examined, and the engine silently misses deliveries the
  /// from-scratch oracle makes.
  bool lose_dirty_on_cancel = false;

  /// The delta-eval skip path ignores the members-changed bit of the
  /// component fingerprint: a component that gained a member since its
  /// last failing evaluation is wrongly skipped as "provably the same
  /// failure", so deliveries the new member enabled are silently
  /// missed.  Proves the stress harness detects a broken cache
  /// invalidation discipline.
  bool poison_eval_cache = false;
};

/// \brief Options for CoordinationEngine.
struct EngineOptions {
  /// Evaluate the arriving query's connected component after every
  /// `evaluate_every` submissions (1 = the Youtopia behaviour described
  /// in §6.1: "when a new query arrives ... calls an evaluation method
  /// on the connected component").  0 disables automatic evaluation;
  /// call Flush().
  size_t evaluate_every = 1;

  /// Worker threads used by Flush() to evaluate independent dirty
  /// components concurrently (1 = evaluate on the calling thread).
  /// Components are disjoint query sets evaluated against the shared
  /// read-only database, and results are *applied* in deterministic
  /// component order, so outputs do not depend on the thread count.
  /// The flushing thread itself participates in evaluation, so
  /// `flush_threads = n` runs at most n compute threads.
  size_t flush_threads = 1;

  /// Capacity of the deferred-admission intake queue.  0 (the default)
  /// admits inline, exactly as before.  > 0 arms a bounded MPSC queue
  /// in front of the engine: Submit/SubmitBatch parse on the calling
  /// thread (the parsed forms take the caller's parse), enqueue the
  /// admitted event, and return its
  /// predicted id without ever blocking on an in-progress Flush();
  /// the owning thread drains the queue in arrival order at the next
  /// flush/read boundary, reproducing the inline engine's admission
  /// cadence byte for byte.  See CoordinationEngine::DrainIntake for
  /// the threading contract.
  size_t intake_capacity = 0;

  /// Borrowed scheduler for Flush() fan-out (not owned; must outlive
  /// the engine).  When null and flush_threads > 1 the engine lazily
  /// creates its own pool.  The sharded front door points every inner
  /// engine here so shard fan-out and component evaluation share one
  /// set of workers instead of spawning a pool per shard.
  ThreadPool* shared_pool = nullptr;

  /// Passed through to the SCC Coordination Algorithm.
  SccOptions scc;

  /// Test-only fault injection (see EngineFaultInjection).
  EngineFaultInjection fault;
};

/// \brief The streaming coordination surface: everything a front door
/// needs to accept, withdraw, and flush entangled queries, without
/// committing to how the work is partitioned behind it.  Implemented by
/// CoordinationEngine (one graph, one id namespace) and by
/// ShardedCoordinationEngine (a relation-footprint router fanning out to
/// many inner engines, system/sharded_engine.h); the stress harness and
/// benches replay workloads against either through this interface.
class CoordinationService {
 public:
  /// Invoked once per delivered coordinating set with a self-contained
  /// Delivery event (api/delivery.h): owned query texts, names,
  /// grounded answers, and witness values — never a reference into
  /// engine internals.  Callbacks must not re-enter the service
  /// (Submit/Cancel/Flush CHECK-fail when called from inside one);
  /// clients that cannot guarantee that should consume deliveries
  /// through the pull-based session front door instead
  /// (api/session.h, ClientSession::PollEvents).
  using DeliveryCallback = std::function<void(const Delivery&)>;

  virtual ~CoordinationService() = default;

  virtual void set_delivery_callback(DeliveryCallback callback) = 0;
  virtual void set_evaluate_every(size_t evaluate_every) = 0;

  virtual Result<QueryId> Submit(const std::string& query_text) = 0;
  virtual Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) = 0;

  /// Parsed admission, so a layered stack parses each text once, at its
  /// front door (api/session.h), and hands the parse down: `parsed`
  /// holds exactly one query, the parse of `query_text`
  /// (core/parser.h).  The text travels along for layers that keep it
  /// (the durable decorator logs it).  The defaults forward the text to
  /// Submit/SubmitBatch and drop the parse, so a pass-through decorator
  /// that overrides only the text entry points stays correct.
  virtual Result<QueryId> SubmitParsed(const std::string& query_text,
                                       QuerySet parsed) {
    (void)parsed;
    return Submit(query_text);
  }
  /// Batch form of SubmitParsed: query i of `parsed` is the parse of
  /// text i.
  virtual Result<std::vector<QueryId>> SubmitBatchParsed(
      const std::vector<std::string>& query_texts, QuerySet parsed) {
    (void)parsed;
    return SubmitBatch(query_texts);
  }

  virtual bool Cancel(QueryId id) = 0;
  virtual size_t Flush() = 0;

  virtual std::vector<QueryId> PendingQueries() const = 0;
  virtual bool IsPending(QueryId id) const = 0;
  virtual size_t num_pending() const = 0;
  /// The pending queries weakly connected to `id` in the coordination
  /// graph (including `id`), ascending.  Empty when `id` is not pending:
  /// delivered, cancelled, never issued or negative ids are all a
  /// client's to ask about, so none of them aborts.
  virtual std::vector<QueryId> ComponentOf(QueryId id) const = 0;

  /// True when submissions (text or parsed) defer admission to an
  /// intake queue drained at the service's flush/read boundaries instead
  /// of admitting inline (EngineOptions::intake_capacity).  Front doors
  /// that interleave bookkeeping with submission (api/session.h) use
  /// this to avoid read calls that would force a premature drain.
  virtual bool AdmitsDeferred() const { return false; }

  /// Work counters; by value because a sharded service aggregates
  /// per-shard counters on demand (EngineStats::operator+=).
  virtual EngineStats StatsSnapshot() const = 0;

  /// Validated-but-undrained intake submissions, O(1) and passive — it
  /// never forces a drain, so admission-control callers (overload
  /// shedding in api/session.h) can poll it on every Submit without
  /// defeating the non-blocking intake.  0 for inline services.
  virtual size_t IntakeDepth() const { return 0; }

  /// Point-in-time load view (common/metrics.h): pending including
  /// queued intake, intake depth, and per-shard rows for sharded
  /// services.  Passive like IntakeDepth — reading gauges never drains
  /// or flushes.  The default covers single-partition services.
  virtual ServiceGauges GaugesSnapshot() const {
    ServiceGauges gauges;
    gauges.pending = num_pending();
    gauges.live_shards = 1;
    return gauges;
  }

  /// Restores the per-arrival evaluation phase — submissions admitted
  /// since the last automatic evaluation — after a recovery replay
  /// (storage/durable_service.h), so the resumed stream evaluates on
  /// exactly the arrivals the uninterrupted stream would have.  Both
  /// engines override; services without a cadence ignore it.
  virtual void RestoreCadencePhase(size_t phase) { (void)phase; }

  /// Recovery hook: the next admission takes id `next_id` and the next
  /// delivery sequence `next_sequence`, so a recovered service answers
  /// and delivers in the ids and sequences its log recorded
  /// (storage/durable_service.h).  Ids only move forward.  Both engines
  /// override; the default CHECK-fails, so a decorator that does not
  /// forward the hook stops at Recover() instead of diverging.
  virtual void ResumeNumbering(QueryId next_id, uint64_t next_sequence);

  /// Declares the session on whose behalf the next calls are made (-1 =
  /// direct use).  A durability decorator records the tag alongside each
  /// logged event so recovery can rebuild session ownership; plain
  /// engines ignore it.  Set by SessionManager around service calls.
  virtual void set_session_tag(int64_t tag) { (void)tag; }

  /// Appends service-specific monotone counters to a metrics snapshot
  /// (SessionManager::Metrics). Plain engines add nothing; the durable
  /// decorator reports its WAL/snapshot/recovery counters here.
  virtual void AppendCounters(
      std::vector<std::pair<std::string, uint64_t>>* counters) const {
    (void)counters;
  }
};

/// \brief The Youtopia-style coordination module (§6.1): queries arrive
/// one at a time, the engine maintains the coordination graph
/// incrementally, evaluates the affected connected component with the
/// SCC Coordination Algorithm, delivers any coordinating set found
/// through a callback, and retires its queries.
///
/// The incremental core keeps four persistent structures in sync:
///
///  * an ExtendedCoordinationGraph over the pending queries, updated per
///    arrival through its per-relation unification index (AddQuery),
///    which skips atoms whose first argument is a constant other than
///    the arrival's and scans the whole bucket when it is a variable,
///    and per delivery (RetireQueries);
///  * a union-find over the graph's weakly connected components, so
///    "which component does this query belong to" is an index lookup
///    instead of a graph rebuild + BFS;
///  * a dirty-component worklist: only components whose membership
///    changed since their last evaluation are re-examined by Flush();
///  * per-component evaluation state (delta evaluation): a persistent
///    dense subset extended in place on arrivals, an EvalMemo of per-R(c)
///    sweep verdicts keyed on relation version stamps, and a failure
///    fingerprint that lets a dirty-but-unchanged component skip the
///    solver (EngineStats::evaluations_avoided).  The cache is consulted
///    only where a recompute is provably identical.
///
/// Submission is amortized near O(degree of the arriving query); the
/// from-scratch oracle (testing/reference_coordinator.h) rebuilds the
/// graph at O(pending²) per arrival and delivers byte-identically.
///
/// The public API is single-threaded; Flush() may fan evaluation out to
/// an internal thread pool (EngineOptions::flush_threads), but callbacks
/// always run on the calling thread (and must not re-enter the engine —
/// see set_delivery_callback).  The database outlives the engine and
/// must not be mutated while the engine runs.
class CoordinationEngine : public CoordinationService {
 public:
  CoordinationEngine(const Database* db, EngineOptions options = {});

  /// Deliveries are notifications, not extension points: the callback
  /// must not re-enter the engine (Submit/Cancel/Flush CHECK-fail when
  /// called from inside it, since in-flight component evaluations would
  /// be applied against state the callback just changed).  Queue any
  /// follow-up work and run it after the delivering call returns.  The
  /// Delivery is fully owned — capturing it outlives any later
  /// Cancel/Flush/migration.
  void set_delivery_callback(DeliveryCallback callback) override {
    callback_ = std::move(callback);
  }

  /// Changes the automatic-evaluation cadence at runtime (e.g. admit a
  /// large backlog without evaluation, then switch to per-arrival).
  /// Drains any queued intake first, so earlier submissions keep the
  /// cadence that was in force when they arrived.
  void set_evaluate_every(size_t evaluate_every) override {
    DrainIntake();
    options_.evaluate_every = evaluate_every;
  }

  /// Submits one query in the paper's concrete syntax (core/parser.h):
  /// parses it, then admits it as SubmitParsed does.
  Result<QueryId> Submit(const std::string& query_text) override;

  /// Admits a whole batch of queries before any evaluation runs, then —
  /// when automatic evaluation is enabled — flushes once.  Returns the
  /// ids of all admitted queries, or the first parse error.  Admission
  /// is all-or-nothing: on error nothing from the batch was admitted.
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) override;

  /// Admits the parsed query, moving it into the engine's set (inline,
  /// or through the intake when one is armed).
  Result<QueryId> SubmitParsed(const std::string& query_text,
                               QuerySet parsed) override;
  Result<std::vector<QueryId>> SubmitBatchParsed(
      const std::vector<std::string>& query_texts, QuerySet parsed) override;

  /// Withdraws a pending query (a user abandoning a request).  Returns
  /// false when the id is unknown or no longer pending.  The rest of its
  /// component is re-marked dirty: shrinking a component can turn an
  /// unsafe set safe, so it may coordinate on the next evaluation.
  bool Cancel(QueryId id) override;

  /// Evaluates every dirty pending component; returns the number of
  /// coordinating sets delivered.
  size_t Flush() override;

  /// Evaluates just the component of `id` right now — the per-arrival
  /// evaluation step, exposed so an external scheduler (the sharded
  /// front door) can drive the cadence itself across many engines while
  /// each arrival still gets exactly the §6.1 treatment.  Returns
  /// whether a coordinating set was delivered; no-op when `id` is not
  /// pending.  Other dirty components stay dirty.
  bool EvaluateNow(QueryId id);

  // ------------------------------------------------------------------
  // Pending-query migration (shard merges, system/sharded_engine.h)
  // ------------------------------------------------------------------

  /// The detachable form of an engine's pending queries: a standalone
  /// QuerySet with dense ids/vars (QuerySet::Subset) plus each query's
  /// id, so the adopting engine keeps answering and scheduling them
  /// under the ids they were admitted with (see AdoptPending).
  struct PendingExtract {
    QuerySet queries;
    std::vector<QueryId> ids;  ///< dense index -> query id
  };

  /// Detaches every pending query: returns them as a PendingExtract
  /// (in admission-slot order) and drops them from this engine — the
  /// pending flags, the incremental graph, the component index, and the
  /// dirty marks are all cleared, as if the queries had never been
  /// admitted.  Counters other than the pending count are untouched;
  /// callers that destroy the drained engine should fold stats() into
  /// their aggregate first.
  PendingExtract ExtractPending();

  /// Admits query `index` of `*src` — a freshly parsed staging set —
  /// under the caller's id `id`, moved into this engine's query and
  /// variable namespaces (QuerySet::MoveQuery, which leaves it empty in
  /// `*src`).  The adopted query is indexed into the incremental
  /// structures and its component marked dirty, but adoption never
  /// triggers evaluation and never counts as a submission: the caller
  /// owns the cadence and the submission accounting.
  ///
  /// Ids must be unique engine-wide.  Adoption moves the next id Submit
  /// hands out past `id`, so a caller mixing both never collides.  All
  /// scheduling order — solver tie-breaks, the flush apply heap,
  /// last_delivery_schedule_key — follows ids, never admission slots,
  /// which is what lets a merge append queries to a survivor engine out
  /// of id order and still reproduce the single-engine behaviour byte
  /// for byte.
  void AdoptPending(QuerySet* src, QueryId index, QueryId id);
  /// Adopts every query of another engine's extract under its id, as
  /// the single-query form does.
  void AdoptPending(PendingExtract* extract);

  /// Drains queued intake first: queued submissions keep the ids they
  /// were promised (CoordinationService::ResumeNumbering).
  void ResumeNumbering(QueryId next_id, uint64_t next_sequence) override;

  /// Master query set: every query ever admitted, indexed by admission
  /// slot (retired ones keep their slots).  Slots equal ids in an engine
  /// that only admits through its Submit entry points and never resumes
  /// numbering, so such an engine's deliveries index this set directly.
  const QuerySet& queries() const { return all_; }

  /// Queries awaiting coordination.
  std::vector<QueryId> PendingQueries() const override;
  bool IsPending(QueryId id) const override;
  /// How many queries are pending, O(1) (after draining any queued
  /// intake — reads always observe every accepted submission).
  size_t num_pending() const override {
    DrainIntakeConst();
    return slots_.size();
  }

  /// Whether deferred admission is armed (EngineOptions::intake_capacity).
  bool AdmitsDeferred() const override { return intake_ != nullptr; }

  /// Recovery hook: drains queued intake (its events carry the cadence
  /// they arrived under), then pins the per-arrival phase so the next
  /// submission counts from exactly where the snapshot froze it.
  void RestoreCadencePhase(size_t phase) override {
    DrainIntake();
    since_last_eval_ = phase;
  }

  /// Tickets claimed but not yet adopted by DrainIntake — a passive
  /// atomic read; never drains.
  size_t IntakeDepth() const override {
    if (intake_ == nullptr) return 0;
    return static_cast<size_t>(intake_->next_ticket() - intake_drained_);
  }

  /// Passive load view: `pending` counts adopted pending queries plus
  /// queued intake (every accepted submission not yet retired), without
  /// forcing a drain the way num_pending() does.
  ServiceGauges GaugesSnapshot() const override {
    ServiceGauges gauges;
    gauges.pending = slots_.size() + IntakeDepth();
    gauges.intake_depth = IntakeDepth();
    gauges.live_shards = 1;
    return gauges;
  }

  /// An index lookup (CoordinationService::ComponentOf).
  std::vector<QueryId> ComponentOf(QueryId id) const override;

  const EngineStats& stats() const { return stats_; }
  EngineStats StatsSnapshot() const override {
    DrainIntakeConst();
    EngineStats stats = stats_;
    stats.rejected = rejected_.load(std::memory_order_relaxed);
    return stats;
  }

  /// Scheduling key of the most recent delivery: the smallest id over
  /// the component the coordinating set was carved from (whose holder
  /// may not itself be in the set).  Deliveries within one Flush() are
  /// applied in nondecreasing key order, so a front door that merges
  /// several engines' delivery streams by this key reproduces the order
  /// a single engine over the union would have produced.  Valid inside
  /// and after a delivery callback; -1 before the first delivery.
  QueryId last_delivery_schedule_key() const { return last_delivery_key_; }

 private:
  /// The sharded front door merges several shards' streams before
  /// firing any Delivery, so it taps this internal hook instead of the
  /// public callback and materializes through MakeIdDelivery itself.
  /// Deliberately private: no public callback or event may expose the
  /// engine-internal CoordinationSolution type.
  friend class ShardedCoordinationEngine;
  using InternalSolutionCallback =
      std::function<void(const CoordinationSolution&)>;
  void set_internal_solution_callback(InternalSolutionCallback callback) {
    internal_callback_ = std::move(callback);
  }

  /// Fires the delivery hooks for one slot-space solution, participants
  /// ascending by id (reentrancy guard included): the internal hook when
  /// set, else the public Delivery callback.  Advances the delivery
  /// sequence either way.
  void Deliver(const CoordinationSolution& solution);

  /// The one slot->id step: `solution` (slots, ascending by id) as a
  /// Delivery in ids.  Names, texts, answers and witnesses are filled in
  /// only when `materialize`; otherwise just the participant ids.
  Delivery MakeIdDelivery(const CoordinationSolution& solution,
                          uint64_t sequence, bool materialize) const;

  /// A component evaluation prepared on the coordinating thread: the
  /// component's queries renumbered into a standalone QuerySet plus the
  /// matching slice of the persistent graph, so workers touch no shared
  /// engine state.
  /// Members are ordered by id (ascending), so the dense subset handed
  /// to the solver is monotone in submission order even when admission
  /// slots are not — the discovery-order tie-breaks inside
  /// SccCoordinator then reproduce exactly what a single engine over
  /// the union would decide.
  struct EvalTask {
    QueryId min_key = -1;             ///< smallest member id
    std::vector<QueryId> original;    ///< local id -> slot, id order
    std::vector<VarId> original_vars; ///< local var -> engine var
    QuerySet subset;
    std::vector<ExtendedEdge> edges;  ///< local ids, canonical order
  };

  /// What a worker hands back; applied on the coordinating thread.
  struct EvalOutcome {
    bool ok = false;
    CoordinationSolution solution;  ///< local ids; valid when ok
    bool unsafe = false;            ///< FailedPrecondition (safety)
    uint64_t db_queries = 0;
    uint64_t memo_hits = 0;         ///< sweep steps served by the memo
    int64_t eval_nanos = 0;         ///< solver wall time (worker-side)
  };

  /// Persistent per-component evaluation state, keyed by union-find
  /// root.  The task's dense subset/maps/edges are extended in place
  /// when an arrival joins exactly this component — appending the newest
  /// (largest id) member reproduces byte for byte what a rebuild over
  /// the id-ordered member list would produce, so local
  /// ids and variables stay stable and the memo's keys stay meaningful.
  /// Any other structure change (multi-component merge, cancel or
  /// delivery repartition, migration) drops the state; it is lazily
  /// rebuilt at the next evaluation.
  struct ComponentState {
    EvalTask task;
    EvalMemo memo;  ///< per-R(c) sweep verdicts (algo/scc_coordination.h)
    bool members_changed = true;  ///< membership changed since last eval
    bool clean_failure = false;   ///< last eval completed, delivered nothing
    /// (relation, version) for every relation read by the last failing
    /// evaluation; all unchanged + membership unchanged ⇒ the same
    /// failure is provable without running the solver.
    std::vector<std::pair<const Relation*, uint64_t>> stamps;
  };

  /// One reusable evaluation slot: the component's persistent state
  /// (task built on the coordinating thread), outcome written by
  /// whichever participant claims the slot's chunk, applied on the
  /// coordinating thread in min-key heap order.  Slots persist across
  /// flushes so a steady-state flush allocates no slot bookkeeping.
  struct PendingEval {
    ComponentState* state = nullptr;
    EvalOutcome outcome;
    bool ran = false;  ///< outcome valid (read only at wave barriers)
  };

  /// One deferred admission: a single parsed query (staging id 0)
  /// carried from the producing thread to the owner's drain, plus how
  /// it participates in the evaluation cadence.
  struct IntakeEvent {
    QuerySet staging;
    bool cadence = true;      ///< counts toward evaluate_every at drain
    bool batch_tail = false;  ///< last member of a batch: flush after
  };

  /// Shared admission path of the Submit entry points: places query
  /// `index` of `*src` under the next id, counts the submission, and —
  /// when `cadence` — applies the per-arrival evaluation.  Returns the
  /// id.
  QueryId Admit(QuerySet* src, QueryId index, bool cadence);

  /// Moves query `index` of `*src` into a new slot under `id` and
  /// indexes it; no submission count, no evaluation.  Shared by Admit
  /// and AdoptPending.  Returns the slot.
  QueryId Place(QuerySet* src, QueryId index, QueryId id);

  /// The indexing half of admission (pending flag, incremental graph,
  /// component union, dirty mark) for a freshly placed slot.
  void IndexQuery(QueryId slot);

  /// CHECK-fails when called from inside a solution callback;
  /// `entry_point` names the violating call in the failure message.
  void CheckNotReentrant(const char* entry_point) const;

  QueryId id_of(QueryId slot) const { return ids_[static_cast<size_t>(slot)]; }

  /// Union-find over admission slots (weak connectivity of pending
  /// queries).
  QueryId FindRoot(QueryId q) const;
  void UnionComps(QueryId a, QueryId b);

  /// Removes delivered/cancelled queries from the incremental index and
  /// re-partitions the survivors of their component.  The resulting
  /// component roots are marked dirty and returned (sorted by smallest
  /// member id).
  std::vector<QueryId> RetireAndRepartition(
      const std::vector<QueryId>& retired);

  /// Builds `root`'s component evaluation into `*task`; member scratch
  /// comes from flush_arena_.
  void BuildTask(QueryId root, EvalTask* task) const;
  /// Solves the state's task against its memo.  Touches only `state`,
  /// so parallel flush workers can run disjoint states concurrently.
  EvalOutcome RunTask(ComponentState* state) const;

  // ---- delta-aware evaluation ------------------------------------------

  /// The persistent state of `root`'s component, built on first use.
  ComponentState* EnsureComponentState(QueryId root);
  /// Appends arrival `slot` — which must carry the largest id in its
  /// component — to `root`'s persistent subset/edges, if a state exists
  /// (no-op otherwise; the state is lazily built at the next
  /// evaluation).  An arrival out of id order degrades to a rebuild.
  void ExtendComponentState(QueryId root, QueryId slot);
  /// Whether the stamp fingerprint proves re-evaluating `state` would
  /// reproduce its last failure (EngineStats::evaluations_avoided).
  bool CanSkipEvaluation(const ComponentState& state) const;
  /// Records a completed no-delivery evaluation: arms the skip
  /// fingerprint with the current relation stamps.
  void RecordCleanFailure(ComponentState* state) const;
  /// Moves `root`'s state (if any) to doomed_states_, which keeps the
  /// task storage alive until the current evaluation round finishes —
  /// ApplyOutcome holds references into it across the repartition.
  void DoomComponentState(QueryId root);
  /// Applies one outcome: delivers + retires on success.  Returns
  /// whether a coordinating set was delivered; on delivery the
  /// repartitioned fragment roots land in `new_roots` when non-null.
  bool ApplyOutcome(const EvalTask& task, EvalOutcome outcome,
                    std::vector<QueryId>* new_roots = nullptr);

  /// Evaluates the (single) component of `root` on the calling thread.
  bool EvaluateComponentOf(QueryId root);

  size_t IncrementalFlush();

  /// The scheduler Flush() fans out on: the borrowed shared pool, the
  /// lazily created owned pool (flush_threads - 1 workers; the flushing
  /// thread is the remaining participant), or null for the serial path.
  ThreadPool* FlushPool();

  // ---- deferred admission (intake_ != nullptr) -----------------------
  //
  // Producers (any thread): move their parse into a private staging
  // QuerySet per query, claim a queue ticket with one atomic op, and
  // derive the admitted id from it (id = intake_base_ + ticket) — the
  // ticket fixes both the FIFO position and the id, so concurrent
  // producers can never hand out ids out of arrival order.  The owner
  // thread drains at every flush/read boundary and replays the inline
  // admission path (Admit), so the delivery log is byte-identical to an
  // inline engine fed the same arrival order.
  //
  // Owner-only surface: everything except Submit / SubmitParsed and
  // their non-empty batch forms must be called on the thread that
  // constructed the engine while producers are in flight.

  Result<QueryId> SubmitDeferred(QuerySet parsed);
  Result<std::vector<QueryId>> SubmitBatchDeferred(QuerySet parsed);
  /// Enqueues; on a full ring the owner drains inline (it is the
  /// consumer — blocking would deadlock), other producers spin-wait.
  uint64_t PushIntake(IntakeEvent event);
  /// Owner thread: adopts every queued event in ticket order.  No-op
  /// while already draining or inside a delivery callback.
  void DrainIntake();
  void DrainIntakeConst() const {
    const_cast<CoordinationEngine*>(this)->DrainIntake();
  }
  /// Re-derives intake_base_ after next_id_ moved outside the drain
  /// path (AdoptPending, ResumeNumbering); requires producer quiescence.
  void ResyncIntakeBase();

  const Database* db_;
  EngineOptions options_;
  // Every structure below is indexed by admission slot (a query's
  // position in all_); only ids_ and slots_ know the ids.
  QuerySet all_;
  std::vector<bool> pending_;  // per slot
  /// Per slot: the query's id, on which every ordering decision (solver
  /// member order, apply heap, delivery merge key) is taken.
  std::vector<QueryId> ids_;
  std::unordered_map<QueryId, QueryId> slots_;  ///< pending id -> slot
  QueryId next_id_ = 0;  ///< the id the next Submit admits under
  size_t since_last_eval_ = 0;
  DeliveryCallback callback_;
  InternalSolutionCallback internal_callback_;
  bool in_callback_ = false;
  EngineStats stats_;
  /// Refused submissions (parse failures of the text entry points).
  /// Atomic — and outside stats_ — because deferred producers reject on
  /// their own threads; StatsSnapshot() folds it into
  /// EngineStats::rejected.
  std::atomic<uint64_t> rejected_{0};
  QueryId last_delivery_key_ = -1;
  uint64_t next_delivery_sequence_ = 0;

  // ---- incremental core ----
  ExtendedCoordinationGraph graph_;      // over pending queries only
  mutable std::vector<QueryId> uf_parent_;
  std::vector<uint32_t> uf_size_;
  std::vector<QueryId> comp_min_;        // at roots: smallest member id
  std::vector<std::vector<QueryId>> comp_members_;  // at roots
  std::unordered_set<QueryId> dirty_roots_;
  std::unique_ptr<ThreadPool> pool_;     // lazily created by FlushPool()

  // ---- delta-aware evaluation state ----
  uint64_t last_db_version_ = 0;         // db_->version() at last flush
  std::unordered_map<QueryId, std::unique_ptr<ComponentState>> comp_states_;
  std::vector<std::unique_ptr<ComponentState>> doomed_states_;

  // ---- flush scratch (coordinating thread; reset per flush) ----
  std::deque<PendingEval> eval_slots_;   // stable refs; reused per flush
  size_t eval_slots_used_ = 0;
  mutable Arena flush_arena_;            // heap/wave/member scratch

  // ---- deferred admission ----
  std::unique_ptr<MpscQueue<IntakeEvent>> intake_;  // null = inline
  std::atomic<int64_t> intake_base_{0};  // admitted id = base + ticket
  uint64_t intake_drained_ = 0;          // next ticket the drain adopts
  std::thread::id owner_thread_;         // constructor thread = consumer
  bool draining_ = false;                // re-entrancy guard for drains
};

}  // namespace entangled

#endif  // ENTANGLED_SYSTEM_ENGINE_H_
