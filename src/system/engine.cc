#include "system/engine.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/parser.h"

namespace entangled {
namespace {

/// Dirty components each participant of a parallel flush claims per
/// atomic operation (ThreadPool::RunChunked).  Scheduling only: outputs
/// never depend on it.
constexpr size_t kFlushChunk = 8;

}  // namespace

CoordinationEngine::CoordinationEngine(const Database* db,
                                       EngineOptions options)
    : db_(db),
      options_(options),
      owner_thread_(std::this_thread::get_id()) {
  ENTANGLED_CHECK(db != nullptr);
  last_db_version_ = db_->version();
  if (options_.intake_capacity > 0) {
    intake_ =
        std::make_unique<MpscQueue<IntakeEvent>>(options_.intake_capacity);
    // No id has been issued and no ticket claimed: base = 0.
  }
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

void CoordinationService::ResumeNumbering(QueryId next_id,
                                          uint64_t next_sequence) {
  (void)next_id;
  (void)next_sequence;
  ENTANGLED_CHECK(false)
      << "ResumeNumbering is not implemented by this service: a decorator "
         "must forward it to the service it wraps";
}

void CoordinationEngine::Deliver(const CoordinationSolution& solution) {
  const uint64_t sequence = next_delivery_sequence_++;
  if (internal_callback_) {
    in_callback_ = true;
    internal_callback_(solution);
    in_callback_ = false;
  } else if (callback_) {
    // Materialize only when somebody listens: texts and grounded heads
    // cost allocations the silent path should not pay.
    const Delivery delivery = MakeIdDelivery(solution, sequence, true);
    in_callback_ = true;
    callback_(delivery);
    in_callback_ = false;
  }
}

Delivery CoordinationEngine::MakeIdDelivery(
    const CoordinationSolution& solution, uint64_t sequence,
    bool materialize) const {
  Delivery delivery;
  if (materialize) {
    delivery = MakeDelivery(all_, solution, sequence);
  } else {
    delivery.sequence = sequence;
    delivery.queries.resize(solution.queries.size());
  }
  for (size_t i = 0; i < solution.queries.size(); ++i) {
    delivery.queries[i].id = id_of(solution.queries[i]);
  }
  return delivery;
}

void CoordinationEngine::CheckNotReentrant(const char* entry_point) const {
  ENTANGLED_CHECK(!in_callback_)
      << entry_point
      << " called from inside a delivery callback: callbacks must not "
         "re-enter the CoordinationEngine; defer the follow-up until the "
         "delivering call returns";
}

Result<QueryId> CoordinationEngine::Submit(const std::string& query_text) {
  QuerySet parsed;
  if (auto id = ParseQuery(query_text, &parsed); !id.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return id.status();
  }
  return SubmitParsed(query_text, std::move(parsed));
}

Result<std::vector<QueryId>> CoordinationEngine::SubmitBatch(
    const std::vector<std::string>& query_texts) {
  // Admission is all-or-nothing: parse the whole batch into a staging
  // set first, so a mid-batch syntax error leaves no orphaned half-batch
  // pending with ids the caller never received.
  QuerySet parsed;
  for (const std::string& text : query_texts) {
    if (auto id = ParseQuery(text, &parsed); !id.ok()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return id.status();
    }
  }
  return SubmitBatchParsed(query_texts, std::move(parsed));
}

Result<QueryId> CoordinationEngine::SubmitParsed(
    const std::string& query_text, QuerySet parsed) {
  (void)query_text;
  ENTANGLED_CHECK_EQ(parsed.size(), size_t{1})
      << "SubmitParsed takes the parse of exactly one text";
  if (intake_ != nullptr) return SubmitDeferred(std::move(parsed));
  CheckNotReentrant("Submit");
  return Admit(&parsed, 0, /*cadence=*/true);
}

Result<std::vector<QueryId>> CoordinationEngine::SubmitBatchParsed(
    const std::vector<std::string>& query_texts, QuerySet parsed) {
  ENTANGLED_CHECK_EQ(parsed.size(), query_texts.size())
      << "SubmitBatchParsed takes one parsed query per text";
  if (intake_ != nullptr && !parsed.empty()) {
    return SubmitBatchDeferred(std::move(parsed));
  }
  CheckNotReentrant("SubmitBatch");
  DrainIntake();  // empty deferred batch: flush below covers the queue
  // No per-arrival evaluation while the batch is admitted: the whole
  // batch lands in the graph first, then one Flush() examines the
  // (merged) dirty components once instead of once per arrival.
  std::vector<QueryId> ids;
  ids.reserve(parsed.size());
  for (QueryId q = 0; q < static_cast<QueryId>(parsed.size()); ++q) {
    ids.push_back(Admit(&parsed, q, /*cadence=*/false));
  }
  if (options_.evaluate_every > 0) {
    since_last_eval_ = 0;
    Flush();
  }
  return ids;
}

// ---------------------------------------------------------------------------
// Deferred admission (EngineOptions::intake_capacity > 0)
// ---------------------------------------------------------------------------

Result<QueryId> CoordinationEngine::SubmitDeferred(QuerySet parsed) {
  // in_callback_ is owner-thread state; producers on other threads
  // cannot read it (and cannot be inside a callback anyway).
  if (std::this_thread::get_id() == owner_thread_) CheckNotReentrant("Submit");
  IntakeEvent event;
  event.staging = std::move(parsed);
  const uint64_t ticket = PushIntake(std::move(event));
  return static_cast<QueryId>(intake_base_.load(std::memory_order_relaxed) +
                              static_cast<int64_t>(ticket));
}

Result<std::vector<QueryId>> CoordinationEngine::SubmitBatchDeferred(
    QuerySet parsed) {
  if (std::this_thread::get_id() == owner_thread_) {
    CheckNotReentrant("SubmitBatch");
  }
  // The batch was parsed whole before anything is enqueued, so admission
  // stays all-or-nothing.  Each member moves into its own event.
  std::vector<IntakeEvent> events(parsed.size());
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].staging.MoveQuery(&parsed, static_cast<QueryId>(i));
    // Batch members do not tick the cadence; the tail flushes once —
    // the same suspend-then-flush the inline path performs.
    events[i].cadence = false;
  }
  events.back().batch_tail = true;
  std::vector<QueryId> ids;
  ids.reserve(events.size());
  const int64_t base = intake_base_.load(std::memory_order_relaxed);
  for (IntakeEvent& event : events) {
    const uint64_t ticket = PushIntake(std::move(event));
    ids.push_back(static_cast<QueryId>(base + static_cast<int64_t>(ticket)));
  }
  return ids;
}

uint64_t CoordinationEngine::PushIntake(IntakeEvent event) {
  uint64_t ticket = 0;
  if (std::this_thread::get_id() == owner_thread_) {
    // The owner is the queue's consumer: on a full ring it drains
    // inline instead of blocking on itself.
    ENTANGLED_CHECK(!draining_)
        << "intake push from inside the drain path";
    while (!intake_->TryPush(std::move(event), &ticket)) DrainIntake();
  } else {
    ticket = intake_->Push(std::move(event));
  }
  return ticket;
}

void CoordinationEngine::DrainIntake() {
  if (intake_ == nullptr || draining_ || in_callback_) return;
  draining_ = true;
  IntakeEvent event;
  while (intake_->TryPop(&event)) {
    const QueryId predicted = static_cast<QueryId>(
        intake_base_.load(std::memory_order_relaxed) +
        static_cast<int64_t>(intake_drained_++));
    ENTANGLED_CHECK_EQ(predicted, next_id_)
        << "intake drain order diverged from ticket order";
    // Replay the inline admission path with the cadence the event
    // carried.
    Admit(&event.staging, 0, event.cadence);
    if (event.batch_tail && options_.evaluate_every > 0) {
      since_last_eval_ = 0;
      IncrementalFlush();
    }
  }
  draining_ = false;
}

void CoordinationEngine::ResyncIntakeBase() {
  if (intake_ == nullptr) return;
  intake_base_.store(static_cast<int64_t>(next_id_) -
                         static_cast<int64_t>(intake_->next_ticket()),
                     std::memory_order_relaxed);
}

QueryId CoordinationEngine::Admit(QuerySet* src, QueryId index,
                                  bool cadence) {
  const QueryId id = next_id_;
  const QueryId slot = Place(src, index, id);
  ++stats_.submitted;
  if (cadence && options_.evaluate_every > 0 &&
      ++since_last_eval_ >= options_.evaluate_every) {
    since_last_eval_ = 0;
    EvaluateComponentOf(slot);
  }
  return id;
}

QueryId CoordinationEngine::Place(QuerySet* src, QueryId index, QueryId id) {
  // Moving the query allocates the slot and variables a direct parse
  // into all_ would.
  const QueryId slot = all_.MoveQuery(src, index);
  ids_.push_back(id);
  ENTANGLED_CHECK(slots_.emplace(id, slot).second)
      << "query id " << id << " is already pending";
  next_id_ = std::max(next_id_, id + 1);
  IndexQuery(slot);
  return slot;
}

void CoordinationEngine::IndexQuery(QueryId slot) {
  const size_t n = all_.size();
  pending_.resize(n, false);
  pending_[static_cast<size_t>(slot)] = true;

  // Every new slot starts as its own singleton component.
  while (uf_parent_.size() < n) {
    QueryId q = static_cast<QueryId>(uf_parent_.size());
    uf_parent_.push_back(q);
    uf_size_.push_back(1);
    comp_min_.push_back(id_of(q));
    comp_members_.push_back({q});
  }
  // Index the arrival; its incident edges are exactly the new ones.
  graph_.AddQuery(all_, slot);

  // Persistent-subset maintenance must see the component partition
  // *before* the arrival's unions: an arrival joining exactly one
  // existing component extends its state in place (appending the
  // newest id reproduces a rebuild byte for byte); an arrival gluing
  // several components together invalidates all their states — the
  // concatenation would not be the ascending-id dense subset a
  // rebuild produces.
  std::vector<QueryId> neighbour_roots;
  auto note = [&](QueryId neighbour) {
    if (neighbour == slot) return;  // self-loop: no pre-existing root
    QueryId root = FindRoot(neighbour);
    for (QueryId seen : neighbour_roots) {
      if (seen == root) return;
    }
    neighbour_roots.push_back(root);
  };
  for (size_t e : graph_.OutEdges(slot)) note(graph_.edge(e).to);
  for (size_t e : graph_.InEdges(slot)) note(graph_.edge(e).from);
  QueryId extended_root = -1;
  if (neighbour_roots.size() == 1) {
    ExtendComponentState(neighbour_roots.front(), slot);
    extended_root = neighbour_roots.front();
  } else if (neighbour_roots.size() > 1) {
    for (QueryId root : neighbour_roots) DoomComponentState(root);
  }

  for (size_t e : graph_.OutEdges(slot)) {
    UnionComps(slot, graph_.edge(e).to);
  }
  for (size_t e : graph_.InEdges(slot)) {
    UnionComps(slot, graph_.edge(e).from);
  }
  const QueryId new_root = FindRoot(slot);
  if (extended_root >= 0 && new_root != extended_root) {
    // The union picked the arrival as the surviving root (two
    // singletons): re-key the extended state under it.
    auto it = comp_states_.find(extended_root);
    if (it != comp_states_.end()) {
      auto state = std::move(it->second);
      comp_states_.erase(it);
      comp_states_.emplace(new_root, std::move(state));
    }
  }
  dirty_roots_.insert(new_root);
}

bool CoordinationEngine::Cancel(QueryId id) {
  CheckNotReentrant("Cancel");
  // Cancels apply inline (the caller needs the exact boolean), after
  // any queued submissions that arrived before it.
  DrainIntake();
  doomed_states_.clear();  // previous round's references are released
  auto it = slots_.find(id);
  if (it == slots_.end()) return false;
  const QueryId slot = it->second;
  slots_.erase(it);
  pending_[static_cast<size_t>(slot)] = false;
  ++stats_.cancelled;
  std::vector<QueryId> fragment_roots = RetireAndRepartition({slot});
  if (options_.fault.lose_dirty_on_cancel) {
    // Test-only fault: drop the re-evaluation marks the repartition
    // just made (see EngineFaultInjection::lose_dirty_on_cancel).
    for (QueryId root : fragment_roots) dirty_roots_.erase(root);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Pending bookkeeping
// ---------------------------------------------------------------------------

std::vector<QueryId> CoordinationEngine::PendingQueries() const {
  // Reads observe every accepted submission: the deferred-admission
  // queue only ever buffers between an accepted Submit and the next
  // flush/read boundary, so the pending set is never torn.
  DrainIntakeConst();
  std::vector<QueryId> pending;
  pending.reserve(slots_.size());
  for (const auto& [id, slot] : slots_) pending.push_back(id);
  std::sort(pending.begin(), pending.end());
  return pending;
}

bool CoordinationEngine::IsPending(QueryId id) const {
  DrainIntakeConst();
  return slots_.count(id) != 0;
}

std::vector<QueryId> CoordinationEngine::ComponentOf(QueryId id) const {
  DrainIntakeConst();
  auto it = slots_.find(id);
  if (it == slots_.end()) return {};
  const std::vector<QueryId>& members =
      comp_members_[static_cast<size_t>(FindRoot(it->second))];
  std::vector<QueryId> component;
  component.reserve(members.size());
  for (QueryId slot : members) component.push_back(id_of(slot));
  std::sort(component.begin(), component.end());
  return component;
}

// ---------------------------------------------------------------------------
// Union-find over weakly connected components
// ---------------------------------------------------------------------------

QueryId CoordinationEngine::FindRoot(QueryId q) const {
  QueryId root = q;
  while (uf_parent_[static_cast<size_t>(root)] != root) {
    root = uf_parent_[static_cast<size_t>(root)];
  }
  // Path compression.
  while (uf_parent_[static_cast<size_t>(q)] != root) {
    QueryId next = uf_parent_[static_cast<size_t>(q)];
    uf_parent_[static_cast<size_t>(q)] = root;
    q = next;
  }
  return root;
}

void CoordinationEngine::UnionComps(QueryId a, QueryId b) {
  QueryId ra = FindRoot(a);
  QueryId rb = FindRoot(b);
  if (ra == rb) return;
  // Dirtiness survives merging: membership of the merged component has
  // certainly changed.
  bool dirty = dirty_roots_.erase(ra) > 0;
  dirty = dirty_roots_.erase(rb) > 0 || dirty;
  if (uf_size_[static_cast<size_t>(ra)] < uf_size_[static_cast<size_t>(rb)]) {
    std::swap(ra, rb);
  }
  uf_parent_[static_cast<size_t>(rb)] = ra;
  uf_size_[static_cast<size_t>(ra)] += uf_size_[static_cast<size_t>(rb)];
  comp_min_[static_cast<size_t>(ra)] = std::min(
      comp_min_[static_cast<size_t>(ra)], comp_min_[static_cast<size_t>(rb)]);
  auto& into = comp_members_[static_cast<size_t>(ra)];
  auto& from = comp_members_[static_cast<size_t>(rb)];
  into.insert(into.end(), from.begin(), from.end());
  from.clear();
  from.shrink_to_fit();
  if (dirty) dirty_roots_.insert(ra);
}

std::vector<QueryId> CoordinationEngine::RetireAndRepartition(
    const std::vector<QueryId>& retired) {
  ENTANGLED_CHECK(!retired.empty());
  // All retired queries belong to one component (a coordinating set is
  // connected; Cancel retires a single query).
  QueryId root = FindRoot(retired[0]);
  dirty_roots_.erase(root);
  // Retirement re-densifies the fragments' id spaces, so the persistent
  // subset (and the memo keyed on its local ids) cannot survive.
  DoomComponentState(root);

  std::vector<QueryId> survivors;
  for (QueryId m : comp_members_[static_cast<size_t>(root)]) {
    if (pending_[static_cast<size_t>(m)]) survivors.push_back(m);
  }
  graph_.RetireQueries(retired);
  comp_members_[static_cast<size_t>(root)].clear();

  // Rebuild the union-find partition of the survivors from the live
  // edges — a retirement can split its component but never touches any
  // other component, so the rebuild is local.
  for (QueryId m : survivors) {
    uf_parent_[static_cast<size_t>(m)] = m;
    uf_size_[static_cast<size_t>(m)] = 1;
    comp_min_[static_cast<size_t>(m)] = id_of(m);
    comp_members_[static_cast<size_t>(m)] = {m};
  }
  for (QueryId m : survivors) {
    // Every intra-component edge is some survivor's out-edge, so one
    // direction suffices for weak connectivity.
    for (size_t e : graph_.OutEdges(m)) {
      UnionComps(m, graph_.edge(e).to);
    }
  }
  std::unordered_set<QueryId> distinct_roots;
  for (QueryId m : survivors) distinct_roots.insert(FindRoot(m));
  std::vector<QueryId> fragment_roots(distinct_roots.begin(),
                                      distinct_roots.end());
  std::sort(fragment_roots.begin(), fragment_roots.end(),
            [this](QueryId a, QueryId b) {
              return comp_min_[static_cast<size_t>(a)] <
                     comp_min_[static_cast<size_t>(b)];
            });
  // Membership changed: these components may now coordinate (or, having
  // shed an unsafe sibling, may have become safe).
  for (QueryId r : fragment_roots) dirty_roots_.insert(r);
  return fragment_roots;
}

// ---------------------------------------------------------------------------
// Incremental evaluation
// ---------------------------------------------------------------------------

void CoordinationEngine::BuildTask(QueryId root, EvalTask* task) const {
  // Member scratch dies with the flush: one arena bump instead of a
  // heap vector per evaluation.
  const std::vector<QueryId>& src =
      comp_members_[static_cast<size_t>(FindRoot(root))];
  ENTANGLED_CHECK(!src.empty());
  std::vector<QueryId, ArenaAllocator<QueryId>> members(
      src.begin(), src.end(), ArenaAllocator<QueryId>(&flush_arena_));
  // Order members by id, not slot: ids are monotone in submission order
  // even when slots are not (queries merged into this engine mid-life),
  // so the dense subset — and with it every discovery-order tie-break
  // inside the solver — is byte-identical to what a single engine over
  // the union would build.
  std::sort(members.begin(), members.end(), [this](QueryId a, QueryId b) {
    return id_of(a) < id_of(b);
  });
  task->min_key = id_of(members.front());
  task->original.clear();
  task->original_vars.clear();
  task->edges.clear();
  task->subset = all_.Subset(members.data(), members.size(), &task->original,
                             &task->original_vars);

  auto local_id = [this, &members](QueryId slot) {
    auto it = std::lower_bound(members.begin(), members.end(), id_of(slot),
                               [this](QueryId member, QueryId id) {
                                 return id_of(member) < id;
                               });
    ENTANGLED_CHECK(it != members.end() && *it == slot);
    return static_cast<QueryId>(it - members.begin());
  };
  // Slice the component's edges out of the persistent graph instead of
  // re-deriving them, renumbered to subset-local ids.  A component is
  // weakly closed, so every out-edge of a member targets a member.
  for (QueryId m : members) {
    for (size_t e : graph_.OutEdges(m)) {
      const ExtendedEdge& edge = graph_.edge(e);
      task->edges.push_back(ExtendedEdge{local_id(edge.from), edge.post_index,
                                         local_id(edge.to), edge.head_index});
    }
  }
  // Canonical order — byte-identical to what a batch graph build over
  // the same subset would enumerate, so the solver sees exactly the
  // input the from-scratch oracle's Solve(subset) derives.
  std::sort(task->edges.begin(), task->edges.end(),
            [](const ExtendedEdge& a, const ExtendedEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.post_index != b.post_index)
                return a.post_index < b.post_index;
              if (a.to != b.to) return a.to < b.to;
              return a.head_index < b.head_index;
            });
}

CoordinationEngine::EvalOutcome CoordinationEngine::RunTask(
    ComponentState* state) const {
  // Runs on a worker thread in parallel flushes: touches only the
  // component's task and private memo, the read-only database, and a
  // private coordinator.
  EvalOutcome outcome;
  WallTimer timer;
  SccCoordinator coordinator(db_, options_.scc);
  auto result =
      coordinator.Solve(state->task.subset, state->task.edges, &state->memo);
  outcome.eval_nanos = timer.ElapsedNanos();
  outcome.db_queries = coordinator.stats().db_queries;
  outcome.memo_hits = coordinator.stats().memo_hits;
  if (result.ok()) {
    outcome.ok = true;
    outcome.solution = std::move(*result);
  } else {
    outcome.unsafe = result.status().IsFailedPrecondition();
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Delta-aware evaluation
// ---------------------------------------------------------------------------

CoordinationEngine::ComponentState* CoordinationEngine::EnsureComponentState(
    QueryId root) {
  root = FindRoot(root);
  auto it = comp_states_.find(root);
  if (it != comp_states_.end()) return it->second.get();
  auto state = std::make_unique<ComponentState>();
  BuildTask(root, &state->task);
  ComponentState* ptr = state.get();
  comp_states_.emplace(root, std::move(state));
  return ptr;
}

void CoordinationEngine::ExtendComponentState(QueryId root, QueryId slot) {
  auto it = comp_states_.find(root);
  if (it == comp_states_.end()) return;  // lazily rebuilt at next eval
  ComponentState* state = it->second.get();
  EvalTask* task = &state->task;
  if (!task->original.empty() &&
      id_of(task->original.back()) >= id_of(slot)) {
    // Appending would break the ascending-id invariant the dense subset
    // depends on (an arrival normally carries the largest id — but a
    // merge can adopt interleaved ids; degrade to a rebuild rather than
    // corrupt the subset).
    DoomComponentState(root);
    return;
  }
  // Adopt the arrival into the persistent subset.  AdoptQueries
  // allocates dense variables in the same first-occurrence order
  // Subset uses and queries never share variables, so the extended
  // subset is byte-identical to a rebuild over the grown member list.
  std::vector<std::pair<VarId, VarId>> var_map;
  std::vector<QueryId> adopted = task->subset.AdoptQueries(all_, {slot},
                                                           &var_map);
  ENTANGLED_CHECK_EQ(adopted.size(), size_t{1});
  const QueryId arrival_local = adopted.front();
  task->original.push_back(slot);
  task->original_vars.resize(task->subset.num_vars());
  for (const auto& [source_var, local_var] : var_map) {
    task->original_vars[static_cast<size_t>(local_var)] = source_var;
  }
  // min_key is unchanged: the arrival carries the largest id.

  auto local_id = [this, task](QueryId member_slot) {
    auto pos = std::lower_bound(task->original.begin(), task->original.end(),
                                id_of(member_slot),
                                [this](QueryId member, QueryId id) {
                                  return id_of(member) < id;
                                });
    ENTANGLED_CHECK(pos != task->original.end() && *pos == member_slot);
    return static_cast<QueryId>(pos - task->original.begin());
  };
  // The arrival's incident edges are exactly the new ones; a self-loop
  // shows up in both directions but is one edge.
  for (size_t e : graph_.OutEdges(slot)) {
    const ExtendedEdge& edge = graph_.edge(e);
    task->edges.push_back(ExtendedEdge{arrival_local, edge.post_index,
                                       local_id(edge.to), edge.head_index});
  }
  for (size_t e : graph_.InEdges(slot)) {
    const ExtendedEdge& edge = graph_.edge(e);
    if (edge.from == slot) continue;  // self-loop already appended above
    task->edges.push_back(ExtendedEdge{local_id(edge.from), edge.post_index,
                                       arrival_local, edge.head_index});
  }
  // Restore the canonical order BuildTask establishes (nearly sorted:
  // only the appended tail is out of place).
  std::sort(task->edges.begin(), task->edges.end(),
            [](const ExtendedEdge& a, const ExtendedEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.post_index != b.post_index)
                return a.post_index < b.post_index;
              if (a.to != b.to) return a.to < b.to;
              return a.head_index < b.head_index;
            });
  state->members_changed = true;
}

bool CoordinationEngine::CanSkipEvaluation(const ComponentState& state) const {
  if (!state.clean_failure) return false;
  if (state.members_changed && !options_.fault.poison_eval_cache) {
    return false;
  }
  // Membership (hence the edge slice) is unchanged, so the outcome can
  // only differ if a relation some member's body reads has changed.
  for (const auto& [relation, version] : state.stamps) {
    const uint64_t now =
        relation != nullptr ? relation->version() : db_->version();
    if (now != version) return false;
  }
  return true;
}

void CoordinationEngine::RecordCleanFailure(ComponentState* state) const {
  state->clean_failure = true;
  state->members_changed = false;
  state->stamps.clear();
  // Stamp every relation the evaluation could have read: failing
  // evaluations touch the database only through member bodies (the
  // domain scan of CompleteAssignment runs only on deliveries, which
  // destroy the state anyway).  A body naming an absent relation pins
  // the catalog version instead, so a later CreateRelation invalidates.
  std::unordered_set<const Relation*> seen;
  const QuerySet& subset = state->task.subset;
  for (QueryId q = 0; q < static_cast<QueryId>(subset.size()); ++q) {
    for (const Atom& atom : subset.query(q).body) {
      const Relation* relation = db_->Find(atom.relation);
      if (!seen.insert(relation).second) continue;
      state->stamps.emplace_back(
          relation,
          relation != nullptr ? relation->version() : db_->version());
    }
  }
}

void CoordinationEngine::DoomComponentState(QueryId root) {
  auto it = comp_states_.find(root);
  if (it == comp_states_.end()) return;
  doomed_states_.push_back(std::move(it->second));
  comp_states_.erase(it);
}

bool CoordinationEngine::ApplyOutcome(const EvalTask& task,
                                      EvalOutcome outcome,
                                      std::vector<QueryId>* new_roots) {
  stats_.db_queries += outcome.db_queries;
  stats_.eval_cache_hits += outcome.memo_hits;
  stats_.eval_latency.Record(outcome.eval_nanos);
  if (!outcome.ok) {
    if (outcome.unsafe) ++stats_.unsafe_components;
    return false;
  }
  // Translate subset ids — queries and witness variables — back to
  // engine slots and variables and retire the winners.
  CoordinationSolution solution;
  outcome.solution.assignment.ForEach([&](VarId local, const Value& value) {
    solution.assignment.emplace(
        task.original_vars[static_cast<size_t>(local)], value);
  });
  for (QueryId local : outcome.solution.queries) {
    const QueryId slot = task.original[static_cast<size_t>(local)];
    solution.queries.push_back(slot);
    pending_[static_cast<size_t>(slot)] = false;
    slots_.erase(id_of(slot));
  }
  std::sort(solution.queries.begin(), solution.queries.end());
  std::vector<QueryId> fragment_roots = RetireAndRepartition(solution.queries);
  if (new_roots != nullptr) *new_roots = std::move(fragment_roots);
  stats_.coordinated_queries += solution.queries.size();
  ++stats_.coordinating_sets;
  last_delivery_key_ = task.min_key;
  // A Delivery lists its participants by ascending id.
  std::sort(solution.queries.begin(), solution.queries.end(),
            [this](QueryId a, QueryId b) { return id_of(a) < id_of(b); });
  Deliver(solution);
  return true;
}

bool CoordinationEngine::EvaluateComponentOf(QueryId root) {
  doomed_states_.clear();  // previous round's references are released
  dirty_roots_.erase(FindRoot(root));
  flush_arena_.Reset();
  ComponentState* state = EnsureComponentState(root);
  if (CanSkipEvaluation(*state)) {
    ++stats_.evaluations_avoided;
    return false;
  }
  ++stats_.evaluations;
  const bool delivered = ApplyOutcome(state->task, RunTask(state));
  // On delivery the state was doomed by the repartition; on failure it
  // survives — arm the skip fingerprint.
  if (!delivered) RecordCleanFailure(state);
  return delivered;
}

ThreadPool* CoordinationEngine::FlushPool() {
  if (options_.flush_threads <= 1) return nullptr;
  if (options_.shared_pool != nullptr) return options_.shared_pool;
  if (pool_ == nullptr) {
    // The flushing thread participates in RunChunked, so n configured
    // threads means n - 1 pool workers.
    pool_ = std::make_unique<ThreadPool>(options_.flush_threads - 1);
  }
  return pool_.get();
}

size_t CoordinationEngine::IncrementalFlush() {
  // Per-flush scratch: the apply heap, the seed list, and every
  // BuildTask member copy come from the arena; evaluation slots are
  // pooled in eval_slots_.  A steady-state flush therefore performs no
  // per-component heap allocation for its own bookkeeping — at any
  // flush_threads, including the serial path.
  doomed_states_.clear();  // previous round's references are released
  flush_arena_.Reset();
  eval_slots_used_ = 0;
  size_t ran_watermark = 0;  // slots below this have outcomes

  // Facts changed since the last flush: every pending component's last
  // verdict is potentially stale, exactly as the from-scratch oracle
  // (which re-examines everything each Flush) would discover.  Mark all
  // live components dirty; the stamp fingerprints below prune the flood
  // back down to the components that actually read a mutated relation.
  if (db_->version() != last_db_version_) {
    last_db_version_ = db_->version();
    for (const auto& [id, slot] : slots_) dirty_roots_.insert(FindRoot(slot));
  }

  // Results are applied strictly in ascending smallest-member-id order
  // — the order the from-scratch oracle discovers components in — so
  // delivery order is deterministic and thread-count-independent.
  using HeapItem = std::pair<QueryId, size_t>;  // (min_key, slot index)
  using HeapVec = std::vector<HeapItem, ArenaAllocator<HeapItem>>;
  std::priority_queue<HeapItem, HeapVec, std::greater<HeapItem>> apply_order{
      std::greater<HeapItem>(), HeapVec(ArenaAllocator<HeapItem>(&flush_arena_))};

  auto dispatch = [&](QueryId root) {
    ComponentState* state = EnsureComponentState(root);
    if (CanSkipEvaluation(*state)) {
      // Provably the same failure as last time: skip the solver.
      ++stats_.evaluations_avoided;
      return;
    }
    if (eval_slots_used_ == eval_slots_.size()) eval_slots_.emplace_back();
    PendingEval& eval = eval_slots_[eval_slots_used_];
    eval.state = state;
    eval.ran = false;
    ++stats_.evaluations;
    apply_order.push({state->task.min_key, eval_slots_used_});
    ++eval_slots_used_;
  };

  // Runs every built-but-unrun slot — always the contiguous tail
  // [ran_watermark, eval_slots_used_): dispatch only appends, and each
  // wave retires the whole tail.  Chunked across the pool when one is
  // configured; a barrier, so outcomes are safe to read after.
  auto run_wave = [&] {
    const size_t begin = ran_watermark;
    const size_t n = eval_slots_used_ - begin;
    ThreadPool* pool = n > 1 ? FlushPool() : nullptr;
    if (pool == nullptr) {
      for (size_t i = begin; i < eval_slots_used_; ++i) {
        PendingEval& eval = eval_slots_[i];
        eval.outcome = RunTask(eval.state);
        eval.ran = true;
      }
    } else {
      // Workers write into disjoint pre-sized slots; no slot is created
      // or destroyed while the wave runs, so the deque is stable (and
      // each component's state/memo is touched by exactly one worker).
      pool->RunChunked(n, kFlushChunk, [this, begin](size_t i) {
        PendingEval& eval = eval_slots_[begin + i];
        eval.outcome = RunTask(eval.state);
        eval.ran = true;
      });
    }
    ran_watermark = eval_slots_used_;
  };

  // Seed with every dirty component; components untouched since their
  // last evaluation are provably still failures and are skipped.
  std::vector<QueryId, ArenaAllocator<QueryId>> seeds(
      dirty_roots_.begin(), dirty_roots_.end(),
      ArenaAllocator<QueryId>(&flush_arena_));
  std::sort(seeds.begin(), seeds.end(), [this](QueryId a, QueryId b) {
    return comp_min_[static_cast<size_t>(a)] <
           comp_min_[static_cast<size_t>(b)];
  });
  dirty_roots_.clear();
  for (QueryId root : seeds) dispatch(root);

  size_t delivered = 0;
  while (!apply_order.empty()) {
    const size_t index = apply_order.top().second;
    // The heap's next slot needs an outcome: run the pending wave
    // (covers this slot — it is in the unrun tail by construction).
    if (!eval_slots_[index].ran) run_wave();
    apply_order.pop();
    PendingEval& eval = eval_slots_[index];
    std::vector<QueryId> fragment_roots;
    if (ApplyOutcome(eval.state->task, std::move(eval.outcome),
                     &fragment_roots)) {
      ++delivered;
      // A delivery shrank its component; the surviving fragments may
      // coordinate on their own — evaluate them within this flush.
      for (QueryId root : fragment_roots) {
        dirty_roots_.erase(root);
        dispatch(root);
      }
    } else {
      RecordCleanFailure(eval.state);
    }
  }
  return delivered;
}

size_t CoordinationEngine::Flush() {
  CheckNotReentrant("Flush");
  DrainIntake();
  return IncrementalFlush();
}

bool CoordinationEngine::EvaluateNow(QueryId id) {
  CheckNotReentrant("EvaluateNow");
  DrainIntake();
  auto it = slots_.find(id);
  return it != slots_.end() && EvaluateComponentOf(it->second);
}

void CoordinationEngine::ResumeNumbering(QueryId next_id,
                                         uint64_t next_sequence) {
  CheckNotReentrant("ResumeNumbering");
  DrainIntake();
  ENTANGLED_CHECK_GE(next_id, next_id_) << "ids only move forward";
  next_id_ = next_id;
  next_delivery_sequence_ = next_sequence;
  ResyncIntakeBase();
}

// ---------------------------------------------------------------------------
// Pending-query migration
// ---------------------------------------------------------------------------

CoordinationEngine::PendingExtract CoordinationEngine::ExtractPending() {
  CheckNotReentrant("ExtractPending");
  DrainIntake();  // queued submissions are pending too: extract them
  PendingExtract extract;
  std::vector<QueryId> pending;  // slots
  pending.reserve(slots_.size());
  for (size_t slot = 0; slot < pending_.size(); ++slot) {
    if (pending_[slot]) pending.push_back(static_cast<QueryId>(slot));
  }
  extract.queries = all_.Subset(pending);
  // Ids travel with the queries, so whichever engine adopts this
  // extract keeps answering and scheduling them under the same ids.
  extract.ids.reserve(pending.size());
  for (QueryId slot : pending) extract.ids.push_back(id_of(slot));
  // Detach: the queries keep their slots in all_ but leave every live
  // structure, as if they had never been admitted.
  for (QueryId slot : pending) pending_[static_cast<size_t>(slot)] = false;
  slots_.clear();
  graph_ = ExtendedCoordinationGraph();
  uf_parent_.clear();
  uf_size_.clear();
  comp_min_.clear();
  comp_members_.clear();
  dirty_roots_.clear();
  // Migration invalidates the delta caches wholesale: the extracted
  // queries get new dense ids wherever they land, so neither the
  // persistent subsets nor the memo keys mean anything there.
  comp_states_.clear();
  doomed_states_.clear();
  return extract;
}

// Adoption indexes without counting submissions or touching the
// cadence: a migrated query was already counted where it first arrived,
// and the caller decides when evaluation happens.  Components gaining
// adopted members are conservatively dirty (IndexQuery), which can only
// add provably-failing re-evaluations, never change what is delivered.

void CoordinationEngine::AdoptPending(QuerySet* src, QueryId index,
                                      QueryId id) {
  CheckNotReentrant("AdoptPending");
  DrainIntake();
  Place(src, index, id);
  ResyncIntakeBase();  // adoption moved next_id_ outside the ticket flow
}

void CoordinationEngine::AdoptPending(PendingExtract* extract) {
  CheckNotReentrant("AdoptPending");
  DrainIntake();
  for (size_t i = 0; i < extract->ids.size(); ++i) {
    Place(&extract->queries, static_cast<QueryId>(i), extract->ids[i]);
  }
  ResyncIntakeBase();
}

}  // namespace entangled
