// coordbench: the end-to-end coordination benchmark.
//
// One process runs one named workload.  A single client thread replays a
// seeded WorkloadGenerator stream through the production stack in a
// closed loop (each call starts when the previous one returns):
//
//   ClientSession -> SessionManager -> [DurableCoordinationService]
//                 -> ShardedCoordinationEngine -> CoordinationEngine
//
// Everything is single-threaded (flush_threads = shard_threads = 1,
// inline intake, no pool), so the host scheduler stays out of the
// numbers.  A round replays the whole stream on a freshly built stack,
// so every round does identical, deterministic work.  The timed phase
// repeats rounds until --seconds elapse, with one crash recovery or one
// more set-up between two rounds, and reports each timing as the median
// over its quiet repeats (QuietRepeats).
//
// Correctness gate (outside the timed window): the first round's session
// event streams, merged by sequence, must match a bare CoordinationEngine
// fed the same resolved operations, and every later round must reproduce
// the first one's deliveries and counters exactly.  After a simulated
// crash, recovery must restore the pre-crash pending set with no
// anomalies and resume the delivery sequence where it stopped.
//
// --trace 1 adds traced rounds: pass-through timing CoordinationService
// shims sit above and below the durability decorator (or above the
// sharded engine alone when there is none), and wrap the delivery
// callbacks they forward.  Spans are kept in memory, written out at the
// end, and per-layer self times are derived from them by subtraction.
//
// Usage:
//   coordbench --workload social|dense|durable --seed N --seconds S
//              --trace 0|1 --work-dir DIR [--trace-out FILE] [--scale F]
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>

#include "api/session.h"
#include "common/rng.h"
#include "core/parser.h"
#include "core/query.h"
#include "db/database.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/generator.h"

namespace entangled {
namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One named workload: the generator's query shapes plus the benchmark's
/// own arrival cadence.  Cadences are fixed counters, not random draws,
/// so the share of each call kind is exact and no reported percentile
/// sits on the edge between two call kinds.
struct WorkloadSpec {
  std::string name;
  GeneratorOptions gen;
  size_t evaluate_every = 1;
  /// Groups whose members interleave: arrivals are ordered by group
  /// index plus a uniform jitter of this many groups, so a group's
  /// members arrive close together and the pending set stays bounded.
  double window_groups = 4;
  size_t flush_every = 0;   ///< every n-th call is an explicit Flush
  size_t cancel_every = 0;  ///< every n-th call cancels + resubmits
  /// Cancel (without resubmitting) every query still pending this many
  /// arrivals after it was admitted; checked after each Flush.
  size_t timeout_arrivals = 0;
  size_t cycle_every = 0;   ///< every n-th call closes + reopens a session
  bool durable = false;     ///< durability decorator on the timed path
};

/// The relations are sized like the paper's 82,168-row Slashdot table.
constexpr size_t kPaperRows = 82168;
constexpr size_t kSessions = 8;
constexpr size_t kBatchEvery = 5;  ///< every 5th call is a SubmitBatch ...
constexpr size_t kBatchSize = 3;   ///< ... of 3 texts
constexpr size_t kPollEvery = 32;  ///< every 32nd call drains every session
constexpr size_t kMinRepeats = 4;  ///< fewest set-ups and recoveries per run

bool MakeSpec(const std::string& name, uint64_t seed, double scale,
              WorkloadSpec* spec) {
  GeneratorOptions g;
  g.seed = seed;
  g.population = 20000;
  g.num_relations = 2;
  // A fixed arity keeps the database the same size under every seed.
  g.min_arity = 2;
  g.max_arity = 2;
  g.rows_per_relation = kPaperRows;
  g.tags_per_column = 64;
  g.head_only_var_rate = 0;
  g.unsafe_rate = 0;
  g.template_rate = 1.0;
  g.batch_rate = 0;
  g.cancel_rate = 0;
  g.flush_rate = 0;
  g.eval_every_rate = 0;
  spec->name = name;
  auto queries = [scale](size_t n) {
    return std::max<size_t>(64, static_cast<size_t>(std::llround(n * scale)));
  };
  if (name == "social" || name == "durable") {
    g.topology = GraphTopology::kClique;
    g.min_group = 2;
    g.max_group = 5;
    g.max_body_atoms = 1;
    g.stuck_body_rate = 0;
    g.relation_partitions = 0;
    // Short rounds (about a seventh of a second), so that a run holds
    // many and the quiet ones among them are many too.
    g.num_queries = queries(4000);
    spec->evaluate_every = 1;
    spec->window_groups = 6;
    spec->flush_every = 0;
    if (name == "social") {
      spec->cancel_every = 50;
    } else {
      spec->cancel_every = 10;
      spec->cycle_every = 250;
      spec->durable = true;
    }
  } else if (name == "dense") {
    g.topology = GraphTopology::kErdosRenyi;
    g.er_edge_prob = 0.25;
    g.min_group = 16;
    g.max_group = 24;
    g.max_body_atoms = 3;
    // Every grounding here must be satisfiable.  Beside wildcard body
    // atoms, a failing atom makes the grounding search enumerate the
    // wildcards' cross product, which is exponential: some seeds ran for
    // minutes.  Stuck bodies fail that way, and so do bridge_storm
    // bridges, whose two posts share one variable and so demand equal
    // witnesses from two groups.  Members still get stuck here, at the
    // graph level, on bridges into groups that have already delivered.
    g.stuck_body_rate = 0;
    g.sharing_density = 0.25;
    g.bridge_storm = 0;
    g.relation_partitions = 16;
    g.num_queries = queries(4000);
    spec->evaluate_every = 0;
    spec->window_groups = 2;
    spec->flush_every = 32;
    spec->timeout_arrivals = 1500;
  } else {
    return false;
  }
  spec->gen = g;
  return true;
}

// ---------------------------------------------------------------------------
// Plan: the query texts in arrival order plus the call cadence
// ---------------------------------------------------------------------------

struct Op {
  enum class Kind : uint8_t { kSubmit, kBatch, kCancelRecent, kFlush, kCycle };
  Kind kind = Kind::kFlush;
  uint32_t first = 0;  ///< kSubmit / kBatch: first text index
  uint32_t count = 0;  ///< kBatch: texts in the batch
};

struct Plan {
  std::vector<std::string> texts;
  std::vector<Op> ops;
};

/// Group index of a generated text ("q<g>_<m>: ...").
size_t GroupOf(const std::string& text) {
  size_t g = 0;
  for (size_t i = 1; i < text.size() && text[i] >= '0' && text[i] <= '9';
       ++i) {
    g = g * 10 + static_cast<size_t>(text[i] - '0');
  }
  return g;
}

Plan MakePlan(const WorkloadSpec& spec) {
  const GeneratedWorkload generated = WorkloadGenerator(spec.gen).Generate();
  std::vector<std::pair<double, std::string>> keyed;
  keyed.reserve(generated.num_queries);
  Rng jitter(spec.gen.seed ^ 0x5eedc0de2024ULL);
  for (const WorkloadEvent& event : generated.events) {
    for (const std::string& text : event.texts) {
      const double key = static_cast<double>(GroupOf(text)) +
                         jitter.NextDouble() * spec.window_groups;
      keyed.emplace_back(key, text);
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Plan plan;
  plan.texts.reserve(keyed.size());
  for (auto& [key, text] : keyed) plan.texts.push_back(std::move(text));

  const size_t n = plan.texts.size();
  size_t next = 0;
  for (size_t call = 1; next < n; ++call) {
    Op op;
    auto every = [call](size_t k) { return k > 0 && call % k == 0; };
    if (every(spec.cancel_every)) {
      op.kind = Op::Kind::kCancelRecent;
    } else if (every(spec.cycle_every)) {
      op.kind = Op::Kind::kCycle;
    } else if (every(spec.flush_every)) {
      op.kind = Op::Kind::kFlush;
    } else if (every(kBatchEvery) && n - next >= kBatchSize) {
      op.kind = Op::Kind::kBatch;
      op.first = static_cast<uint32_t>(next);
      op.count = static_cast<uint32_t>(kBatchSize);
      next += kBatchSize;
    } else {
      op.kind = Op::Kind::kSubmit;
      op.first = static_cast<uint32_t>(next);
      op.count = 1;
      ++next;
    }
    plan.ops.push_back(op);
  }
  plan.ops.push_back(Op{});  // closing Flush settles every component
  return plan;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded by the benchmark's own shims and client loop
// ---------------------------------------------------------------------------

enum Layer : uint8_t {
  kLayerApi,              ///< a ClientSession call made by the client loop
  kLayerApiPoll,          ///< ClientSession::PollEvents
  kLayerApiRoute,         ///< session routing (SessionManager delivery hook)
  kLayerStorage,          ///< a call into the durability decorator
  kLayerStorageDelivery,  ///< the decorator's delivery hook
  kLayerSystem,           ///< a call into the sharded engine
  kNumLayers,
};
const char* const kLayerNames[kNumLayers] = {
    "api", "api.poll", "api.route", "storage", "storage.delivery", "system"};

enum CallKind : uint8_t {
  kCallSubmit,
  kCallBatch,
  kCallCancel,
  kCallFlush,
  kCallClose,
  kCallPoll,
  kCallDeliver,
  kNumCallKinds,
};
const char* const kCallNames[kNumCallKinds] = {
    "submit", "submit_batch", "cancel", "flush", "close", "poll", "deliver"};

struct Span {
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 at top level
  uint8_t layer = 0;
  uint8_t kind = 0;
};

class Tracer {
 public:
  int32_t Begin(Layer layer, CallKind kind) {
    const int32_t index = static_cast<int32_t>(spans_.size());
    Span span;
    span.parent = open_.empty() ? -1 : open_.back();
    span.layer = layer;
    span.kind = kind;
    open_.push_back(index);
    span.start = NowNs();
    spans_.push_back(span);
    return index;
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end = NowNs();
    open_.pop_back();
  }
  std::vector<Span>& spans() { return spans_; }
  void Clear() { spans_.clear(); }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, CallKind kind) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Begin(layer, kind);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_ = -1;
};

/// Pass-through CoordinationService that records one span per mutating
/// call and one per forwarded delivery.  Reads pass straight through.
class TracingShim : public CoordinationService {
 public:
  TracingShim(CoordinationService* inner, Tracer* tracer, Layer call_layer,
              Layer delivery_layer)
      : inner_(inner),
        tracer_(tracer),
        call_layer_(call_layer),
        delivery_layer_(delivery_layer) {}

  void set_delivery_callback(DeliveryCallback callback) override {
    if (!callback) {
      inner_->set_delivery_callback(nullptr);
      return;
    }
    inner_->set_delivery_callback(
        [this, callback = std::move(callback)](const Delivery& delivery) {
          ScopedSpan span(tracer_, delivery_layer_, kCallDeliver);
          callback(delivery);
        });
  }
  void set_evaluate_every(size_t n) override { inner_->set_evaluate_every(n); }
  Result<QueryId> Submit(const std::string& text) override {
    ScopedSpan span(tracer_, call_layer_, kCallSubmit);
    return inner_->Submit(text);
  }
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& texts) override {
    ScopedSpan span(tracer_, call_layer_, kCallBatch);
    return inner_->SubmitBatch(texts);
  }
  bool Cancel(QueryId id) override {
    ScopedSpan span(tracer_, call_layer_, kCallCancel);
    return inner_->Cancel(id);
  }
  size_t Flush() override {
    ScopedSpan span(tracer_, call_layer_, kCallFlush);
    return inner_->Flush();
  }
  std::vector<QueryId> PendingQueries() const override {
    return inner_->PendingQueries();
  }
  bool IsPending(QueryId id) const override { return inner_->IsPending(id); }
  size_t num_pending() const override { return inner_->num_pending(); }
  std::vector<QueryId> ComponentOf(QueryId id) const override {
    return inner_->ComponentOf(id);
  }
  bool AdmitsDeferred() const override { return inner_->AdmitsDeferred(); }
  EngineStats StatsSnapshot() const override { return inner_->StatsSnapshot(); }
  size_t IntakeDepth() const override { return inner_->IntakeDepth(); }
  ServiceGauges GaugesSnapshot() const override {
    return inner_->GaugesSnapshot();
  }
  void RestoreCadencePhase(size_t phase) override {
    inner_->RestoreCadencePhase(phase);
  }
  void set_session_tag(int64_t tag) override { inner_->set_session_tag(tag); }
  void AppendCounters(
      std::vector<std::pair<std::string, uint64_t>>* counters) const override {
    inner_->AppendCounters(counters);
  }

 private:
  CoordinationService* inner_;
  Tracer* tracer_;
  Layer call_layer_;
  Layer delivery_layer_;
};

// ---------------------------------------------------------------------------
// The stack under test
// ---------------------------------------------------------------------------

/// Members are declared in construction order, so destruction tears the
/// stack down from the sessions inward.  Destroying a durable stack
/// without a final snapshot is the benchmark's crash.
struct Stack {
  std::unique_ptr<ShardedCoordinationEngine> engine;
  std::unique_ptr<TracingShim> below;
  std::unique_ptr<DurableCoordinationService> durable;
  std::unique_ptr<TracingShim> above;
  std::unique_ptr<SessionManager> manager;

  /// Tears down from the sessions inward (move-assigning a fresh Stack
  /// would destroy the engine first).
  void Reset() {
    manager.reset();
    above.reset();
    durable.reset();
    below.reset();
    engine.reset();
  }
};

ShardedEngineOptions EngineOptionsFor(const WorkloadSpec& spec) {
  ShardedEngineOptions options;
  options.engine.evaluate_every = spec.evaluate_every;
  options.engine.flush_threads = 1;
  options.engine.intake_capacity = 0;
  options.shard_threads = 1;
  return options;
}

DurabilityOptions DurabilityFor(const WorkloadSpec& spec,
                                const std::string& dir) {
  DurabilityOptions options;
  options.dir = dir;
  // No fsync per record or flush.  Each snapshot rotation still makes
  // three: the outgoing WAL segment, the snapshot's temp file and the
  // directory (RoundCounts::Fsyncs counts them).
  options.fsync = FsyncPolicy::kNone;
  // Automatic snapshots every three quarters of a round's texts: the
  // timed rounds of a durable workload and every workload's
  // crash-recovery round rotate at least once.
  options.snapshot_every_events = spec.gen.num_queries * 3 / 4;
  options.initial_evaluate_every = spec.evaluate_every;
  return options;
}

/// Builds the stack; `dir` non-empty arms durability (an empty directory
/// gets the genesis snapshot).  `tracer` non-null inserts the shims.
Status BuildStack(const Database& db, const WorkloadSpec& spec,
                  const std::string& dir, Tracer* tracer, Stack* stack) {
  stack->engine =
      std::make_unique<ShardedCoordinationEngine>(&db, EngineOptionsFor(spec));
  CoordinationService* top = stack->engine.get();
  const bool durable = !dir.empty();
  if (tracer != nullptr) {
    stack->below = std::make_unique<TracingShim>(
        top, tracer, kLayerSystem,
        durable ? kLayerStorageDelivery : kLayerApiRoute);
    top = stack->below.get();
  }
  if (durable) {
    auto created =
        DurableCoordinationService::Create(top, &db, DurabilityFor(spec, dir));
    if (!created.ok()) return created.status();
    stack->durable = std::move(*created);
    top = stack->durable.get();
    if (tracer != nullptr) {
      stack->above = std::make_unique<TracingShim>(top, tracer, kLayerStorage,
                                                   kLayerApiRoute);
      top = stack->above.get();
    }
  }
  stack->manager = std::make_unique<SessionManager>(top);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// One round: the whole plan on a fresh stack
// ---------------------------------------------------------------------------

/// A resolved operation, replayable on a bare CoordinationEngine.
struct RefOp {
  enum class Kind : uint8_t { kSubmit, kBatch, kCancel, kFlush };
  Kind kind = Kind::kFlush;
  std::vector<uint32_t> texts;  ///< text indices (kSubmit / kBatch)
  QueryId cancel = -1;          ///< kCancel target
};

/// Deterministic counters of one round; every round must repeat them.
struct RoundCounts {
  EngineStats engine;
  ShardedStats sharded;
  WalStats wal;
  uint64_t snapshots = 0;
  uint64_t pending_peak = 0;  ///< traced rounds only

  /// fsync(2) calls: the WAL's own plus the two of each WriteSnapshot
  /// (the temp file, then the directory after the rename).
  uint64_t Fsyncs() const { return wal.fsyncs + 2 * snapshots; }

  std::vector<uint64_t> Vector() const {
    return {engine.submitted,         engine.cancelled,
            engine.evaluations,       engine.coordinated_queries,
            engine.coordinating_sets, engine.unsafe_components,
            engine.db_queries,        engine.eval_cache_hits,
            engine.evaluations_avoided, engine.rejected,
            sharded.shards_created,   sharded.shards_gced,
            sharded.group_merges,     sharded.queries_migrated,
            sharded.queries_retained, wal.appended_records,
            wal.bytes,                wal.fsyncs,
            snapshots};
  }
};

/// One round's latency samples (nanoseconds).
struct Samples {
  std::vector<int64_t> submit;    ///< per Submit / SubmitBatch call
  std::vector<int64_t> delivery;  ///< per coordinating set
};

struct RoundResult {
  double wall_s = 0;
  uint64_t texts_admitted = 0;
  uint64_t calls = 0;
  uint64_t failures = 0;
  std::string first_failure;
  uint64_t digest = 0;  ///< resolved operations + delivery log
  RoundCounts counts;
  uint64_t delivered_sets = 0;
  std::vector<QueryId> final_pending;  ///< when requested
  std::vector<double> snapshot_call_ms;  ///< traced durable rounds
};

class RoundRunner {
 public:
  RoundRunner(const WorkloadSpec& spec, const Plan& plan, Stack* stack,
              Tracer* tracer, Samples* samples, std::vector<RefOp>* record,
              std::vector<std::vector<QueryId>>* delivery_log)
      : spec_(spec),
        plan_(plan),
        stack_(stack),
        tracer_(tracer),
        samples_(samples),
        record_(record),
        delivery_log_(delivery_log) {
    // Resubmissions re-admit texts, so ids can outnumber texts.
    const size_t capacity = plan.texts.size() * 2 + 64;
    call_start_.assign(capacity, 0);
    pending_.assign(capacity, 0);
    text_of_.assign(capacity, 0);
    slot_of_.assign(capacity, 0);
    for (size_t i = 0; i < kSessions; ++i) sessions_.push_back(OpenSession());
  }

  /// Runs the first `op_limit` operations of the plan.
  RoundResult Run(size_t op_limit) {
    const int64_t start = NowNs();
    op_limit = std::min(op_limit, plan_.ops.size());
    for (size_t i = 0; i < op_limit; ++i) {
      Execute(plan_.ops[i]);
      if (++calls_since_poll_ >= kPollEvery) PollAll();
      if (tracer_ != nullptr) {
        pending_peak_ =
            std::max<uint64_t>(pending_peak_, stack_->engine->num_pending());
      }
    }
    PollAll();
    result_.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
    if (polled_events_ != pushed_events_) {
      Fail("sessions buffered " + std::to_string(pushed_events_) +
           " events but PollEvents drained " + std::to_string(polled_events_));
    }
    result_.digest = digest_;
    result_.counts.engine = stack_->engine->StatsSnapshot();
    result_.counts.sharded = stack_->engine->sharded_stats();
    if (stack_->durable != nullptr) {
      result_.counts.wal = stack_->durable->wal_stats();
      result_.counts.snapshots = stack_->durable->snapshot_count();
    }
    result_.counts.pending_peak = pending_peak_;
    result_.delivered_sets = static_cast<uint64_t>(last_sequence_ + 1);
    return std::move(result_);
  }

 private:
  void Fail(const std::string& message) {
    if (result_.failures++ == 0) result_.first_failure = message;
  }

  void Mix(uint64_t value) {
    digest_ ^= value + 0x9e3779b97f4a7c15ULL + (digest_ << 6) + (digest_ >> 2);
  }

  ClientSession* OpenSession() {
    ClientSession* session = stack_->manager->Open();
    session->set_event_callback(
        [this](const SessionEvent& event) { OnEvent(event); });
    return session;
  }

  /// Session push hook: the moment a set's event is buffered.
  void OnEvent(const SessionEvent& event) {
    ++pushed_events_;
    for (QueryId id : event.own_queries) pending_[static_cast<size_t>(id)] = 0;
    const Delivery& delivery = *event.delivery;
    const int64_t sequence = static_cast<int64_t>(delivery.sequence);
    if (sequence == last_sequence_) return;  // same set, another owner
    if (sequence != last_sequence_ + 1) {
      Fail("delivery sequence " + std::to_string(sequence) + " after " +
           std::to_string(last_sequence_));
    }
    last_sequence_ = sequence;
    // Members are ascending and ids follow arrival order, so the last
    // member is the last to arrive.
    const QueryId last = delivery.queries.back().id;
    if (samples_ != nullptr) {
      samples_->delivery.push_back(NowNs() -
                                   call_start_[static_cast<size_t>(last)]);
    }
    Mix(delivery.sequence);
    for (const DeliveredQuery& q : delivery.queries) Mix(static_cast<uint64_t>(q.id));
    if (delivery_log_ != nullptr) {
      std::vector<QueryId> ids;
      ids.reserve(delivery.queries.size());
      for (const DeliveredQuery& q : delivery.queries) ids.push_back(q.id);
      delivery_log_->push_back(std::move(ids));
    }
  }

  /// Pre-registers the ids a submission of `count` texts will receive:
  /// a delivery can fire inside the call, before the ids are returned.
  QueryId Preregister(const std::vector<uint32_t>& texts, size_t slot,
                      int64_t start) {
    const QueryId first = next_id_;
    for (uint32_t text : texts) {
      const size_t id = static_cast<size_t>(next_id_++);
      if (id >= pending_.size()) {
        call_start_.resize(id * 2, 0);
        pending_.resize(id * 2, 0);
        text_of_.resize(id * 2, 0);
        slot_of_.resize(id * 2, 0);
      }
      call_start_[id] = start;
      pending_[id] = 1;
      text_of_[id] = text;
      slot_of_[id] = static_cast<uint16_t>(slot);
    }
    return first;
  }

  void SubmitTexts(size_t slot, const std::vector<uint32_t>& texts) {
    ClientSession* session = sessions_[slot];
    const uint32_t count = static_cast<uint32_t>(texts.size());
    const bool batch = count > 1;
    ++result_.calls;
    result_.texts_admitted += count;
    const int32_t span =
        tracer_ != nullptr
            ? tracer_->Begin(kLayerApi, batch ? kCallBatch : kCallSubmit)
            : -1;
    const uint64_t snapshots_before =
        stack_->durable != nullptr ? stack_->durable->snapshot_count() : 0;
    const int64_t start = NowNs();
    const QueryId first = Preregister(texts, slot, start);
    bool ok = true;
    std::string error;
    if (batch) {
      std::vector<std::string> batch_texts;
      batch_texts.reserve(count);
      for (uint32_t t : texts) batch_texts.push_back(plan_.texts[t]);
      BatchOutcome outcome = session->SubmitBatch(batch_texts);
      const int64_t end = NowNs();
      if (samples_ != nullptr) samples_->submit.push_back(end - start);
      ok = outcome.ok() && outcome.ids.size() == count &&
           outcome.ids.front() == first;
      if (!ok) error = outcome.message;
    } else {
      SubmitOutcome outcome = session->Submit(plan_.texts[texts[0]]);
      const int64_t end = NowNs();
      if (samples_ != nullptr) samples_->submit.push_back(end - start);
      ok = outcome.ok() && outcome.id == first;
      if (!ok) error = outcome.message;
    }
    if (tracer_ != nullptr) {
      tracer_->End(span);
      if (stack_->durable != nullptr &&
          stack_->durable->snapshot_count() != snapshots_before) {
        RecordSnapshotCall(span);
      }
    }
    if (!ok) Fail("submission of query " + std::to_string(first) + " refused: " + error);
    if (record_ != nullptr) {
      RefOp op;
      op.kind = batch ? RefOp::Kind::kBatch : RefOp::Kind::kSubmit;
      op.texts = texts;
      record_->push_back(std::move(op));
    }
  }

  /// Duration of the storage span(s) directly under api span `api`.
  void RecordSnapshotCall(int32_t api) {
    const std::vector<Span>& spans = tracer_->spans();
    int64_t nanos = 0;
    for (size_t i = static_cast<size_t>(api) + 1; i < spans.size(); ++i) {
      if (spans[i].parent == api && spans[i].layer == kLayerStorage) {
        nanos += spans[i].end - spans[i].start;
      }
    }
    result_.snapshot_call_ms.push_back(static_cast<double>(nanos) * 1e-6);
  }

  void CancelQuery(QueryId id) {
    ClientSession* session = sessions_[slot_of_[static_cast<size_t>(id)]];
    ++result_.calls;
    bool cancelled = false;
    {
      ScopedSpan span(tracer_, kLayerApi, kCallCancel);
      cancelled = session->Cancel(id);
    }
    if (!cancelled) Fail("cancel of pending query " + std::to_string(id) + " refused");
    pending_[static_cast<size_t>(id)] = 0;
    Mix(0xcafeULL + static_cast<uint64_t>(id));
    if (record_ != nullptr) {
      RefOp op;
      op.kind = RefOp::Kind::kCancel;
      op.cancel = id;
      record_->push_back(std::move(op));
    }
  }

  void Flush() {
    ++result_.calls;
    {
      ScopedSpan span(tracer_, kLayerApi, kCallFlush);
      stack_->manager->Flush();
    }
    if (record_ != nullptr) record_->push_back(RefOp{});
  }

  /// Cancels every query still pending `timeout_arrivals` after it was
  /// admitted (the user gave up on it).
  void ExpireStale() {
    if (spec_.timeout_arrivals == 0) return;
    const QueryId horizon = next_id_ - static_cast<QueryId>(spec_.timeout_arrivals);
    for (; expire_cursor_ < horizon; ++expire_cursor_) {
      if (pending_[static_cast<size_t>(expire_cursor_)]) CancelQuery(expire_cursor_);
    }
  }

  void PollAll() {
    calls_since_poll_ = 0;
    for (ClientSession* session : sessions_) {
      ScopedSpan span(tracer_, kLayerApiPoll, kCallPoll);
      polled_events_ += session->PollEvents().size();
    }
  }

  void Execute(const Op& op) {
    switch (op.kind) {
      case Op::Kind::kSubmit:
      case Op::Kind::kBatch: {
        std::vector<uint32_t> texts(op.count);
        for (uint32_t i = 0; i < op.count; ++i) texts[i] = op.first + i;
        SubmitTexts(next_slot_++ % sessions_.size(), texts);
        break;
      }
      case Op::Kind::kCancelRecent: {
        // The most recent arrival still pending withdraws and retries.
        const QueryId floor = std::max<QueryId>(0, next_id_ - 16);
        for (QueryId id = next_id_ - 1; id >= floor; --id) {
          if (!pending_[static_cast<size_t>(id)]) continue;
          const size_t slot = slot_of_[static_cast<size_t>(id)];
          const uint32_t text = text_of_[static_cast<size_t>(id)];
          CancelQuery(id);
          SubmitTexts(slot, {text});
          break;
        }
        break;
      }
      case Op::Kind::kFlush:
        Flush();
        ExpireStale();
        break;
      case Op::Kind::kCycle: {
        // A client disconnects (its pending queries are cancelled) and
        // reconnects on a new session, re-posing what it still wanted.
        const size_t slot = next_cycle_++ % sessions_.size();
        ClientSession* old = sessions_[slot];
        {
          ScopedSpan span(tracer_, kLayerApiPoll, kCallPoll);
          polled_events_ += old->PollEvents().size();
        }
        const std::vector<QueryId> pending = old->PendingQueries();
        std::vector<uint32_t> texts;
        for (QueryId id : pending) {
          texts.push_back(text_of_[static_cast<size_t>(id)]);
          pending_[static_cast<size_t>(id)] = 0;
          Mix(0xc105eULL + static_cast<uint64_t>(id));
          if (record_ != nullptr) {
            RefOp cancel;
            cancel.kind = RefOp::Kind::kCancel;
            cancel.cancel = id;
            record_->push_back(std::move(cancel));
          }
        }
        ++result_.calls;
        {
          ScopedSpan span(tracer_, kLayerApi, kCallClose);
          old->Close();
        }
        sessions_[slot] = OpenSession();
        if (!texts.empty()) SubmitTexts(slot, texts);
        break;
      }
    }
  }

  const WorkloadSpec& spec_;
  const Plan& plan_;
  Stack* stack_;
  Tracer* tracer_;
  Samples* samples_;
  std::vector<RefOp>* record_;
  std::vector<std::vector<QueryId>>* delivery_log_;

  std::vector<ClientSession*> sessions_;
  std::vector<int64_t> call_start_;  ///< per id: start of its submit call
  std::vector<uint8_t> pending_;     ///< per id: pending as the client loop sees it
  std::vector<uint32_t> text_of_;    ///< per id: plan text index
  std::vector<uint16_t> slot_of_;    ///< per id: owning session slot
  QueryId next_id_ = 0;
  QueryId expire_cursor_ = 0;
  size_t next_slot_ = 0;
  size_t next_cycle_ = 0;
  size_t calls_since_poll_ = 0;
  int64_t last_sequence_ = -1;
  uint64_t pushed_events_ = 0;
  uint64_t polled_events_ = 0;
  uint64_t pending_peak_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  RoundResult result_;
};

// ---------------------------------------------------------------------------
// Correctness gate: the same resolved operations on a bare engine
// ---------------------------------------------------------------------------

std::string ReferenceCheck(const Database& db, const WorkloadSpec& spec,
                           const Plan& plan, const std::vector<RefOp>& ops,
                           const std::vector<std::vector<QueryId>>& observed,
                           const std::vector<QueryId>& observed_pending) {
  EngineOptions options;
  options.evaluate_every = spec.evaluate_every;
  CoordinationEngine engine(&db, options);
  std::vector<std::vector<QueryId>> log;
  engine.set_delivery_callback([&log](const Delivery& delivery) {
    log.push_back(delivery.QueryIds());
  });
  QueryId next_id = 0;
  for (const RefOp& op : ops) {
    switch (op.kind) {
      case RefOp::Kind::kSubmit: {
        auto id = engine.Submit(plan.texts[op.texts[0]]);
        if (!id.ok() || *id != next_id) return "reference refused a submission";
        ++next_id;
        break;
      }
      case RefOp::Kind::kBatch: {
        std::vector<std::string> texts;
        for (uint32_t t : op.texts) texts.push_back(plan.texts[t]);
        auto ids = engine.SubmitBatch(texts);
        if (!ids.ok() || ids->front() != next_id) {
          return "reference refused a batch";
        }
        next_id += static_cast<QueryId>(ids->size());
        break;
      }
      case RefOp::Kind::kCancel:
        if (!engine.Cancel(op.cancel)) {
          return "reference could not cancel query " + std::to_string(op.cancel);
        }
        break;
      case RefOp::Kind::kFlush:
        engine.Flush();
        break;
    }
  }
  if (log.size() != observed.size()) {
    return "stack delivered " + std::to_string(observed.size()) +
           " sets, reference " + std::to_string(log.size());
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (log[i] != observed[i]) {
      return "delivery " + std::to_string(i) + " differs from the reference";
    }
  }
  if (engine.PendingQueries() != observed_pending) {
    return "final pending set differs from the reference";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

struct RecoveryResult {
  double total_s = 0;
  double read_s = 0;    ///< ReadDurableState + BuildDatabaseFromSnapshot
  double replay_s = 0;  ///< stack construction + Recover
  uint64_t replayed_events = 0;
  uint64_t recovered_pending = 0;
  uint64_t fsyncs = 0;  ///< counted as in RoundCounts::Fsyncs
  std::string error;
};

RecoveryResult RecoverOnce(const WorkloadSpec& spec, const std::string& dir,
                           const std::vector<QueryId>& pre_crash_pending,
                           uint64_t delivered_sets) {
  RecoveryResult result;
  const int64_t t0 = NowNs();
  auto state = ReadDurableState(dir);
  if (!state.ok()) {
    result.error = "ReadDurableState: " + state.status().ToString();
    return result;
  }
  Database db;
  Status facts = BuildDatabaseFromSnapshot(state->snapshot, &db);
  if (!facts.ok()) {
    result.error = "BuildDatabaseFromSnapshot: " + facts.ToString();
    return result;
  }
  const int64_t t1 = NowNs();
  ShardedCoordinationEngine engine(&db, EngineOptionsFor(spec));
  auto durable =
      DurableCoordinationService::Create(&engine, &db, DurabilityFor(spec, dir));
  if (!durable.ok()) {
    result.error = "Create: " + durable.status().ToString();
    return result;
  }
  Status recovered = (*durable)->Recover(std::move(*state), nullptr);
  const int64_t t2 = NowNs();
  if (!recovered.ok()) {
    result.error = "Recover: " + recovered.ToString();
    return result;
  }
  result.read_s = static_cast<double>(t1 - t0) * 1e-9;
  result.replay_s = static_cast<double>(t2 - t1) * 1e-9;
  result.total_s = static_cast<double>(t2 - t0) * 1e-9;
  const RecoveryReport& report = (*durable)->recovery_report();
  result.replayed_events = report.replayed_events;
  result.recovered_pending = report.recovered_pending;
  result.fsyncs =
      (*durable)->wal_stats().fsyncs + 2 * (*durable)->snapshot_count();
  if (report.anomalies != 0) {
    result.error = "recovery anomalies: " + report.ToString();
  } else if (report.corruption_detected) {
    result.error = "corruption reported on a clean log: " + report.ToString();
  } else if (report.resumed_sequence != delivered_sets) {
    result.error = "resumed sequence " + std::to_string(report.resumed_sequence) +
                   " but " + std::to_string(delivered_sets) + " sets delivered";
  } else if ((*durable)->PendingQueries() != pre_crash_pending) {
    result.error = "recovered pending set differs from the pre-crash one";
  }
  return result;
}

// ---------------------------------------------------------------------------
// Reporting helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Indices of the quiet repeats of a run: the twentieth with the
/// smallest `seconds`, and at least three.  The host is shared, and
/// other tenants slow the whole machine by up to 40% for stretches of
/// seconds to minutes; thread CPU time slows with wall time, so it is
/// contention, not preemption.  Quiet spells can be as short as two
/// rounds.  Every repeat does identical work, so the quiet ones estimate
/// the undisturbed cost far more steadily than the median over every
/// repeat does, and a slower program is slower in all of them.
std::vector<size_t> QuietRepeats(const std::vector<double>& seconds) {
  std::vector<size_t> order(seconds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&seconds](size_t a, size_t b) { return seconds[a] < seconds[b]; });
  order.resize(std::min(order.size(), std::max<size_t>(3, order.size() / 20)));
  return order;
}

/// Median of `values` over the repeats `picked`.
double MedianOf(const std::vector<double>& values,
                const std::vector<size_t>& picked) {
  std::vector<double> chosen;
  chosen.reserve(picked.size());
  for (size_t i : picked) chosen.push_back(values[i]);
  return Median(std::move(chosen));
}

/// Median over the quiet repeats of those that took `seconds`.
double QuietMedian(const std::vector<double>& seconds) {
  return MedianOf(seconds, QuietRepeats(seconds));
}

/// Nearest-rank percentile.
template <typename T>
double Percentile(std::vector<T>* samples, double p) {
  if (samples->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(samples->size())));
  rank = std::min(std::max<size_t>(rank, 1), samples->size()) - 1;
  std::nth_element(samples->begin(), samples->begin() + static_cast<ptrdiff_t>(rank),
                   samples->end());
  return static_cast<double>((*samples)[rank]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Timings of the timed rounds.  Every round does identical work, so the
/// per-round sample counts are the same in every round.  A round makes
/// thousands of submit calls, so their percentiles are taken per round;
/// a `dense` round delivers only a couple of hundred sets, so delivery
/// samples are kept and pooled over the quiet rounds.
struct RoundTimes {
  std::vector<double> wall_s;
  std::vector<double> submit_p50_us, submit_p95_us;
  std::vector<std::vector<float>> delivery_us;
  uint64_t texts = 0;  ///< query texts admitted per round
  size_t submit_samples = 0;

  /// Records one round; `samples`, when given, are its latency samples.
  void Add(const RoundResult& round, Samples* samples) {
    wall_s.push_back(round.wall_s);
    texts = round.texts_admitted;
    if (samples == nullptr) return;
    submit_samples = samples->submit.size();
    submit_p50_us.push_back(Percentile(&samples->submit, 0.50) * 1e-3);
    submit_p95_us.push_back(Percentile(&samples->submit, 0.95) * 1e-3);
    std::vector<float> delivery;
    delivery.reserve(samples->delivery.size());
    for (int64_t ns : samples->delivery) {
      delivery.push_back(static_cast<float>(static_cast<double>(ns) * 1e-3));
    }
    delivery_us.push_back(std::move(delivery));
  }

  /// Query texts per second over the quiet rounds.
  double Qps() const {
    return Ratio(static_cast<double>(texts), QuietMedian(wall_s));
  }

  /// The delivery samples of the rounds `picked`, pooled.
  std::vector<float> PooledDeliveryUs(const std::vector<size_t>& picked) const {
    std::vector<float> pooled;
    for (size_t i : picked) {
      pooled.insert(pooled.end(), delivery_us[i].begin(), delivery_us[i].end());
    }
    return pooled;
  }
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer self times accumulated over traced rounds.
struct LayerTimes {
  // [layer][kind]: summed self time (ns), summed duration (ns), spans.
  double self_ns[kNumLayers][kNumCallKinds] = {};
  double dur_ns[kNumLayers][kNumCallKinds] = {};
  double count[kNumLayers][kNumCallKinds] = {};
  double top_level_ns = 0;
  double wall_ns = 0;

  void Add(const std::vector<Span>& spans, double wall_s) {
    std::vector<int64_t> child(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end - s.start);
      self_ns[s.layer][s.kind] += dur - static_cast<double>(child[i]);
      dur_ns[s.layer][s.kind] += dur;
      count[s.layer][s.kind] += 1;
      if (s.parent < 0) top_level_ns += dur;
    }
    wall_ns += wall_s * 1e9;
  }

  /// Mean self (or total) microseconds per span over the given kinds.
  double MeanUs(Layer layer, std::initializer_list<CallKind> kinds,
                bool self = true) const {
    double ns = 0, n = 0;
    for (CallKind k : kinds) {
      ns += self ? self_ns[layer][k] : dur_ns[layer][k];
      n += count[layer][k];
    }
    return Ratio(ns, n) * 1e-3;
  }
  double MeanUsAll(Layer layer, bool self = true) const {
    return MeanUs(layer,
                  {kCallSubmit, kCallBatch, kCallCancel, kCallFlush, kCallClose,
                   kCallPoll, kCallDeliver},
                  self);
  }
};

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return;
  out << "index\tparent\tlayer\tkind\tstart_ns\tend_ns\n";
  const int64_t base = spans.empty() ? 0 : spans.front().start;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t' << s.parent << '\t' << kLayerNames[s.layer] << '\t'
        << kCallNames[s.kind] << '\t' << (s.start - base) << '\t'
        << (s.end - base) << '\n';
  }
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  double scale = 1.0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--scale") {
      args->scale = std::strtod(value.c_str(), nullptr);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0 && args->scale > 0;
}

int Main(int argc, char** argv) {
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.seed, args.scale, &spec)) {
    std::fprintf(stderr,
                 "usage: coordbench --workload social|dense|durable --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] "
                 "[--scale F]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.work_dir.c_str());
    return 2;
  }
  uint64_t failed = 0;
  uint64_t attempted = 0;
  std::string first_failure;
  auto fail = [&](const std::string& message, uint64_t count = 1) {
    if (failed == 0) first_failure = message;
    failed += count;
  };
  size_t dir_counter = 0;
  auto fresh_dir = [&]() {
    const std::string dir =
        args.work_dir + "/store" + std::to_string(dir_counter++);
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return dir;
  };
  const int64_t run_start = NowNs();
  auto phase_done = [run_start](const char* phase) {
    std::fprintf(stderr, "coordbench: %s done at %.2f s\n", phase,
                 static_cast<double>(NowNs() - run_start) * 1e-9);
  };

  // ---- set-up: the first one here, the repeats interleaved with the
  // timed rounds below; setup_s is their quiet median ----
  std::vector<double> setup_s;
  auto set_up = [&](std::unique_ptr<Database>* db_out,
                    Plan* plan_out) -> std::string {
    const int64_t t0 = NowNs();
    auto fresh_db = std::make_unique<Database>();
    Status built = WorkloadGenerator(spec.gen).BuildDatabase(fresh_db.get());
    if (!built.ok()) return "database build: " + built.ToString();
    Plan fresh_plan = MakePlan(spec);
    Stack stack;
    const std::string dir = spec.durable ? fresh_dir() : std::string();
    Status stacked = BuildStack(*fresh_db, spec, dir, nullptr, &stack);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    stack.Reset();
    if (!dir.empty()) fs::remove_all(dir, ec);
    if (!stacked.ok()) return "stack construction: " + stacked.ToString();
    *db_out = std::move(fresh_db);
    *plan_out = std::move(fresh_plan);
    return "";
  };
  std::unique_ptr<Database> db;
  Plan plan;
  if (const std::string error = set_up(&db, &plan); !error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 1;
  }
  phase_done("set-up");

  // ---- warm-up round + correctness gate (untimed) ----
  struct RoundSetup {
    Tracer* tracer = nullptr;
    Samples* samples = nullptr;
    std::vector<RefOp>* record = nullptr;
    std::vector<std::vector<QueryId>>* log = nullptr;
    bool durable = false;
    bool want_pending = false;
    size_t op_limit = SIZE_MAX;
    std::string* keep_dir = nullptr;  ///< durable store kept for recovery
  };
  auto run_round = [&](const RoundSetup& setup) -> RoundResult {
    Stack stack;
    const std::string dir = setup.durable ? fresh_dir() : std::string();
    Status stacked = BuildStack(*db, spec, dir, setup.tracer, &stack);
    if (!stacked.ok()) {
      RoundResult broken;
      broken.failures = 1;
      broken.first_failure = "stack construction: " + stacked.ToString();
      return broken;
    }
    RoundResult result = RoundRunner(spec, plan, &stack, setup.tracer,
                                     setup.samples, setup.record, setup.log)
                             .Run(setup.op_limit);
    if (setup.want_pending) {
      result.final_pending = stack.manager->PendingQueries();
    }
    stack.Reset();  // for a durable stack this is the crash
    // Hand freed pages back, so peak_rss_mb follows live memory rather
    // than how each seed happens to fragment the heap.
    malloc_trim(0);
    if (setup.keep_dir != nullptr) {
      *setup.keep_dir = dir;
    } else if (setup.durable) {
      fs::remove_all(dir, ec);
    }
    return result;
  };

  std::vector<RefOp> ref_ops;
  std::vector<std::vector<QueryId>> observed;
  RoundSetup gate_setup;
  gate_setup.record = &ref_ops;
  gate_setup.log = &observed;
  gate_setup.durable = spec.durable;
  gate_setup.want_pending = true;
  RoundResult gate = run_round(gate_setup);
  attempted += gate.calls;
  if (gate.failures > 0) {
    fail("warm-up round: " + gate.first_failure, gate.failures);
  }
  {
    const std::string mismatch =
        ReferenceCheck(*db, spec, plan, ref_ops, observed, gate.final_pending);
    if (!mismatch.empty()) fail("reference: " + mismatch);
  }
  phase_done("correctness gate");
  const std::vector<uint64_t> gate_counts = gate.counts.Vector();
  auto check_round = [&](const RoundResult& round) {
    attempted += round.calls;
    if (round.failures > 0) fail(round.first_failure, round.failures);
    if (round.digest != gate.digest) fail("a round's deliveries differ from the first round's");
    if (round.counts.Vector() != gate_counts) fail("a round's counters differ from the first round's");
  };

  // ---- the crashed store every recovery starts from.  The crash lands
  // 90% of the way through the plan, with queries still pending and a
  // WAL tail past the last automatic snapshot. ----
  std::string crashed_dir;
  RoundSetup crash;
  crash.durable = true;
  crash.want_pending = true;
  crash.op_limit = plan.ops.size() * 9 / 10;
  crash.keep_dir = &crashed_dir;
  RoundResult crashed = run_round(crash);
  attempted += crashed.calls;
  if (crashed.failures > 0) {
    fail("durable round: " + crashed.first_failure, crashed.failures);
  }
  std::vector<double> recover_s, recover_read_s, recover_replay_s;
  RecoveryResult recovery;
  auto recover_once = [&]() {
    const std::string copy = args.work_dir + "/recover";
    fs::remove_all(copy, ec);
    fs::copy(crashed_dir, copy, fs::copy_options::recursive, ec);
    ++attempted;
    if (ec) {
      fail("cannot copy the crashed store: " + ec.message());
      return;
    }
    recovery = RecoverOnce(spec, copy, crashed.final_pending,
                           crashed.delivered_sets);
    if (!recovery.error.empty()) fail("recovery: " + recovery.error);
    recover_s.push_back(recovery.total_s);
    recover_read_s.push_back(recovery.read_s);
    recover_replay_s.push_back(recovery.replay_s);
    fs::remove_all(copy, ec);
  };
  // Between two timed rounds comes one recovery or one more set-up, in
  // turn, so their repeats spread over the same stretch of time as the
  // rounds and meet the same quiet spells.
  size_t between = 0;
  auto between_rounds = [&]() {
    if (between++ % 2 == 0) {
      recover_once();
      return;
    }
    ++attempted;
    std::unique_ptr<Database> spare_db;
    Plan spare_plan;
    const std::string error = set_up(&spare_db, &spare_plan);
    if (!error.empty()) fail("set-up: " + error);
  };
  phase_done("crash");

  // ---- timed rounds; every timing is reported over the quiet rounds
  // (QuietRepeats). ----
  RoundTimes untraced_times;
  RoundTimes traced_times;
  LayerTimes layers;
  Tracer tracer;
  std::vector<Span> last_spans;
  std::vector<double> snapshot_call_ms;
  uint64_t pending_peak = 0;
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const int64_t untraced_deadline =
      NowNs() + static_cast<int64_t>(untraced_budget * 1e9);
  RoundSetup timed;
  timed.durable = spec.durable;
  do {
    Samples samples;
    timed.samples = &samples;
    RoundResult round = run_round(timed);
    check_round(round);
    untraced_times.Add(round, &samples);
    between_rounds();
  } while (NowNs() < untraced_deadline);
  if (args.trace) {
    const int64_t traced_deadline =
        NowNs() + static_cast<int64_t>(args.seconds / 2 * 1e9);
    RoundSetup traced;
    traced.durable = spec.durable;
    traced.tracer = &tracer;
    do {
      tracer.Clear();
      RoundResult round = run_round(traced);
      check_round(round);
      traced_times.Add(round, nullptr);
      layers.Add(tracer.spans(), round.wall_s);
      snapshot_call_ms.insert(snapshot_call_ms.end(),
                              round.snapshot_call_ms.begin(),
                              round.snapshot_call_ms.end());
      pending_peak = round.counts.pending_peak;
      between_rounds();
    } while (NowNs() < traced_deadline);
    last_spans = std::move(tracer.spans());
  }
  // Short runs (the benchmark's own tests) still repeat each a few times.
  while (setup_s.size() < kMinRepeats || recover_s.size() < kMinRepeats) {
    between_rounds();
  }
  phase_done("timed rounds");

  // ---- separate parse pass (traced runs): mean ParseQuery per text ----
  double parse_us = 0;
  if (args.trace) {
    std::vector<double> per_text;
    for (int rep = 0; rep < 5; ++rep) {
      QuerySet set;
      const int64_t t0 = NowNs();
      for (const std::string& text : plan.texts) {
        if (!ParseQuery(text, &set).ok()) {
          fail("workload text failed to parse");
          break;
        }
      }
      per_text.push_back(static_cast<double>(NowNs() - t0) * 1e-3 /
                         static_cast<double>(plan.texts.size()));
    }
    parse_us = Median(per_text);
  }
  if (!args.trace_out.empty() && !last_spans.empty()) {
    WriteSpans(args.trace_out, last_spans);
  }
  fs::remove_all(args.work_dir, ec);

  // ---- report ----
  const RoundCounts& counts = gate.counts;
  const EngineStats& es = counts.engine;
  const double untraced_qps = untraced_times.Qps();
  std::vector<Metric> metrics;
  std::printf("round_qps");
  for (double wall : untraced_times.wall_s) {
    std::printf(" %.0f", Ratio(static_cast<double>(untraced_times.texts), wall));
  }
  std::printf(" | traced");
  for (double wall : traced_times.wall_s) {
    std::printf(" %.0f", Ratio(static_cast<double>(traced_times.texts), wall));
  }
  std::printf("\n");
  std::printf("coordbench workload=%s seed=%" PRIu64 " texts=%zu ops=%zu "
              "rounds=%zu traced_rounds=%zu\n",
              spec.name.c_str(), args.seed, plan.texts.size(), plan.ops.size(),
              untraced_times.wall_s.size(), traced_times.wall_s.size());
  if (!args.trace) {
    const std::vector<size_t> quiet = QuietRepeats(untraced_times.wall_s);
    std::vector<float> delivery = untraced_times.PooledDeliveryUs(quiet);
    metrics = {
        {"throughput_qps", untraced_qps, "q/s"},
        {"submit_p50_us", MedianOf(untraced_times.submit_p50_us, quiet), "us"},
        {"submit_p95_us", MedianOf(untraced_times.submit_p95_us, quiet), "us"},
        {"delivery_p50_us", Percentile(&delivery, 0.50), "us"},
        {"delivery_p95_us", Percentile(&delivery, 0.95), "us"},
        {"setup_s", QuietMedian(setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"recover_s", QuietMedian(recover_s), "s"},
    };
    std::printf("quiet rounds: %zu of %zu; submit percentiles per round "
                "(%zu samples, %zu beyond p95), median over the quiet "
                "rounds; delivery percentiles pooled over the quiet rounds "
                "(%zu samples, %zu beyond p95)\n",
                quiet.size(), untraced_times.wall_s.size(),
                untraced_times.submit_samples,
                untraced_times.submit_samples / 20, delivery.size(),
                delivery.size() / 20);
    std::printf("failed_ratio %.6g (failed %" PRIu64 " of %" PRIu64 ")\n",
                Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                failed, attempted);
  } else {
    const double traced_qps = traced_times.Qps();
    const double queries = static_cast<double>(es.submitted);
    metrics = {
        {"api.submit_self_us", layers.MeanUs(kLayerApi, {kCallSubmit, kCallBatch}), "us"},
        {"api.route_us", layers.MeanUsAll(kLayerApiRoute, false), "us"},
        {"api.poll_us", layers.MeanUsAll(kLayerApiPoll, false), "us"},
        {"core.parse_us", parse_us, "us"},
        {"storage.append_self_us", layers.MeanUsAll(kLayerStorage), "us"},
        {"storage.delivery_self_us", layers.MeanUsAll(kLayerStorageDelivery), "us"},
        {"storage.snapshot_ms", Median(snapshot_call_ms), "ms"},
        {"wal.appended_records", static_cast<double>(counts.wal.appended_records), "count"},
        {"wal.bytes", static_cast<double>(counts.wal.bytes), "bytes"},
        {"storage.wal_bytes_per_query", Ratio(static_cast<double>(counts.wal.bytes), queries), "bytes"},
        {"snapshot.count", static_cast<double>(counts.snapshots), "count"},
        {"storage.fsyncs", static_cast<double>(counts.Fsyncs()), "count"},
        {"storage.recover_read_s", MedianOf(recover_read_s, QuietRepeats(recover_s)), "s"},
        {"storage.recover_replay_s", MedianOf(recover_replay_s, QuietRepeats(recover_s)), "s"},
        {"recovery.replayed_events", static_cast<double>(recovery.replayed_events), "count"},
        {"recovery.recovered_pending", static_cast<double>(recovery.recovered_pending), "count"},
        {"recovery.fsyncs", static_cast<double>(recovery.fsyncs), "count"},
        {"system.submit_self_us", layers.MeanUs(kLayerSystem, {kCallSubmit, kCallBatch}), "us"},
        {"system.flush_self_us", layers.MeanUs(kLayerSystem, {kCallFlush}), "us"},
        {"system.cancel_self_us", layers.MeanUs(kLayerSystem, {kCallCancel}), "us"},
        {"system.pending_peak", static_cast<double>(pending_peak), "count"},
        {"sharded.shards_created", static_cast<double>(counts.sharded.shards_created), "count"},
        {"sharded.shards_gced", static_cast<double>(counts.sharded.shards_gced), "count"},
        {"sharded.group_merges", static_cast<double>(counts.sharded.group_merges), "count"},
        {"sharded.queries_migrated", static_cast<double>(counts.sharded.queries_migrated), "count"},
        {"sharded.queries_retained", static_cast<double>(counts.sharded.queries_retained), "count"},
        {"algo.evaluations", static_cast<double>(es.evaluations), "count"},
        {"algo.eval_s", static_cast<double>(es.eval_latency.total_ns()) * 1e-9, "s"},
        {"algo.evaluations_avoided", static_cast<double>(es.evaluations_avoided), "count"},
        {"algo.eval_cache_hits", static_cast<double>(es.eval_cache_hits), "count"},
        {"algo.avoided_ratio", Ratio(static_cast<double>(es.evaluations_avoided), static_cast<double>(es.evaluations + es.evaluations_avoided)), "ratio"},
        {"algo.unsafe_components", static_cast<double>(es.unsafe_components), "count"},
        {"db.queries", static_cast<double>(es.db_queries), "count"},
        {"db.queries_per_coordinated", Ratio(static_cast<double>(es.db_queries), static_cast<double>(es.coordinated_queries)), "ratio"},
        {"engine.coordinated_queries", static_cast<double>(es.coordinated_queries), "count"},
        {"engine.coordinating_sets", static_cast<double>(es.coordinating_sets), "count"},
        {"engine.yield", Ratio(static_cast<double>(es.coordinated_queries), queries), "ratio"},
        {"trace.overhead_frac", 1.0 - Ratio(traced_qps, untraced_qps), "ratio"},
        {"trace.accounted_frac", Ratio(layers.top_level_ns, layers.wall_ns), "ratio"},
    };
    std::printf("traced_qps %.6g untraced_qps %.6g\n", traced_qps, untraced_qps);
  }
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (failed > 0) {
    std::printf("FAILED: %" PRIu64 " failure(s); first: %s\n", failed,
                first_failure.c_str());
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace entangled

int main(int argc, char** argv) { return entangled::Main(argc, argv); }
