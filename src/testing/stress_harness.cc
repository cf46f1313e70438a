#include "testing/stress_harness.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "api/session.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/parser.h"
#include "core/validator.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "testing/reference_coordinator.h"

namespace entangled {
namespace {

constexpr uint64_t kPermutationSalt = 0x9e37be7a5a17ULL;
constexpr uint64_t kRowShuffleSalt = 0x205bade5eedULL;

std::string IdsToString(const std::vector<QueryId>& ids) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < ids.size(); ++i) {
    out << (i == 0 ? "" : ",") << ids[i];
  }
  out << "}";
  return out.str();
}

std::string LogToString(const std::vector<Delivery>& log) {
  std::ostringstream out;
  for (const Delivery& d : log) out << IdsToString(d.QueryIds()) << " ";
  return out.str();
}

/// Empty when two deliveries agree on every field; otherwise names the
/// first field that differs.
std::string DeliveryDiff(const Delivery& a, const Delivery& b) {
  if (a.sequence != b.sequence) return "sequence numbers";
  if (a.QueryIds() != b.QueryIds()) return "coordinating sets";
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const DeliveredQuery& x = a.queries[i];
    const DeliveredQuery& y = b.queries[i];
    const std::string which = " of query " + std::to_string(x.id);
    if (x.name != y.name) return "names" + which;
    if (x.text != y.text) return "texts" + which;
    if (x.answers != y.answers) return "grounded answers" + which;
    if (x.witness != y.witness) return "witness" + which;
  }
  return "";
}

/// Empty when `renamed`'s witness is `base`'s under the symbol-renaming
/// metamorphic relation: the same variables in the same order, integers
/// untouched, every string prefixed with "Rn".
std::string RenamedWitnessMismatch(const DeliveredQuery& base,
                                   const DeliveredQuery& renamed) {
  if (base.witness.size() != renamed.witness.size()) {
    return "witness arity changed";
  }
  for (size_t k = 0; k < base.witness.size(); ++k) {
    const auto& [name, value] = base.witness[k];
    const auto& [other_name, other] = renamed.witness[k];
    if (name != other_name) {
      return "witness variable " + name + " became " + other_name;
    }
    if (value.is_int()) {
      if (other != value) return "integer witness value changed";
    } else if (!other.is_string() ||
               other.AsString() != "Rn" + value.AsString()) {
      return "string witness '" + value.AsString() +
             "' did not map to its renamed form";
    }
  }
  return "";
}

/// The Definition-1 master for a replay: every submitted text parsed in
/// submission order, which is exactly how a single engine allocates
/// query ids — so any service's deliveries validate against it,
/// including the sharded front door, which keeps no master set.  Stops
/// at the first text that fails to parse (the replay itself reports
/// that rejection).
QuerySet ParseSubmitted(const std::vector<WorkloadEvent>& events) {
  QuerySet master;
  for (const WorkloadEvent& event : events) {
    for (const std::string& text : event.texts) {
      if (!ParseQuery(text, &master).ok()) return master;
    }
  }
  return master;
}

/// One configuration a scenario is replayed on: the from-scratch
/// oracle, an incremental CoordinationEngine, or the sharded front
/// door.
struct EngineVariant {
  bool reference = false;
  bool sharded = false;
  EngineOptions engine;
  size_t shard_threads = 1;  ///< sharded only
};

EngineVariant OracleVariant() {
  EngineVariant variant;
  variant.reference = true;
  return variant;
}

EngineVariant IncrementalVariant(size_t threads,
                                 const EngineFaultInjection& fault,
                                 size_t intake_capacity = 0) {
  EngineVariant variant;
  variant.engine.evaluate_every = 1;
  variant.engine.flush_threads = threads;
  variant.engine.intake_capacity = intake_capacity;
  variant.engine.fault = fault;
  return variant;
}

EngineVariant ShardedVariant(size_t shard_threads,
                             const EngineFaultInjection& fault) {
  EngineVariant variant;
  variant.sharded = true;
  variant.engine.evaluate_every = 1;
  variant.engine.fault = fault;
  variant.shard_threads = shard_threads;
  return variant;
}

/// The pending set partitioned by ComponentOf, called once per
/// component (on its smallest member).
std::vector<std::vector<QueryId>> PartitionByComponentOf(
    const CoordinationService& service) {
  std::vector<std::vector<QueryId>> components;
  std::unordered_set<QueryId> covered;
  for (QueryId q : service.PendingQueries()) {
    if (covered.count(q) > 0) continue;
    components.push_back(service.ComponentOf(q));
    covered.insert(components.back().begin(), components.back().end());
  }
  return components;
}

std::unique_ptr<CoordinationService> MakeEngine(const Database& db,
                                                const EngineVariant& variant) {
  if (variant.reference) return std::make_unique<ReferenceCoordinator>(&db);
  if (variant.sharded) {
    ShardedEngineOptions options;
    options.engine = variant.engine;
    options.shard_threads = variant.shard_threads;
    return std::make_unique<ShardedCoordinationEngine>(&db, options);
  }
  return std::make_unique<CoordinationEngine>(&db, variant.engine);
}

/// Replays the event stream on one engine, validating every delivery
/// against Definition 1 as it lands.
StressReplay Replay(const Database& db, const EngineVariant& variant,
                    const std::vector<WorkloadEvent>& events) {
  std::unique_ptr<CoordinationService> engine = MakeEngine(db, variant);
  const QuerySet master = ParseSubmitted(events);
  StressReplay run;
  engine->set_delivery_callback([&](const Delivery& delivery) {
    if (delivery.sequence != run.log.size() && run.error.empty()) {
      run.error = "delivery sequence " + std::to_string(delivery.sequence) +
                  " but " + std::to_string(run.log.size()) +
                  " deliveries observed before it";
    }
    auto solution = SolutionFromDelivery(master, delivery);
    Status valid = solution.ok() ? ValidateSolution(db, master, *solution)
                                 : solution.status();
    if (!valid.ok() && run.error.empty()) {
      run.error = "delivery " + IdsToString(delivery.QueryIds()) +
                  " failed Definition-1 validation: " + valid.ToString();
    }
    run.log.push_back(delivery);
  });
  std::string replay_error = ReplayWorkloadEvents(engine.get(), events);
  if (!replay_error.empty() && run.error.empty()) run.error = replay_error;
  run.final_pending = engine->PendingQueries();
  run.pending_count = engine->num_pending();
  // The oracle rebuilds its graph once for the whole partition, not
  // once per component.
  run.components =
      variant.reference
          ? static_cast<const ReferenceCoordinator&>(*engine).Components()
          : PartitionByComponentOf(*engine);
  run.stats = engine->StatsSnapshot();
  return run;
}

// ---------------------------------------------------------------------------
// Session front-door replay: the same event stream driven through a
// SessionManager, with submissions round-robined across N sessions.
// ---------------------------------------------------------------------------

/// One session event deep-copied at observation time, so the push
/// stream and the PollEvents() drain can be compared byte for byte.
struct ObservedEvent {
  Delivery delivery;         ///< the whole coordinating set's event
  std::vector<QueryId> own;  ///< the observing session's slice
};

ObservedEvent ObserveEvent(const SessionEvent& event) {
  return ObservedEvent{*event.delivery, event.own_queries};
}

bool ObservedEqual(const ObservedEvent& a, const ObservedEvent& b) {
  return a.own == b.own && DeliveryDiff(a.delivery, b.delivery).empty();
}

struct SessionReplayRun {
  StressReplay flat;  ///< the sessions' merged view, oracle-comparable
  std::string error;  ///< session-layer divergence (push vs poll, ...)
};

/// Bookkeeping of a quota-armed session replay: the filtered stream an
/// oracle can be fed (accepted submissions only; cancels stay
/// rank-addressed, which resolves identically because the pending sets
/// agree), plus the bounce accounting the caller cross-checks against
/// the manager's metrics snapshot.
struct QuotaObservations {
  std::vector<WorkloadEvent> accepted;
  size_t bounced_calls = 0;  ///< Submit/SubmitBatch calls refused
  size_t bounced_texts = 0;  ///< query texts those calls carried
  uint64_t counted = 0;      ///< manager metric "reject.quota_pending"
};

uint64_t FindCounter(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

/// Replays `events` through a SessionManager over the given engine
/// variant.  Checks internal to the session layer (push-vs-poll
/// equality, pending tiling, cross-session event consistency) land in
/// `error`; the merged stream lands in `flat` for the oracle
/// differential.  When `quota` is non-null the sessions run with
/// `session_options` armed and typed kQuotaPending bounces are recorded
/// instead of failing the replay (any *other* rejection still fails).
SessionReplayRun ReplayThroughSessions(const Database& db,
                                       const EngineVariant& variant,
                                       const std::vector<WorkloadEvent>& events,
                                       size_t session_count,
                                       const SessionOptions& session_options =
                                           SessionOptions{},
                                       QuotaObservations* quota = nullptr) {
  SessionReplayRun run;
  std::unique_ptr<CoordinationService> engine = MakeEngine(db, variant);
  SessionManager manager(engine.get());
  std::vector<ClientSession*> sessions;
  std::vector<std::vector<ObservedEvent>> pushed(session_count);
  sessions.reserve(session_count);
  for (size_t i = 0; i < session_count; ++i) {
    sessions.push_back(manager.Open(session_options));
    sessions.back()->set_event_callback([&pushed, i](const SessionEvent& e) {
      pushed[i].push_back(ObserveEvent(e));
    });
  }

  auto fail = [&run](std::string message) {
    if (run.error.empty()) run.error = std::move(message);
  };
  auto accept = [&quota](const WorkloadEvent& event) {
    if (quota != nullptr) quota->accepted.push_back(event);
  };
  auto bounce = [&quota, &fail](RejectReason reason, const std::string& message,
                                size_t texts) {
    if (quota == nullptr || reason != RejectReason::kQuotaPending) {
      fail(std::string("session rejected a generated submission (") +
           RejectReasonName(reason) + "): " + message);
      return;
    }
    ++quota->bounced_calls;
    quota->bounced_texts += texts;
  };

  size_t next_session = 0;
  for (const WorkloadEvent& event : events) {
    if (!run.error.empty()) break;
    switch (event.kind) {
      case WorkloadEvent::Kind::kSubmit: {
        ClientSession* s = sessions[next_session++ % session_count];
        SubmitOutcome outcome = s->Submit(event.texts.front());
        if (outcome.ok()) {
          accept(event);
        } else {
          bounce(outcome.reason, outcome.message, 1);
        }
        break;
      }
      case WorkloadEvent::Kind::kSubmitBatch: {
        ClientSession* s = sessions[next_session++ % session_count];
        BatchOutcome outcome = s->SubmitBatch(event.texts);
        if (outcome.ok()) {
          accept(event);
        } else {
          bounce(outcome.reason, outcome.message, event.texts.size());
        }
        break;
      }
      case WorkloadEvent::Kind::kCancel: {
        // Same rank addressing as the service-level replay, resolved to
        // the owning session: streams stay aligned while engines agree
        // (under a quota the filtered-oracle pending set matches this
        // run's, so the rank resolves to the same query there too).
        accept(event);
        std::vector<QueryId> pending = manager.PendingQueries();
        if (pending.empty()) break;
        const QueryId gid = pending[event.cancel_rank % pending.size()];
        const SessionId owner = manager.OwnerOf(gid);
        if (owner < 0) {
          fail("pending query " + std::to_string(gid) + " has no owner");
          break;
        }
        if (!manager.Find(owner)->Cancel(gid)) {
          fail("owner session refused to cancel pending query " +
               std::to_string(gid));
        }
        break;
      }
      case WorkloadEvent::Kind::kSetEvaluateEvery:
        accept(event);
        manager.set_evaluate_every(event.evaluate_every);
        break;
      case WorkloadEvent::Kind::kFlush:
        accept(event);
        manager.Flush();
        break;
    }
  }
  if (quota != nullptr) {
    quota->counted = FindCounter(manager.Metrics(), "reject.quota_pending");
  }

  // Settle any queued submissions before the final accounting: the
  // drain routes trailing deliveries through OnDelivery, so the
  // per-session event buffers and pending sets read below are final.
  manager.num_pending();

  // Drain every session and hold the two consumption modes to the same
  // stream, then merge the per-session views back into one delivery
  // log (sessions sharing a coordinating set observe the same event).
  std::map<uint64_t, Delivery> merged;
  std::unordered_set<QueryId> session_pending_union;
  for (size_t i = 0; i < session_count; ++i) {
    ClientSession* s = sessions[i];
    std::vector<SessionEvent> polled = s->PollEvents();
    if (polled.size() != pushed[i].size()) {
      fail("session " + std::to_string(s->id()) + ": push callback saw " +
           std::to_string(pushed[i].size()) + " events but PollEvents() " +
           "drained " + std::to_string(polled.size()));
    }
    for (size_t j = 0; j < polled.size() && run.error.empty(); ++j) {
      if (polled[j].session != s->id()) {
        fail("session " + std::to_string(s->id()) +
             " drained an event routed to session " +
             std::to_string(polled[j].session));
        break;
      }
      ObservedEvent drained = ObserveEvent(polled[j]);
      if (!ObservedEqual(pushed[i][j], drained)) {
        fail("session " + std::to_string(s->id()) + " event " +
             std::to_string(j) +
             ": push stream and PollEvents() drain diverged");
        break;
      }
      if (drained.own.empty()) {
        fail("session " + std::to_string(s->id()) +
             " received an event containing none of its queries");
        break;
      }
      const uint64_t sequence = drained.delivery.sequence;
      auto [it, inserted] = merged.emplace(sequence, drained.delivery);
      if (!inserted && !DeliveryDiff(it->second, drained.delivery).empty()) {
        fail("sessions disagree about delivery sequence " +
             std::to_string(sequence) + ": " +
             DeliveryDiff(it->second, drained.delivery) + " differ");
        break;
      }
    }
    const std::vector<QueryId> session_pending = s->PendingQueries();
    if (session_pending.size() != s->num_pending()) {
      fail("session " + std::to_string(s->id()) + " num_pending()=" +
           std::to_string(s->num_pending()) + " but enumerated " +
           std::to_string(session_pending.size()));
    }
    for (QueryId q : session_pending) {
      if (!session_pending_union.insert(q).second) {
        fail("query " + std::to_string(q) +
             " pending in two sessions at once");
      }
    }
  }

  // The sessions' pending sets must tile the service's pending set.
  run.flat.final_pending = manager.PendingQueries();
  run.flat.pending_count = manager.num_pending();
  run.flat.stats = manager.StatsSnapshot();
  if (run.error.empty() &&
      session_pending_union.size() != run.flat.final_pending.size()) {
    fail("sessions hold " + std::to_string(session_pending_union.size()) +
         " pending queries but the service holds " +
         std::to_string(run.flat.final_pending.size()));
  }
  for (QueryId q : run.flat.final_pending) {
    if (!run.error.empty()) break;
    if (session_pending_union.count(q) == 0) {
      fail("service-pending query " + std::to_string(q) +
           " is pending in no session");
    }
  }

  uint64_t expected_sequence = 0;
  for (auto& [sequence, delivery] : merged) {
    if (sequence != expected_sequence++ && run.error.empty()) {
      fail("delivery sequences are not contiguous at " +
           std::to_string(sequence));
    }
    run.flat.log.push_back(std::move(delivery));
  }
  run.flat.error = run.error;
  return run;
}

/// Engine-internal bookkeeping must agree with the observed log.
std::string CheckInvariants(const std::string& label,
                            const StressReplay& run) {
  if (!run.error.empty()) return label + ": " + run.error;
  const EngineStats& s = run.stats;
  if (run.pending_count != run.final_pending.size()) {
    return label + ": num_pending()=" + std::to_string(run.pending_count) +
           " but PendingQueries() enumerated " +
           std::to_string(run.final_pending.size());
  }
  size_t delivered_queries = 0;
  std::unordered_set<QueryId> seen;
  for (const Delivery& d : run.log) {
    delivered_queries += d.queries.size();
    for (QueryId q : d.QueryIds()) {
      if (!seen.insert(q).second) {
        return label + ": query " + std::to_string(q) +
               " delivered in two coordinating sets";
      }
    }
  }
  if (s.coordinating_sets != run.log.size()) {
    return label + ": stats.coordinating_sets=" +
           std::to_string(s.coordinating_sets) + " but " +
           std::to_string(run.log.size()) + " deliveries observed";
  }
  if (s.coordinated_queries != delivered_queries) {
    return label + ": stats.coordinated_queries=" +
           std::to_string(s.coordinated_queries) + " but deliveries retired " +
           std::to_string(delivered_queries) + " queries";
  }
  const int64_t submitted = static_cast<int64_t>(s.submitted);
  const int64_t cancelled = static_cast<int64_t>(s.cancelled);
  const int64_t coordinated = static_cast<int64_t>(s.coordinated_queries);
  if (coordinated > submitted - cancelled) {
    return label + ": coordinated_queries=" + std::to_string(coordinated) +
           " exceeds submitted-cancelled=" +
           std::to_string(submitted - cancelled);
  }
  if (static_cast<int64_t>(run.final_pending.size()) !=
      submitted - cancelled - coordinated) {
    return label + ": " + std::to_string(run.final_pending.size()) +
           " pending but submitted-cancelled-coordinated=" +
           std::to_string(submitted - cancelled - coordinated);
  }
  return "";
}

/// Byte-level differential: the same deliveries, whole, in the same
/// order.
std::string CompareRuns(const std::string& a_label, const StressReplay& a,
                        const std::string& b_label, const StressReplay& b) {
  if (a.log.size() != b.log.size()) {
    return b_label + " delivered " + std::to_string(b.log.size()) +
           " coordinating sets, " + a_label + " delivered " +
           std::to_string(a.log.size()) + "\n  " + a_label + ": " +
           LogToString(a.log) + "\n  " + b_label + ": " + LogToString(b.log);
  }
  for (size_t i = 0; i < a.log.size(); ++i) {
    const std::vector<QueryId> a_ids = a.log[i].QueryIds();
    if (a_ids != b.log[i].QueryIds()) {
      return "delivery " + std::to_string(i) + " diverged: " + a_label +
             " retired " + IdsToString(a_ids) + ", " + b_label +
             " retired " + IdsToString(b.log[i].QueryIds());
    }
    const std::string field = DeliveryDiff(a.log[i], b.log[i]);
    if (!field.empty()) {
      return "delivery " + std::to_string(i) + " " + IdsToString(a_ids) +
             ": " + field + " differ between " + a_label + " and " + b_label;
    }
  }
  if (a.final_pending != b.final_pending) {
    return "final pending sets diverged: " + a_label + " " +
           IdsToString(a.final_pending) + ", " + b_label + " " +
           IdsToString(b.final_pending);
  }
  if (a.stats.cancelled != b.stats.cancelled) {
    return "cancellation counts diverged: " + a_label + " " +
           std::to_string(a.stats.cancelled) + ", " + b_label + " " +
           std::to_string(b.stats.cancelled);
  }
  return "";
}

/// The component partition must match the oracle's: a union-find or
/// repartition bug shows here before it changes any delivery.  Call
/// after CompareRuns, which already equated the pending sets.
std::string ComparePartitions(const StressReplay& oracle,
                              const std::string& label,
                              const StressReplay& run) {
  const size_t n = std::min(oracle.components.size(), run.components.size());
  for (size_t i = 0; i < n; ++i) {
    if (oracle.components[i] != run.components[i]) {
      return label + ": ComponentOf(" +
             std::to_string(oracle.components[i].front()) + ") diverged: " +
             "oracle " + IdsToString(oracle.components[i]) + ", " + label +
             " " + IdsToString(run.components[i]);
    }
  }
  if (oracle.components.size() != run.components.size()) {
    return label + ": " + std::to_string(run.components.size()) +
           " pending components, oracle " +
           std::to_string(oracle.components.size());
  }
  return "";
}

/// Order-insensitive canonical form of a delivery log, with ids mapped
/// through `translate` (empty = identity).
std::vector<std::vector<QueryId>> CanonicalSets(
    const std::vector<Delivery>& log, const std::vector<QueryId>& translate) {
  std::vector<std::vector<QueryId>> sets;
  sets.reserve(log.size());
  for (const Delivery& d : log) {
    std::vector<QueryId> ids;
    ids.reserve(d.queries.size());
    for (QueryId q : d.QueryIds()) {
      ids.push_back(translate.empty() ? q
                                      : translate[static_cast<size_t>(q)]);
    }
    std::sort(ids.begin(), ids.end());
    sets.push_back(std::move(ids));
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

bool HasCancel(const std::vector<WorkloadEvent>& events) {
  for (const WorkloadEvent& event : events) {
    if (event.kind == WorkloadEvent::Kind::kCancel) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Kill-and-rehydrate differential
// ---------------------------------------------------------------------------

/// Throwaway storage directory for one crash-recovery replay,
/// recursively unlinked on scope exit (best-effort).
class ScopedTempDir {
 public:
  ScopedTempDir() {
    char tmpl[] = "/tmp/entangled_crash_XXXXXX";
    char* made = mkdtemp(tmpl);
    if (made != nullptr) path_ = made;
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    DIR* dir = opendir(path_.c_str());
    if (dir != nullptr) {
      while (dirent* entry = readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        ::unlink((path_ + "/" + name).c_str());
      }
      closedir(dir);
    }
    ::rmdir(path_.c_str());
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;
  const std::string& path() const { return path_; }
  bool ok() const { return !path_.empty(); }

 private:
  std::string path_;
};

/// Replays `events` with a crash in the middle: a durable-wrapped
/// engine runs the first `crash_index` events and is then destroyed
/// where it stands (no snapshot, no shutdown); a fresh engine is
/// rehydrated from the storage directory (latest snapshot + WAL tail)
/// and runs the remainder.  The returned StressReplay holds the
/// *concatenated* pre-crash + post-recovery delivery stream in durable
/// ids — which are the oracle's global ids — so CompareRuns can hold it
/// to the uninterrupted oracle byte for byte.  Delivery sequences must
/// resume, not restart, across the crash; the recording callback
/// enforces that directly.
StressReplay CrashRecoveryReplay(const Database& db,
                                 const EngineVariant& variant,
                                 const std::vector<WorkloadEvent>& events,
                                 size_t crash_index) {
  StressReplay run;
  ScopedTempDir dir;
  if (!dir.ok()) {
    run.error = "crash: mkdtemp failed";
    return run;
  }
  const std::vector<WorkloadEvent> prefix(events.begin(),
                                          events.begin() + crash_index);
  const std::vector<WorkloadEvent> suffix(events.begin() + crash_index,
                                          events.end());

  DurabilityOptions durability;
  durability.dir = dir.path();
  // The "crash" is in-process (destructors run, the page cache is
  // coherent), so no fsync is needed for the differential — and kNone
  // keeps the deep sweep fast.
  durability.fsync = FsyncPolicy::kNone;
  durability.snapshot_every_events = 7;  // exercise rotation mid-stream
  durability.initial_evaluate_every = variant.engine.evaluate_every;

  auto record = [&run](const Delivery& delivery) {
    if (delivery.sequence != run.log.size() && run.error.empty()) {
      run.error = "crash: delivery sequence " +
                  std::to_string(delivery.sequence) + " but " +
                  std::to_string(run.log.size()) +
                  " deliveries observed before it (sequences must resume "
                  "across recovery, not restart)";
    }
    run.log.push_back(delivery);
  };

  uint64_t pre_cancelled = 0;
  {
    std::unique_ptr<CoordinationService> inner = MakeEngine(db, variant);
    auto durable = DurableCoordinationService::Create(inner.get(),
                                                      &db, durability);
    if (!durable.ok()) {
      run.error = "crash: Create failed: " + durable.status().ToString();
      return run;
    }
    (*durable)->set_delivery_callback(record);
    std::string err = ReplayWorkloadEvents(durable->get(), prefix);
    if (!err.empty()) {
      run.error = "crash (pre-crash half): " + err;
      return run;
    }
    pre_cancelled = (*durable)->StatsSnapshot().cancelled;
    // Crash: scope exit destroys the decorator and the inner engine
    // with whatever the WAL holds — no rotation, no final snapshot.
  }

  auto state = ReadDurableState(dir.path());
  if (!state.ok()) {
    run.error = "crash: ReadDurableState failed: " + state.status().ToString();
    return run;
  }
  if (state->report.corruption_detected) {
    run.error = "crash: clean log misread as corrupt: " +
                state->report.corruption_detail;
    return run;
  }
  // Replayed tail cancels were already counted by the pre-crash engine;
  // subtract them so the concatenated stats.cancelled matches an
  // uninterrupted run (a clean log re-applies every one: anomalies==0).
  uint64_t tail_cancels = 0;
  for (const WalRecord& tail_record : state->tail) {
    if (tail_record.kind == WalRecord::Kind::kCancel) ++tail_cancels;
  }

  Database recovered_db;
  Status facts = BuildDatabaseFromSnapshot(state->snapshot, &recovered_db);
  if (!facts.ok()) {
    run.error = "crash: BuildDatabaseFromSnapshot failed: " + facts.ToString();
    return run;
  }
  std::unique_ptr<CoordinationService> inner =
      MakeEngine(recovered_db, variant);
  auto durable = DurableCoordinationService::Create(inner.get(),
                                                    &recovered_db, durability);
  if (!durable.ok()) {
    run.error = "crash: re-Create failed: " + durable.status().ToString();
    return run;
  }
  (*durable)->set_delivery_callback(record);
  Status recovered = (*durable)->Recover(std::move(*state),
                                         /*sessions=*/nullptr);
  if (!recovered.ok()) {
    run.error = "crash: Recover failed: " + recovered.ToString();
    return run;
  }
  const RecoveryReport& report = (*durable)->recovery_report();
  if (report.anomalies > 0) {
    run.error = "crash: " + std::to_string(report.anomalies) +
                " replay anomalies on a clean log: " + report.ToString();
    return run;
  }
  std::string err = ReplayWorkloadEvents(durable->get(), suffix);
  if (!err.empty()) {
    run.error = "crash (post-recovery half): " + err;
    return run;
  }
  run.final_pending = (*durable)->PendingQueries();
  run.pending_count = (*durable)->num_pending();
  run.stats = (*durable)->StatsSnapshot();
  run.stats.cancelled += pre_cancelled;
  run.stats.cancelled -= tail_cancels;
  return run;
}

}  // namespace

std::string ReplayWorkloadEvents(CoordinationService* engine,
                                 const std::vector<WorkloadEvent>& events) {
  ENTANGLED_CHECK(engine != nullptr);
  for (const WorkloadEvent& event : events) {
    switch (event.kind) {
      case WorkloadEvent::Kind::kSubmit: {
        auto id = engine->Submit(event.texts.front());
        if (!id.ok()) {
          return "Submit rejected a generated query: " +
                 id.status().ToString();
        }
        break;
      }
      case WorkloadEvent::Kind::kSubmitBatch: {
        auto ids = engine->SubmitBatch(event.texts);
        if (!ids.ok()) {
          return "SubmitBatch rejected a generated batch: " +
                 ids.status().ToString();
        }
        break;
      }
      case WorkloadEvent::Kind::kCancel: {
        // Rank-addressed so every engine being compared cancels the
        // same query id (pending sets agree while the engines agree).
        std::vector<QueryId> pending = engine->PendingQueries();
        if (!pending.empty()) {
          engine->Cancel(pending[event.cancel_rank % pending.size()]);
        }
        break;
      }
      case WorkloadEvent::Kind::kSetEvaluateEvery:
        engine->set_evaluate_every(event.evaluate_every);
        break;
      case WorkloadEvent::Kind::kFlush:
        engine->Flush();
        break;
    }
  }
  return "";
}

StressHarness::StressHarness(StressOptions options)
    : options_(std::move(options)) {
  ENTANGLED_CHECK(!options_.flush_thread_counts.empty());
}

std::string StressHarness::CheckOnce(const Database& db,
                                     const std::vector<WorkloadEvent>& events,
                                     size_t* oracle_deliveries,
                                     StressReplay* single_thread,
                                     size_t* quota_bounces) const {
  StressReplay oracle = Replay(db, OracleVariant(), events);
  if (oracle_deliveries != nullptr) *oracle_deliveries = oracle.log.size();
  std::string err = CheckInvariants("oracle", oracle);
  if (!err.empty()) return err;
  // Incremental variants: every flush-thread count crossed with every
  // intake capacity.  All of them promise the oracle's byte-identical
  // output and component partition.
  const std::vector<size_t> kInlineOnly = {0};
  const std::vector<size_t>& capacities =
      options_.intake_capacities.empty() ? kInlineOnly
                                         : options_.intake_capacities;
  for (size_t threads : options_.flush_thread_counts) {
    for (size_t capacity : capacities) {
      const std::string label =
          "incremental[flush_threads=" + std::to_string(threads) +
          ",intake=" + std::to_string(capacity) + "]";
      StressReplay run =
          Replay(db, IncrementalVariant(threads, options_.fault, capacity),
                 events);
      err = CheckInvariants(label, run);
      if (err.empty()) err = CompareRuns("oracle", oracle, label, run);
      if (err.empty()) err = ComparePartitions(oracle, label, run);
      if (!err.empty()) return err;
      if (threads == 1 && capacity == 0 && single_thread != nullptr) {
        *single_thread = std::move(run);
      }
    }
  }
  // The sharded front door promises the same byte-identical contract at
  // any shard-pool width; hold it to that on every stream.
  for (size_t threads : options_.shard_thread_counts) {
    const std::string label =
        "sharded[shard_threads=" + std::to_string(threads) + "]";
    StressReplay run =
        Replay(db, ShardedVariant(threads, options_.fault), events);
    err = CheckInvariants(label, run);
    if (err.empty()) err = CompareRuns("oracle", oracle, label, run);
    if (err.empty()) err = ComparePartitions(oracle, label, run);
    if (!err.empty()) return err;
  }
  // Kill-and-rehydrate: wrap one inline incremental, one
  // deferred-intake incremental, and one sharded variant in the
  // durability decorator, crash after a stream-dependent prefix,
  // recover from disk, and require the concatenated delivery stream —
  // ids, witnesses, resumed sequences, final pending set — to be
  // byte-identical to the uninterrupted oracle.
  if (options_.crash_at_event > 0) {
    const size_t crash_index = options_.crash_at_event % (events.size() + 1);
    std::vector<std::pair<std::string, EngineVariant>> crashed;
    const size_t inc_threads = options_.flush_thread_counts.front();
    crashed.emplace_back(
        "crash[incremental,flush_threads=" + std::to_string(inc_threads) + "]",
        IncrementalVariant(inc_threads, options_.fault));
    for (size_t capacity : capacities) {
      if (capacity == 0) continue;
      crashed.emplace_back("crash[incremental,intake=" +
                               std::to_string(capacity) + "]",
                           IncrementalVariant(1, options_.fault, capacity));
      break;
    }
    if (!options_.shard_thread_counts.empty()) {
      const size_t threads = options_.shard_thread_counts.front();
      crashed.emplace_back(
          "crash[sharded,shard_threads=" + std::to_string(threads) + "]",
          ShardedVariant(threads, options_.fault));
    }
    for (const auto& [label, variant] : crashed) {
      StressReplay run = CrashRecoveryReplay(db, variant, events, crash_index);
      if (!run.error.empty()) {
        return label + "@" + std::to_string(crash_index) + ": " + run.error;
      }
      err = CompareRuns("oracle", oracle,
                        label + "@" + std::to_string(crash_index), run);
      if (!err.empty()) return err;
    }
  }
  // The session front door must be a transparent overlay on every
  // variant: per-session push streams equal to the PollEvents() drains,
  // and the merged view byte-identical to the oracle.
  if (options_.session_count > 0) {
    std::vector<std::pair<std::string, EngineVariant>> wrapped;
    for (size_t threads : options_.flush_thread_counts) {
      wrapped.emplace_back(
          "sessions[incremental,flush_threads=" + std::to_string(threads) +
              "]",
          IncrementalVariant(threads, options_.fault));
    }
    // One armed-intake session variant: the session layer registers
    // queued ids optimistically and relies on drain-time OnDelivery to
    // settle them, which only an AdmitsDeferred service exercises.
    for (size_t capacity : capacities) {
      if (capacity == 0) continue;
      wrapped.emplace_back(
          "sessions[incremental,flush_threads=1,intake=" +
              std::to_string(capacity) + "]",
          IncrementalVariant(1, options_.fault, capacity));
      break;
    }
    for (size_t threads : options_.shard_thread_counts) {
      wrapped.emplace_back(
          "sessions[sharded,shard_threads=" + std::to_string(threads) + "]",
          ShardedVariant(threads, options_.fault));
    }
    for (const auto& [label, variant] : wrapped) {
      SessionReplayRun run =
          ReplayThroughSessions(db, variant, events, options_.session_count);
      if (!run.error.empty()) return label + ": " + run.error;
      err = CheckInvariants(label, run.flat);
      if (!err.empty()) return err;
      err = CompareRuns("oracle", oracle, label, run.flat);
      if (!err.empty()) return err;
    }
  }
  // Quota-armed session differential: rejected submissions never reach
  // the service, so the armed run must be byte-identical to an oracle
  // fed only the accepted events — and every bounce must surface as a
  // typed, metrics-counted kQuotaPending outcome (no silent drops).
  if (options_.session_count > 0 && options_.quota_max_session_pending > 0) {
    SessionOptions armed;
    armed.max_pending = options_.quota_max_session_pending;
    std::vector<std::pair<std::string, EngineVariant>> armed_variants;
    armed_variants.emplace_back(
        "sessions[quota,incremental]",
        IncrementalVariant(1, options_.fault));
    if (!options_.shard_thread_counts.empty()) {
      armed_variants.emplace_back(
          "sessions[quota,sharded]",
          ShardedVariant(options_.shard_thread_counts.front(),
                         options_.fault));
    }
    for (const auto& [label, variant] : armed_variants) {
      QuotaObservations quota;
      SessionReplayRun run = ReplayThroughSessions(
          db, variant, events, options_.session_count, armed, &quota);
      if (!run.error.empty()) return label + ": " + run.error;
      err = CheckInvariants(label, run.flat);
      if (!err.empty()) return err;
      StressReplay filtered = Replay(db, OracleVariant(), quota.accepted);
      err = CheckInvariants("oracle[accepted-only]", filtered);
      if (!err.empty()) return err;
      err = CompareRuns("oracle[accepted-only]", filtered, label, run.flat);
      if (!err.empty()) return err;
      size_t total_texts = 0;
      for (const WorkloadEvent& event : events) {
        total_texts += event.texts.size();
      }
      size_t accepted_texts = 0;
      for (const WorkloadEvent& event : quota.accepted) {
        accepted_texts += event.texts.size();
      }
      if (accepted_texts + quota.bounced_texts != total_texts) {
        return label + ": " + std::to_string(total_texts) +
               " texts submitted but " + std::to_string(accepted_texts) +
               " accepted + " + std::to_string(quota.bounced_texts) +
               " bounced (a submission was silently dropped)";
      }
      if (quota.counted != quota.bounced_calls) {
        return label + ": metrics counted " + std::to_string(quota.counted) +
               " quota_pending rejections but the replay observed " +
               std::to_string(quota.bounced_calls);
      }
      if (quota_bounces != nullptr) {
        *quota_bounces = std::max(*quota_bounces, quota.bounced_calls);
      }
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Metamorphic variants
// ---------------------------------------------------------------------------

std::string StressHarness::RunMetamorphic(
    const GeneratorOptions& gen, const Database& db,
    const GeneratedWorkload& workload, const StressReplay& base) const {
  // --- (1) within-batch submission-order permutation -------------------
  // Permuting a batch renumbers its queries, so the permuted stream is
  // verified differentially in its own right; delivered *sets* are
  // additionally compared up to the renaming for structures where the
  // engine is provably order-invariant.  (Stars and random graphs can
  // hold several equal-size coordinating sets — the solver's documented
  // tie-break follows discovery order, which tracks submission order —
  // and cancels are rank-addressed, so strict set equality would
  // over-assert there.)
  {
    Rng rng(gen.seed ^ kPermutationSalt);
    std::vector<WorkloadEvent> permuted = workload.events;
    std::vector<QueryId> perm_to_base;  // permuted id -> baseline id
    QueryId next_id = 0;
    bool any_batch = false;
    for (WorkloadEvent& event : permuted) {
      if (event.kind == WorkloadEvent::Kind::kSubmit) {
        perm_to_base.push_back(next_id++);
      } else if (event.kind == WorkloadEvent::Kind::kSubmitBatch) {
        const size_t n = event.texts.size();
        std::vector<size_t> order(n);
        std::iota(order.begin(), order.end(), size_t{0});
        rng.Shuffle(&order);
        std::vector<std::string> texts(n);
        for (size_t i = 0; i < n; ++i) {
          texts[i] = event.texts[order[i]];
          perm_to_base.push_back(next_id + static_cast<QueryId>(order[i]));
        }
        any_batch = any_batch || n > 1;
        event.texts = std::move(texts);
        next_id += static_cast<QueryId>(n);
      }
    }
    if (any_batch) {
      std::string err = CheckOnce(db, permuted, nullptr);
      if (!err.empty()) {
        return "metamorphic[batch permutation]: permuted stream diverged: " +
               err;
      }
      const bool order_invariant =
          !HasCancel(workload.events) && gen.sharing_density == 0 &&
          (gen.topology == GraphTopology::kChain ||
           gen.topology == GraphTopology::kClique);
      if (order_invariant) {
        StressReplay perm =
            Replay(db, IncrementalVariant(1, options_.fault), permuted);
        if (CanonicalSets(base.log, {}) !=
            CanonicalSets(perm.log, perm_to_base)) {
          return "metamorphic[batch permutation]: delivered coordinating "
                 "sets changed under within-batch permutation\n  base:     " +
                 LogToString(base.log) + "\n  permuted: " +
                 LogToString(perm.log);
        }
        std::vector<QueryId> pending;
        for (QueryId q : perm.final_pending) {
          pending.push_back(perm_to_base[static_cast<size_t>(q)]);
        }
        std::sort(pending.begin(), pending.end());
        if (pending != base.final_pending) {
          return "metamorphic[batch permutation]: final pending set changed "
                 "under within-batch permutation";
        }
      }
    }
  }

  // --- (2) relation row shuffling --------------------------------------
  // Row order affects which witness the evaluator finds, never whether
  // one exists: the delivered sets, their order, and the pending set
  // must be identical; witnesses are revalidated inside the replay.
  {
    GeneratorOptions shuffled = gen;
    shuffled.row_shuffle_seed = gen.seed ^ kRowShuffleSalt;
    if (shuffled.row_shuffle_seed == 0) shuffled.row_shuffle_seed = 1;
    Database shuffled_db;
    Status built = WorkloadGenerator(shuffled).BuildDatabase(&shuffled_db);
    ENTANGLED_CHECK(built.ok()) << built.ToString();
    StressReplay variant = Replay(
        shuffled_db, IncrementalVariant(1, options_.fault), workload.events);
    if (!variant.error.empty()) {
      return "metamorphic[row shuffle]: " + variant.error;
    }
    if (base.log.size() != variant.log.size()) {
      return "metamorphic[row shuffle]: delivery count changed under row "
             "shuffling: " +
             std::to_string(base.log.size()) + " vs " +
             std::to_string(variant.log.size());
    }
    for (size_t i = 0; i < base.log.size(); ++i) {
      if (base.log[i].QueryIds() != variant.log[i].QueryIds()) {
        return "metamorphic[row shuffle]: delivery " + std::to_string(i) +
               " changed under row shuffling: " +
               IdsToString(base.log[i].QueryIds()) + " vs " +
               IdsToString(variant.log[i].QueryIds());
      }
    }
    if (base.final_pending != variant.final_pending) {
      return "metamorphic[row shuffle]: final pending set changed under "
             "row shuffling";
    }
  }

  // --- (3) symbol renaming through the interner ------------------------
  // Prefixing every generated string constant yields the same scenario
  // up to an injective renaming: identical delivered sets in identical
  // order, witnesses equal after mapping string values through the
  // renaming (integers untouched).
  {
    GeneratorOptions renamed = gen;
    renamed.symbol_prefix = "Rn" + gen.symbol_prefix;
    WorkloadGenerator renamed_generator(renamed);
    Database renamed_db;
    Status built = renamed_generator.BuildDatabase(&renamed_db);
    ENTANGLED_CHECK(built.ok()) << built.ToString();
    GeneratedWorkload renamed_workload = renamed_generator.Generate();
    if (renamed_workload.events.size() != workload.events.size()) {
      return "metamorphic[symbol renaming]: generator is not "
             "prefix-invariant (event counts differ)";
    }
    StressReplay variant =
        Replay(renamed_db, IncrementalVariant(1, options_.fault),
               renamed_workload.events);
    if (!variant.error.empty()) {
      return "metamorphic[symbol renaming]: " + variant.error;
    }
    if (base.log.size() != variant.log.size()) {
      return "metamorphic[symbol renaming]: delivery count changed under "
             "renaming: " +
             std::to_string(base.log.size()) + " vs " +
             std::to_string(variant.log.size());
    }
    for (size_t i = 0; i < base.log.size(); ++i) {
      if (base.log[i].QueryIds() != variant.log[i].QueryIds()) {
        return "metamorphic[symbol renaming]: delivery " + std::to_string(i) +
               " changed under renaming: " +
               IdsToString(base.log[i].QueryIds()) + " vs " +
               IdsToString(variant.log[i].QueryIds());
      }
      for (size_t j = 0; j < base.log[i].queries.size(); ++j) {
        const std::string mismatch = RenamedWitnessMismatch(
            base.log[i].queries[j], variant.log[i].queries[j]);
        if (!mismatch.empty()) {
          return "metamorphic[symbol renaming]: delivery " +
                 std::to_string(i) + ": " + mismatch;
        }
      }
    }
    if (base.final_pending != variant.final_pending) {
      return "metamorphic[symbol renaming]: final pending set changed "
             "under renaming";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

std::vector<WorkloadEvent> StressHarness::Shrink(
    const Database& db, const std::vector<WorkloadEvent>& events) const {
  size_t budget = options_.max_shrink_replays;
  auto fails = [&](const std::vector<WorkloadEvent>& candidate) {
    if (budget == 0) return false;  // exhausted: stop improving
    --budget;
    return !CheckOnce(db, candidate, nullptr).empty();
  };
  WorkloadEvent flush;
  flush.kind = WorkloadEvent::Kind::kFlush;
  auto prefix_of = [&](size_t n) {
    std::vector<WorkloadEvent> prefix(events.begin(),
                                      events.begin() +
                                          static_cast<std::ptrdiff_t>(n));
    // A trailing flush surfaces divergence hiding in pending work.
    prefix.push_back(flush);
    return prefix;
  };

  // Binary search for a small failing prefix.  Divergence is not
  // strictly monotonic in prefix length, so the result is re-verified
  // and the search is best-effort.
  size_t lo = 1, hi = events.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (fails(prefix_of(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<WorkloadEvent> best = prefix_of(lo);
  if (!fails(best)) return events;  // non-monotonic case: keep the original

  // Greedy single-event removal to a local minimum.
  for (size_t i = best.size(); i-- > 0;) {
    if (best.size() <= 2) break;
    std::vector<WorkloadEvent> candidate = best;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    if (fails(candidate)) best = std::move(candidate);
  }
  return best;
}

std::string FormatReproduction(const GeneratorOptions* gen,
                               const std::vector<WorkloadEvent>& events,
                               size_t original_events) {
  std::ostringstream out;
  out << "STRESS_REPRO ";
  if (gen != nullptr) {
    out << "seed=" << gen->seed << " topology=" << TopologyName(gen->topology)
        << " queries=" << gen->num_queries << " ";
  } else {
    out << "directed-stream ";
  }
  out << "events=" << events.size() << "/" << original_events << "\n";
  GeneratedWorkload view;
  view.events = events;
  out << WorkloadToString(view);
  return out.str();
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

StressReport StressHarness::VerifyEvents(
    const Database& db, const std::vector<WorkloadEvent>& events) const {
  StressReport report;
  report.events = events.size();
  for (const WorkloadEvent& event : events) {
    report.submitted += event.texts.size();
  }
  report.failure = CheckOnce(db, events, &report.deliveries,
                             /*single_thread=*/nullptr,
                             &report.quota_bounces);
  report.ok = report.failure.empty();
  if (!report.ok && options_.shrink_on_failure) {
    std::vector<WorkloadEvent> shrunk = Shrink(db, events);
    report.shrunk_events = shrunk.size();
    report.reproduction = FormatReproduction(nullptr, shrunk, events.size());
  }
  return report;
}

StressReport StressHarness::RunScenario(const GeneratorOptions& gen) const {
  WorkloadGenerator generator(gen);
  GeneratedWorkload workload = generator.Generate();
  Database db;
  Status built = generator.BuildDatabase(&db);
  ENTANGLED_CHECK(built.ok()) << built.ToString();

  StressReport report;
  report.events = workload.events.size();
  report.submitted = workload.num_queries;
  StressReplay single_thread;
  bool have_single_thread =
      std::find(options_.flush_thread_counts.begin(),
                options_.flush_thread_counts.end(),
                size_t{1}) != options_.flush_thread_counts.end();
  report.failure = CheckOnce(db, workload.events, &report.deliveries,
                             &single_thread, &report.quota_bounces);
  const bool base_failed = !report.failure.empty();
  if (!base_failed && options_.run_metamorphic) {
    if (!have_single_thread) {
      single_thread =
          Replay(db, IncrementalVariant(1, options_.fault), workload.events);
    }
    report.failure = RunMetamorphic(gen, db, workload, single_thread);
  }
  report.ok = report.failure.empty();
  if (!report.ok && options_.shrink_on_failure) {
    // Metamorphic failures are reported unshrunk (the shrinking
    // predicate is the base differential); engine bugs and injected
    // faults surface there, so those streams do shrink.
    std::vector<WorkloadEvent> shrunk =
        base_failed ? Shrink(db, workload.events) : workload.events;
    report.shrunk_events = shrunk.size();
    report.reproduction =
        FormatReproduction(&gen, shrunk, workload.events.size());
  }
  return report;
}

}  // namespace entangled
