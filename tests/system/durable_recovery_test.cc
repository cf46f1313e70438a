// Kill-and-rehydrate through the session front door (the full
// production stack: SessionManager over DurableCoordinationService
// over a single engine, inline or through its intake, or the sharded
// one).  A scripted two-session scenario is crashed at every step
// boundary; the rehydrated stack must resume —
// same session ownership, same pending sets, delivery sequences
// *resumed* rather than restarted — and the concatenated per-session
// event streams must be byte-identical to an uninterrupted oracle run.
// A second recovery of the already-recovered directory must read back
// clean (double-recovery idempotence).  A directly driven service
// checks that after a recovery the inner service answers every kind of
// id exactly as the decorator does: one id namespace, no translation.

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "db/database.h"
#include "db/value.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"
#include "system/sharded_engine.h"

namespace entangled {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_durrec_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
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
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void FillFacts(Database* db) {
  Relation* flights = *db->CreateRelation("Flights", {"flightId", "dest"});
  flights->Insert({Value::Int(101), Value::Str("Zurich")});
  flights->Insert({Value::Int(102), Value::Str("Geneva")});
}

/// The inner services the durable decorator is tested over.
enum class Backend { kIncremental, kIntake, kSharded };

std::unique_ptr<CoordinationService> MakeInner(const Database* db,
                                               Backend backend) {
  if (backend == Backend::kSharded) {
    ShardedEngineOptions options;
    options.engine.evaluate_every = 1;
    options.shard_threads = 2;
    return std::make_unique<ShardedCoordinationEngine>(db, options);
  }
  EngineOptions options;
  options.evaluate_every = 1;
  if (backend == Backend::kIntake) options.intake_capacity = 8;
  return std::make_unique<CoordinationEngine>(db, options);
}

/// One full stack: facts, engine, optional durability decorator,
/// session manager, two open sessions.
struct Stack {
  Database db;
  std::unique_ptr<CoordinationService> inner;
  std::unique_ptr<DurableCoordinationService> durable;
  std::unique_ptr<SessionManager> manager;
  ClientSession* a = nullptr;
  ClientSession* b = nullptr;

  CoordinationService* front() {
    return durable != nullptr
               ? static_cast<CoordinationService*>(durable.get())
               : inner.get();
  }
};

/// Oracle (no durability) or fresh durable stack over an empty dir.
void BuildFresh(Stack* stack, Backend backend, const std::string& dir) {
  FillFacts(&stack->db);
  stack->inner = MakeInner(&stack->db, backend);
  if (!dir.empty()) {
    DurabilityOptions durability;
    durability.dir = dir;
    durability.fsync = FsyncPolicy::kNone;
    durability.snapshot_every_events = 3;  // rotate mid-scenario
    durability.initial_evaluate_every = 1;
    auto durable =
        DurableCoordinationService::Create(stack->inner.get(), &stack->db,
                                           durability);
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    stack->durable = std::move(*durable);
  }
  stack->manager = std::make_unique<SessionManager>(stack->front());
  stack->a = stack->manager->Open();
  stack->b = stack->manager->Open();
}

/// Rehydrates `dir` into a fresh stack: rebuild facts from the chosen
/// snapshot, rebuild the engine over them, re-wire the decorator and
/// manager, reopen both sessions (ids 0 and 1, matching the recorded
/// tags), then Recover.
void BuildRecovered(Stack* stack, Backend backend, const std::string& dir) {
  auto state = ReadDurableState(dir);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_TRUE(
      BuildDatabaseFromSnapshot(state->snapshot, &stack->db).ok());
  stack->inner = MakeInner(&stack->db, backend);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.snapshot_every_events = 3;
  durability.initial_evaluate_every = 1;
  auto durable = DurableCoordinationService::Create(stack->inner.get(),
                                                    &stack->db, durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  stack->durable = std::move(*durable);
  stack->manager = std::make_unique<SessionManager>(stack->durable.get());
  stack->a = stack->manager->Open();
  stack->b = stack->manager->Open();
  Status recovered =
      stack->durable->Recover(std::move(*state), stack->manager.get());
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  const RecoveryReport& report = stack->durable->recovery_report();
  EXPECT_FALSE(report.corruption_detected) << report.ToString();
  EXPECT_EQ(report.anomalies, 0u) << report.ToString();
}

/// One observed session event, deep-copied for stream comparison.
struct Seen {
  SessionId session = -1;
  uint64_t sequence = 0;
  std::vector<QueryId> set;
  std::vector<QueryId> own;

  bool operator==(const Seen& other) const {
    return session == other.session && sequence == other.sequence &&
           set == other.set && own == other.own;
  }
};

void DrainInto(Stack* stack, std::vector<Seen>* out) {
  // Settle deferred admission first (a no-op inline), so every step
  // boundary — where the scenario polls, and where it may crash — sees
  // the step's deliveries whatever the backend.
  (void)stack->front()->num_pending();
  for (ClientSession* session : {stack->a, stack->b}) {
    for (const SessionEvent& event : session->PollEvents()) {
      Seen one;
      one.session = event.session;
      one.sequence = event.delivery->sequence;
      one.set = event.delivery->QueryIds();
      one.own = event.own_queries;
      out->push_back(one);
    }
  }
}

/// The scripted scenario, one step per index: cross-session
/// coordinating pairs, stuck queries, a cancel, a cadence change, and a
/// batch, so a crash at any boundary lands in interesting state.
constexpr size_t kSteps = 8;

void RunStep(size_t step, Stack* stack) {
  switch (step) {
    case 0:
      ASSERT_TRUE(stack->a->Submit(
          "q0: { R(B, x) } R(A, x) :- Flights(x, Zurich)."));
      break;
    case 1:  // completes the pair -> delivery #0, one event per session
      ASSERT_TRUE(stack->b->Submit(
          "q1: { } R(B, y) :- Flights(y, Zurich)."));
      break;
    case 2:  // stuck: nobody ever heads R(Ghost, _)
      ASSERT_TRUE(stack->a->Submit(
          "q2: { R(Ghost, z) } R(S, z) :- Flights(z, Zurich)."));
      break;
    case 3:
      ASSERT_TRUE(stack->b->Submit(
          "q3: { R(Ghost, w) } R(T, w) :- Flights(w, Geneva)."));
      break;
    case 4:
      ASSERT_TRUE(stack->b->Cancel(3));
      break;
    case 5:  // cadence change rides the log; recovery must mirror it
      stack->manager->set_evaluate_every(2);
      break;
    case 6: {  // same-session batch pair -> delivery #1
      BatchOutcome batch = stack->a->SubmitBatch(
          {"q4: { R(D, u) } R(C, u) :- Flights(u, Zurich).",
           "q5: { } R(D, v) :- Flights(v, Zurich)."});
      ASSERT_TRUE(batch);
      break;
    }
    case 7:  // another stuck query under the changed cadence
      ASSERT_TRUE(stack->b->Submit(
          "q6: { R(Ghost, t) } R(U, t) :- Flights(t, Zurich)."));
      break;
    default:
      FAIL() << "no step " << step;
  }
}

struct RunResult {
  std::vector<Seen> events;
  std::vector<QueryId> pending;    ///< service-wide, ascending
  std::vector<QueryId> pending_a;  ///< session a's slice
  std::vector<QueryId> pending_b;
};

void FinishRun(Stack* stack, RunResult* out) {
  out->pending = stack->front()->PendingQueries();
  out->pending_a = stack->a->PendingQueries();
  out->pending_b = stack->b->PendingQueries();
}

void RunOracle(Backend backend, RunResult* out) {
  Stack stack;
  BuildFresh(&stack, backend, "");
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t step = 0; step < kSteps; ++step) {
    RunStep(step, &stack);
    if (::testing::Test::HasFatalFailure()) return;
    DrainInto(&stack, &out->events);
  }
  FinishRun(&stack, out);
}

void RunWithCrash(Backend backend, size_t crash_step, const std::string& dir,
                  RunResult* out) {
  {
    Stack stack;
    BuildFresh(&stack, backend, dir);
    if (::testing::Test::HasFatalFailure()) return;
    for (size_t step = 0; step < crash_step; ++step) {
      RunStep(step, &stack);
      if (::testing::Test::HasFatalFailure()) return;
      DrainInto(&stack, &out->events);
    }
    // Crash: destructors only — no rotation, no clean shutdown.
  }
  Stack stack;
  BuildRecovered(&stack, backend, dir);
  if (::testing::Test::HasFatalFailure()) return;
  for (size_t step = crash_step; step < kSteps; ++step) {
    RunStep(step, &stack);
    if (::testing::Test::HasFatalFailure()) return;
    DrainInto(&stack, &out->events);
  }
  FinishRun(&stack, out);
}

void ExpectRunsEqual(const RunResult& oracle, const RunResult& crashed,
                     size_t crash_step) {
  ASSERT_EQ(oracle.events.size(), crashed.events.size())
      << "crash_step=" << crash_step;
  for (size_t i = 0; i < oracle.events.size(); ++i) {
    EXPECT_TRUE(oracle.events[i] == crashed.events[i])
        << "crash_step=" << crash_step << " event " << i
        << " diverged (session " << oracle.events[i].session << " vs "
        << crashed.events[i].session << ", sequence "
        << oracle.events[i].sequence << " vs "
        << crashed.events[i].sequence << ")";
  }
  EXPECT_EQ(oracle.pending, crashed.pending) << "crash_step=" << crash_step;
  EXPECT_EQ(oracle.pending_a, crashed.pending_a)
      << "crash_step=" << crash_step;
  EXPECT_EQ(oracle.pending_b, crashed.pending_b)
      << "crash_step=" << crash_step;
}

class DurableRecoveryTest : public ::testing::TestWithParam<Backend> {};

TEST_P(DurableRecoveryTest, CrashAtEveryStepBoundaryMatchesTheOracle) {
  const Backend backend = GetParam();
  RunResult oracle;
  RunOracle(backend, &oracle);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_FALSE(oracle.events.empty());
  for (size_t crash_step = 0; crash_step <= kSteps; ++crash_step) {
    TempDir dir;
    RunResult crashed;
    RunWithCrash(backend, crash_step, dir.path(), &crashed);
    ASSERT_FALSE(::testing::Test::HasFatalFailure())
        << "crash_step=" << crash_step;
    ExpectRunsEqual(oracle, crashed, crash_step);
  }
}

TEST_P(DurableRecoveryTest, SequencesResumeAcrossTheCrash) {
  const Backend backend = GetParam();
  TempDir dir;
  RunResult crashed;
  // Crash between the two deliveries: sequence 0 fires pre-crash,
  // sequence 1 post-recovery — a restart would hand out 0 again.
  RunWithCrash(backend, 4, dir.path(), &crashed);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  std::vector<uint64_t> sequences;
  for (const Seen& seen : crashed.events) {
    if (sequences.empty() || seen.sequence != sequences.back()) {
      sequences.push_back(seen.sequence);
    }
  }
  EXPECT_EQ(sequences, (std::vector<uint64_t>{0, 1}));
}

TEST_P(DurableRecoveryTest, DoubleRecoveryIsIdempotent) {
  const Backend backend = GetParam();
  TempDir dir;
  RunResult crashed;
  RunWithCrash(backend, 5, dir.path(), &crashed);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // The run above ended with a live recovered service that was itself
  // destroyed uncleanly (FinishRun then scope exit).  Recover the same
  // directory twice more; each pass must land on the identical state
  // and a clean report.
  for (int pass = 0; pass < 2; ++pass) {
    Stack stack;
    BuildRecovered(&stack, backend, dir.path());
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "pass " << pass;
    const RecoveryReport& report = stack.durable->recovery_report();
    EXPECT_FALSE(report.torn_tail) << "pass " << pass;
    EXPECT_EQ(report.snapshots_skipped, 0u) << "pass " << pass;
    EXPECT_EQ(stack.front()->PendingQueries(), crashed.pending)
        << "pass " << pass;
    EXPECT_EQ(stack.a->PendingQueries(), crashed.pending_a)
        << "pass " << pass;
    EXPECT_EQ(stack.b->PendingQueries(), crashed.pending_b)
        << "pass " << pass;
    // No pre-crash delivery may be re-forwarded: the sessions polled
    // everything before the crash, so a recovered session buffer must
    // start empty.
    EXPECT_EQ(stack.a->num_buffered_events(), 0u) << "pass " << pass;
    EXPECT_EQ(stack.b->num_buffered_events(), 0u) << "pass " << pass;
  }
}

/// A durable service driven directly (no sessions): fresh over an
/// empty `dir`, or rehydrated from it.  Every forwarded delivery lands
/// in `log`.
struct DirectStack {
  Database db;
  std::unique_ptr<CoordinationService> inner;
  std::unique_ptr<DurableCoordinationService> durable;
};

void OpenDirect(DirectStack* stack, Backend backend, const std::string& dir,
                bool recover, std::vector<Delivery>* log) {
  DurableState state;
  if (recover) {
    auto read = ReadDurableState(dir);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    state = std::move(*read);
    ASSERT_TRUE(BuildDatabaseFromSnapshot(state.snapshot, &stack->db).ok());
  } else {
    FillFacts(&stack->db);
  }
  stack->inner = MakeInner(&stack->db, backend);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.initial_evaluate_every = 1;
  auto durable = DurableCoordinationService::Create(stack->inner.get(),
                                                    &stack->db, durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  stack->durable = std::move(*durable);
  stack->durable->set_delivery_callback(
      [log](const Delivery& delivery) { log->push_back(delivery); });
  if (recover) {
    Status recovered = stack->durable->Recover(std::move(state), nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.ToString();
    EXPECT_EQ(stack->durable->recovery_report().anomalies, 0u);
  }
}

/// Every read of query `id` gets the same answer from the inner
/// service as from the durable decorator: they share one id namespace.
void ExpectOneNamespace(DirectStack* stack, QueryId id) {
  const CoordinationService& inner = *stack->inner;
  const DurableCoordinationService& durable = *stack->durable;
  EXPECT_EQ(inner.PendingQueries(), durable.PendingQueries()) << id;
  EXPECT_EQ(inner.IsPending(id), durable.IsPending(id)) << id;
  EXPECT_EQ(inner.ComponentOf(id), durable.ComponentOf(id)) << id;
}

void ExpectUnknown(DirectStack* stack, QueryId id) {
  ExpectOneNamespace(stack, id);
  DurableCoordinationService* service = stack->durable.get();
  EXPECT_FALSE(service->IsPending(id)) << id;
  EXPECT_TRUE(service->ComponentOf(id).empty()) << id;
  EXPECT_FALSE(service->Cancel(id)) << id;
}

/// After a Recover() the inner service answers in durable ids for all
/// three kinds of id: snapshot-pending queries (resubmitted under
/// their own ids), later admissions, and ids this process never
/// admitted.  Cancel, IsPending and ComponentOf are called on each
/// kind, through the decorator and on the inner service, then the
/// service crashes and recovers again, and the whole delivery stream —
/// ids, names, texts, answers, witnesses — must equal an uninterrupted
/// run's.
TEST_P(DurableRecoveryTest, InnerServiceAnswersInDurableIdsAfterRecovery) {
  const Backend backend = GetParam();
  auto run = [backend](const std::string& dir, bool crash,
                       std::vector<Delivery>* log,
                       std::vector<QueryId>* pending) {
    auto stack = std::make_unique<DirectStack>();
    OpenDirect(stack.get(), backend, dir, /*recover=*/false, log);
    if (::testing::Test::HasFatalFailure()) return;
    for (const char* text :
         {"p0: { R(B, x) } R(A, x) :- Flights(x, Zurich).",
          "s1: { R(Ghost, z) } R(S, z) :- Flights(z, Zurich).",
          "p2: { R(D, u) } R(C, u) :- Flights(u, Zurich).",
          "p3: { } R(D, v) :- Flights(v, Zurich).",  // delivers {2, 3}
          "s4: { R(Ghost, w) } R(T, w) :- Flights(w, Geneva)."}) {
      ASSERT_TRUE(stack->durable->Submit(text).ok()) << text;
    }
    // Snapshot pending {0, 1, 4}; the next admission rides the WAL tail.
    ASSERT_TRUE(stack->durable->SnapshotNow().ok());
    ASSERT_TRUE(stack->durable
                    ->Submit("s5: { R(Ghost, t) } R(U, t) :- "
                             "Flights(t, Zurich).")
                    .ok());
    if (crash) {
      stack = std::make_unique<DirectStack>();
      OpenDirect(stack.get(), backend, dir, /*recover=*/true, log);
      if (::testing::Test::HasFatalFailure()) return;
    }
    DurableCoordinationService* service = stack->durable.get();
    // (a) recovered pending ids.
    for (QueryId id : {0, 1, 4, 5}) ExpectOneNamespace(stack.get(), id);
    EXPECT_TRUE(service->IsPending(1));
    EXPECT_EQ(service->ComponentOf(1), (std::vector<QueryId>{1}));
    EXPECT_TRUE(service->Cancel(1));
    ExpectUnknown(stack.get(), 1);
    // (b) ids delivered before the snapshot.
    ExpectUnknown(stack.get(), 2);
    ExpectUnknown(stack.get(), 3);
    // (c) ids admitted after recovery, one joining a recovered query.
    auto joined = service->Submit(
        "j6: { R(T, q) } R(W, q) :- Flights(q, Geneva).");
    ASSERT_TRUE(joined.ok());
    EXPECT_EQ(*joined, 6);
    EXPECT_TRUE(service->IsPending(6));
    EXPECT_EQ(service->ComponentOf(6), (std::vector<QueryId>{4, 6}));
    EXPECT_EQ(service->ComponentOf(4), (std::vector<QueryId>{4, 6}));
    ExpectOneNamespace(stack.get(), 6);
    ExpectOneNamespace(stack.get(), 4);
    auto doomed = service->Submit(
        "c7: { R(Nobody, k) } R(X, k) :- Flights(k, Zurich).");
    ASSERT_TRUE(doomed.ok());
    EXPECT_EQ(*doomed, 7);
    ExpectOneNamespace(stack.get(), 7);
    EXPECT_TRUE(service->Cancel(7));
    ExpectUnknown(stack.get(), 7);
    // (d) ids never assigned.
    ExpectUnknown(stack.get(), 8);
    ExpectUnknown(stack.get(), 99);
    ExpectUnknown(stack.get(), -1);
    // Delivers {0, 8}: a recovered query with a post-recovery one.
    ASSERT_TRUE(
        service->Submit("p8: { } R(B, y) :- Flights(y, Zurich).").ok());
    ExpectUnknown(stack.get(), 0);
    if (crash) {
      stack = std::make_unique<DirectStack>();
      OpenDirect(stack.get(), backend, dir, /*recover=*/true, log);
      if (::testing::Test::HasFatalFailure()) return;
      service = stack->durable.get();
    }
    ExpectUnknown(stack.get(), 1);
    EXPECT_EQ(service->ComponentOf(6), (std::vector<QueryId>{4, 6}));
    ExpectOneNamespace(stack.get(), 6);
    ExpectOneNamespace(stack.get(), 5);
    // Coordinates with s5, recovered twice over.
    ASSERT_TRUE(
        service->Submit("p9: { } R(Ghost, g) :- Flights(g, Zurich).").ok());
    ExpectUnknown(stack.get(), 5);
    *pending = service->PendingQueries();
  };

  TempDir oracle_dir;
  std::vector<Delivery> oracle;
  std::vector<QueryId> oracle_pending;
  run(oracle_dir.path(), /*crash=*/false, &oracle, &oracle_pending);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  TempDir crash_dir;
  std::vector<Delivery> crashed;
  std::vector<QueryId> crashed_pending;
  run(crash_dir.path(), /*crash=*/true, &crashed, &crashed_pending);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  std::vector<std::vector<QueryId>> sets;
  for (const Delivery& delivery : oracle) sets.push_back(delivery.QueryIds());
  EXPECT_EQ(sets, (std::vector<std::vector<QueryId>>{{2, 3}, {0, 8}, {5, 9}}));
  EXPECT_EQ(oracle_pending, crashed_pending);
  ASSERT_EQ(oracle.size(), crashed.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    const Delivery& a = oracle[i];
    const Delivery& b = crashed[i];
    EXPECT_EQ(a.sequence, b.sequence) << i;
    EXPECT_EQ(a.QueryIds(), b.QueryIds()) << i;
    ASSERT_EQ(a.queries.size(), b.queries.size()) << i;
    for (size_t j = 0; j < a.queries.size(); ++j) {
      EXPECT_EQ(a.queries[j].name, b.queries[j].name) << i;
      EXPECT_EQ(a.queries[j].text, b.queries[j].text) << i;
      EXPECT_EQ(a.queries[j].answers, b.queries[j].answers) << i;
      EXPECT_EQ(a.queries[j].witness, b.queries[j].witness) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DurableRecoveryTest,
    ::testing::Values(Backend::kIncremental, Backend::kIntake,
                      Backend::kSharded),
    [](const ::testing::TestParamInfo<Backend>& info) {
      switch (info.param) {
        case Backend::kIncremental:
          return "Incremental";
        case Backend::kIntake:
          return "Intake";
        case Backend::kSharded:
          return "Sharded";
      }
      return "Unknown";
    });

}  // namespace
}  // namespace entangled
