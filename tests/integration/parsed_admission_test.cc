// Parsed admission: the session front door parses each submitted text
// once and every layer below takes that parse through
// CoordinationService::SubmitParsed / SubmitBatchParsed.
//
//  * Parse counts (core/parser.h ParseCount): exactly one parse per
//    admitted text through sessions over durable over sharded, through
//    sessions over a CoordinationEngine (inline and through its
//    intake), and per text a Recover replays.
//  * Default forwarding: a pass-through decorator that overrides only
//    the text entry points (the parsed ones fall back to them) sits
//    above and below the durable decorator; the stack must deliver
//    exactly what the undecorated stack delivers, also across a crash
//    and Recover.  One that does not forward ResumeNumbering stops
//    Recover with a message naming the hook.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/parser.h"
#include "db/database.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "workload/generator.h"

namespace entangled {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_parsed_XXXXXX";
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

/// Forwards every call to `inner` and overrides only the text entry
/// points of admission, like a tracing decorator written before the
/// parsed ones existed: SubmitParsed and SubmitBatchParsed take the
/// base-class defaults, which drop the parse and call Submit /
/// SubmitBatch here.  It forwards the recovery hook ResumeNumbering,
/// which has no usable default.
class TextOnlyShim : public CoordinationService {
 public:
  explicit TextOnlyShim(CoordinationService* inner) : inner_(inner) {}

  void set_delivery_callback(DeliveryCallback callback) override {
    inner_->set_delivery_callback(std::move(callback));
  }
  void set_evaluate_every(size_t n) override { inner_->set_evaluate_every(n); }
  Result<QueryId> Submit(const std::string& text) override {
    ++text_calls_;
    return inner_->Submit(text);
  }
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& texts) override {
    ++text_calls_;
    return inner_->SubmitBatch(texts);
  }
  bool Cancel(QueryId id) override { return inner_->Cancel(id); }
  size_t Flush() override { return inner_->Flush(); }
  std::vector<QueryId> PendingQueries() const override {
    return inner_->PendingQueries();
  }
  bool IsPending(QueryId id) const override { return inner_->IsPending(id); }
  size_t num_pending() const override { return inner_->num_pending(); }
  std::vector<QueryId> ComponentOf(QueryId id) const override {
    return inner_->ComponentOf(id);
  }
  bool AdmitsDeferred() const override { return inner_->AdmitsDeferred(); }
  EngineStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  size_t IntakeDepth() const override { return inner_->IntakeDepth(); }
  ServiceGauges GaugesSnapshot() const override {
    return inner_->GaugesSnapshot();
  }
  void RestoreCadencePhase(size_t phase) override {
    inner_->RestoreCadencePhase(phase);
  }
  void ResumeNumbering(QueryId next_id, uint64_t next_sequence) override {
    inner_->ResumeNumbering(next_id, next_sequence);
  }
  void set_session_tag(int64_t tag) override { inner_->set_session_tag(tag); }
  void AppendCounters(std::vector<std::pair<std::string, uint64_t>>* counters)
      const override {
    inner_->AppendCounters(counters);
  }

  uint64_t text_calls() const { return text_calls_; }

 private:
  CoordinationService* inner_;
  uint64_t text_calls_ = 0;
};

/// A pass-through decorator written before ResumeNumbering existed: it
/// takes the base-class default.
class PreResumeShim : public TextOnlyShim {
 public:
  using TextOnlyShim::TextOnlyShim;
  void ResumeNumbering(QueryId next_id, uint64_t next_sequence) override {
    CoordinationService::ResumeNumbering(next_id, next_sequence);
  }
};

GeneratorOptions StreamOptions(uint64_t seed) {
  GeneratorOptions gen;
  gen.seed = seed;
  gen.num_queries = 80;
  gen.relation_partitions = 3;  // some shard merges
  return gen;
}

/// One full stack: sessions over (shim over) durable over (shim over)
/// a sharded engine, or over a bare CoordinationEngine when `dir` is
/// empty.
struct Stack {
  Database db;
  std::unique_ptr<CoordinationService> engine;
  std::unique_ptr<TextOnlyShim> below;
  std::unique_ptr<DurableCoordinationService> durable;
  std::unique_ptr<TextOnlyShim> above;
  std::unique_ptr<SessionManager> manager;
  std::vector<ClientSession*> sessions;

  /// Wires the layers over `db` (already filled).  `state` non-null
  /// recovers it after the sessions reopen.
  void Wire(const std::string& dir, bool shims, DurableState* state,
            EngineOptions engine_options = {}) {
    CoordinationService* top = nullptr;
    if (dir.empty()) {
      engine = std::make_unique<CoordinationEngine>(&db, engine_options);
      top = engine.get();
    } else {
      ShardedEngineOptions sharded;
      sharded.engine = engine_options;
      engine = std::make_unique<ShardedCoordinationEngine>(&db, sharded);
      top = engine.get();
      if (shims) {
        below = std::make_unique<TextOnlyShim>(top);
        top = below.get();
      }
      DurabilityOptions durability;
      durability.dir = dir;
      durability.fsync = FsyncPolicy::kNone;
      durability.snapshot_every_events = 25;  // rotate mid-stream
      durability.initial_evaluate_every = engine_options.evaluate_every;
      auto created = DurableCoordinationService::Create(top, &db, durability);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      durable = std::move(*created);
      top = durable.get();
      if (shims) {
        above = std::make_unique<TextOnlyShim>(top);
        top = above.get();
      }
    }
    manager = std::make_unique<SessionManager>(top);
    for (int i = 0; i < 2; ++i) sessions.push_back(manager->Open());
    if (state != nullptr) {
      Status recovered = durable->Recover(std::move(*state), manager.get());
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();
      EXPECT_EQ(durable->recovery_report().anomalies, 0u);
    }
  }
};

/// Replays events [begin, end) through the stack's sessions (event i
/// on session i % 2; a cancel picks by rank from that session's
/// pending queries).  Returns the number of texts submitted.
size_t Replay(Stack* stack, const std::vector<WorkloadEvent>& events,
              size_t begin, size_t end) {
  size_t texts = 0;
  for (size_t i = begin; i < end; ++i) {
    const WorkloadEvent& event = events[i];
    ClientSession* session = stack->sessions[i % stack->sessions.size()];
    switch (event.kind) {
      case WorkloadEvent::Kind::kSubmit: {
        SubmitOutcome outcome = session->Submit(event.texts.front());
        EXPECT_TRUE(outcome) << outcome.message;
        ++texts;
        break;
      }
      case WorkloadEvent::Kind::kSubmitBatch: {
        BatchOutcome outcome = session->SubmitBatch(event.texts);
        EXPECT_TRUE(outcome) << outcome.message;
        texts += event.texts.size();
        break;
      }
      case WorkloadEvent::Kind::kCancel: {
        const std::vector<QueryId> pending = session->PendingQueries();
        if (!pending.empty()) {
          EXPECT_TRUE(
              session->Cancel(pending[event.cancel_rank % pending.size()]));
        }
        break;
      }
      case WorkloadEvent::Kind::kSetEvaluateEvery:
        stack->manager->set_evaluate_every(event.evaluate_every);
        break;
      case WorkloadEvent::Kind::kFlush:
        stack->manager->Flush();
        break;
    }
  }
  return texts;
}

/// A session event keyed by (delivery sequence, session), so streams
/// drained at different points compare equal: the text holds the own
/// queries and the whole delivery (participants, answers, witnesses).
using SeenEvent = std::pair<std::pair<uint64_t, SessionId>, std::string>;

void Drain(Stack* stack, std::vector<SeenEvent>* out) {
  for (ClientSession* session : stack->sessions) {
    for (const SessionEvent& event : session->PollEvents()) {
      std::string own = "own";
      for (QueryId id : event.own_queries) own += " " + std::to_string(id);
      out->push_back({{event.delivery->sequence, event.session},
                      own + "\n" + event.delivery->ToString()});
    }
  }
}

struct Outcome {
  std::vector<SeenEvent> events;
  std::vector<QueryId> pending;
  std::vector<std::vector<QueryId>> session_pending;
};

void Finish(Stack* stack, Outcome* out) {
  Drain(stack, &out->events);
  std::sort(out->events.begin(), out->events.end());
  out->pending = stack->manager->PendingQueries();
  for (ClientSession* session : stack->sessions) {
    out->session_pending.push_back(session->PendingQueries());
  }
}

/// Runs the seeded stream on a durable stack, crashing after
/// `crash_at` events (none when it is the stream's length).
Outcome RunDurable(uint64_t seed, bool shims, size_t crash_at) {
  const WorkloadGenerator generator(StreamOptions(seed));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  crash_at = std::min(crash_at, events.size());
  TempDir dir;
  Outcome out;
  {
    Stack stack;
    EXPECT_TRUE(generator.BuildDatabase(&stack.db).ok());
    stack.Wire(dir.path(), shims, nullptr);
    Replay(&stack, events, 0, crash_at);
    if (crash_at == events.size()) {
      Finish(&stack, &out);
      return out;
    }
    Drain(&stack, &out.events);
    // Crash: destructors only, no rotation.
  }
  auto state = ReadDurableState(dir.path());
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (!state.ok()) return out;
  Stack stack;
  EXPECT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &stack.db).ok());
  stack.Wire(dir.path(), shims, &*state);
  Replay(&stack, events, crash_at, events.size());
  Finish(&stack, &out);
  return out;
}

TEST(ParsedAdmissionTest, SessionOverDurableShardedParsesEachTextOnce) {
  const WorkloadGenerator generator(StreamOptions(3));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  TempDir dir;
  Stack stack;
  ASSERT_TRUE(generator.BuildDatabase(&stack.db).ok());
  stack.Wire(dir.path(), /*shims=*/false, nullptr);
  const uint64_t before = ParseCount();
  const size_t texts = Replay(&stack, events, 0, events.size());
  ASSERT_GT(texts, 0u);
  EXPECT_EQ(ParseCount() - before, texts);
}

TEST(ParsedAdmissionTest, SessionOverEngineParsesEachTextOnce) {
  const WorkloadGenerator generator(StreamOptions(4));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  for (size_t intake : {size_t{0}, size_t{8}}) {
    Stack stack;
    ASSERT_TRUE(generator.BuildDatabase(&stack.db).ok());
    EngineOptions options;
    options.intake_capacity = intake;
    stack.Wire("", /*shims=*/false, nullptr, options);
    ASSERT_EQ(stack.manager->service()->AdmitsDeferred(), intake > 0);
    const uint64_t before = ParseCount();
    const size_t texts = Replay(&stack, events, 0, events.size());
    stack.manager->Flush();
    ASSERT_GT(texts, 0u);
    EXPECT_EQ(ParseCount() - before, texts) << "intake=" << intake;
    EXPECT_EQ(stack.manager->StatsSnapshot().submitted, texts);
  }
}

// Recover parses each text it replays once: the snapshot's pending
// queries and every submit record of the WAL tail.
TEST(ParsedAdmissionTest, RecoverParsesEachReplayedTextOnce) {
  const WorkloadGenerator generator(StreamOptions(5));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  TempDir dir;
  {
    Stack stack;
    ASSERT_TRUE(generator.BuildDatabase(&stack.db).ok());
    stack.Wire(dir.path(), /*shims=*/false, nullptr);
    Replay(&stack, events, 0, events.size());
  }
  auto state = ReadDurableState(dir.path());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  size_t texts = state->snapshot.pending.size();
  for (const WalRecord& record : state->tail) {
    if (record.kind == WalRecord::Kind::kSubmit) ++texts;
    if (record.kind == WalRecord::Kind::kSubmitBatch) {
      texts += record.batch.size();
    }
  }
  // The stream rotated mid-way, so both sources are exercised.
  ASSERT_GT(state->snapshot.pending.size(), 0u);
  ASSERT_GT(texts, state->snapshot.pending.size());
  Stack stack;
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &stack.db).ok());
  const uint64_t before = ParseCount();
  stack.Wire(dir.path(), /*shims=*/false, &*state);
  EXPECT_EQ(ParseCount() - before, texts);
}

// The shims take every submission through their text entry points,
// and the stack still delivers byte-identically.
TEST(ParsedAdmissionTest, TextOnlyDecoratorsForwardByDefault) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    const Outcome plain = RunDurable(seed, /*shims=*/false, SIZE_MAX);
    const Outcome shimmed = RunDurable(seed, /*shims=*/true, SIZE_MAX);
    ASSERT_FALSE(plain.events.empty()) << "seed " << seed;
    EXPECT_EQ(plain.events, shimmed.events) << "seed " << seed;
    EXPECT_EQ(plain.pending, shimmed.pending) << "seed " << seed;
    EXPECT_EQ(plain.session_pending, shimmed.session_pending)
        << "seed " << seed;
  }
}

TEST(ParsedAdmissionTest, TextOnlyDecoratorsForwardAcrossRecover) {
  for (uint64_t seed : {11u, 12u}) {
    const Outcome plain = RunDurable(seed, /*shims=*/false, SIZE_MAX);
    for (size_t crash_at : {size_t{7}, size_t{23}, size_t{41}}) {
      const Outcome shimmed = RunDurable(seed, /*shims=*/true, crash_at);
      EXPECT_EQ(plain.events, shimmed.events)
          << "seed " << seed << " crash_at " << crash_at;
      EXPECT_EQ(plain.pending, shimmed.pending)
          << "seed " << seed << " crash_at " << crash_at;
      EXPECT_EQ(plain.session_pending, shimmed.session_pending)
          << "seed " << seed << " crash_at " << crash_at;
    }
  }
}

TEST(ParsedAdmissionTest, TextOnlyDecoratorsSeeEverySubmission) {
  const WorkloadGenerator generator(StreamOptions(6));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  TempDir dir;
  Stack stack;
  ASSERT_TRUE(generator.BuildDatabase(&stack.db).ok());
  stack.Wire(dir.path(), /*shims=*/true, nullptr);
  size_t calls = 0;
  for (const WorkloadEvent& event : events) {
    if (event.kind == WorkloadEvent::Kind::kSubmit ||
        event.kind == WorkloadEvent::Kind::kSubmitBatch) {
      ++calls;
    }
  }
  const uint64_t before = ParseCount();
  const size_t texts = Replay(&stack, events, 0, events.size());
  EXPECT_EQ(stack.above->text_calls(), calls);
  EXPECT_EQ(stack.below->text_calls(), calls);
  // The session, the durable decorator and the engine each parse: the
  // default forwarding trades the saving for compatibility.
  EXPECT_EQ(ParseCount() - before, 3 * texts);
}

// Recover through a decorator that does not forward ResumeNumbering
// stops at the hook, by name, instead of resubmitting the recovered
// queries under ids the log never issued.
TEST(ParsedAdmissionDeathTest, RecoverStopsAtANonForwardingDecorator) {
  const WorkloadGenerator generator(StreamOptions(5));
  const std::vector<WorkloadEvent> events = generator.Generate().events;
  TempDir dir;
  {
    Stack stack;
    ASSERT_TRUE(generator.BuildDatabase(&stack.db).ok());
    stack.Wire(dir.path(), /*shims=*/false, nullptr);
    Replay(&stack, events, 0, events.size());
  }
  auto state = ReadDurableState(dir.path());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  Database db;
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &db).ok());
  ShardedCoordinationEngine engine(&db);
  PreResumeShim shim(&engine);
  DurabilityOptions durability;
  durability.dir = dir.path();
  durability.fsync = FsyncPolicy::kNone;
  auto durable = DurableCoordinationService::Create(&shim, &db, durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  EXPECT_DEATH((void)(*durable)->Recover(std::move(*state), nullptr),
               "ResumeNumbering");
}

}  // namespace
}  // namespace entangled
