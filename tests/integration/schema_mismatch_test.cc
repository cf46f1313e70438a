// A query whose body names a relation the database lacks, or names one
// with another arity, is well-formed text: nothing in front of the
// engine checks it against the schema.  Such a query must simply never
// ground.  The evaluator once CHECK-failed on it at the first
// evaluation of its component, which at evaluate_every=1 happens inside
// Submit, so one client text aborted the process.  Each service below
// takes both texts, keeps them pending, and still delivers a
// well-formed pair submitted in the same stream.

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
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "testing/reference_coordinator.h"

namespace entangled {
namespace {

/// No relation Nope exists.
const char kUnknownRelation[] = "q: {} A(x) :- Nope(x).";
/// R is binary.
const char kWrongArity[] = "q: {} A(x) :- R(x).";

/// A well-formed pair, each answering the other's postcondition: it
/// coordinates on its second arrival.
std::vector<std::string> Pair(const std::string& tag) {
  return {"p" + tag + ": { C" + tag + "(Q, y) } C" + tag +
              "(P, y) :- R(y, 1).",
          "r" + tag + ": { C" + tag + "(P, z) } C" + tag +
              "(Q, z) :- R(z, 1)."};
}

void FillFacts(Database* db) {
  Relation* r = *db->CreateRelation("R", {"a", "b"});
  ASSERT_TRUE(r->Insert({Value::Int(5), Value::Int(1)}).ok());
  ASSERT_TRUE(r->Insert({Value::Int(6), Value::Int(2)}).ok());
}

/// Submits both ill-matched texts and then a pair on `service` (ids 0
/// to 3): the pair delivers, the other two stay pending through a
/// flush.
void ExpectStreamSurvives(CoordinationService* service) {
  std::vector<std::vector<QueryId>> delivered;
  service->set_delivery_callback([&](const Delivery& delivery) {
    delivered.push_back(delivery.QueryIds());
  });
  for (const char* text : {kUnknownRelation, kWrongArity}) {
    auto id = service->Submit(text);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_TRUE(service->IsPending(*id)) << text;
  }
  for (const std::string& text : Pair("0")) {
    ASSERT_TRUE(service->Submit(text).ok()) << text;
  }
  EXPECT_EQ(service->Flush(), 0u);
  EXPECT_EQ(delivered, (std::vector<std::vector<QueryId>>{{2, 3}}));
  EXPECT_EQ(service->PendingQueries(), (std::vector<QueryId>{0, 1}));
  service->set_delivery_callback(nullptr);
}

TEST(SchemaMismatchTest, CoordinationEngineKeepsThemPending) {
  Database db;
  FillFacts(&db);
  CoordinationEngine engine(&db);
  ExpectStreamSurvives(&engine);
}

TEST(SchemaMismatchTest, CoordinationEngineBatchKeepsThemPending) {
  Database db;
  FillFacts(&db);
  CoordinationEngine engine(&db);
  std::vector<std::string> batch = {kUnknownRelation, kWrongArity};
  for (const std::string& text : Pair("0")) batch.push_back(text);
  std::vector<std::vector<QueryId>> delivered;
  engine.set_delivery_callback([&](const Delivery& delivery) {
    delivered.push_back(delivery.QueryIds());
  });
  ASSERT_TRUE(engine.SubmitBatch(batch).ok());
  EXPECT_EQ(delivered, (std::vector<std::vector<QueryId>>{{2, 3}}));
  EXPECT_EQ(engine.PendingQueries(), (std::vector<QueryId>{0, 1}));
}

TEST(SchemaMismatchTest, ShardedEngineKeepsThemPending) {
  Database db;
  FillFacts(&db);
  ShardedCoordinationEngine engine(&db);
  ExpectStreamSurvives(&engine);
}

TEST(SchemaMismatchTest, ReferenceCoordinatorKeepsThemPending) {
  Database db;
  FillFacts(&db);
  ReferenceCoordinator reference(&db);
  ExpectStreamSurvives(&reference);
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_schema_XXXXXX";
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

/// The production stack: a session (default options) over the durable
/// decorator over the sharded engine.
struct Stack {
  Database db;
  std::unique_ptr<ShardedCoordinationEngine> engine;
  std::unique_ptr<DurableCoordinationService> durable;
  std::unique_ptr<SessionManager> manager;
  ClientSession* session = nullptr;
  std::vector<std::vector<QueryId>> delivered;

  void Wire(const std::string& dir, DurableState* state) {
    engine = std::make_unique<ShardedCoordinationEngine>(&db);
    DurabilityOptions durability;
    durability.dir = dir;
    durability.fsync = FsyncPolicy::kNone;
    auto created =
        DurableCoordinationService::Create(engine.get(), &db, durability);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    durable = std::move(*created);
    manager = std::make_unique<SessionManager>(durable.get());
    session = manager->Open();
    session->set_event_callback([this](const SessionEvent& event) {
      delivered.push_back(event.delivery->QueryIds());
    });
    if (state != nullptr) {
      Status recovered = durable->Recover(std::move(*state), manager.get());
      ASSERT_TRUE(recovered.ok()) << recovered.ToString();
      EXPECT_EQ(durable->recovery_report().anomalies, 0u);
    }
  }
};

TEST(SchemaMismatchTest, SessionsOverDurableShardedSurviveRecover) {
  TempDir dir;
  {
    Stack stack;
    FillFacts(&stack.db);
    stack.Wire(dir.path(), nullptr);
    if (::testing::Test::HasFatalFailure()) return;
    for (const char* text : {kUnknownRelation, kWrongArity}) {
      SubmitOutcome outcome = stack.session->Submit(text);
      ASSERT_TRUE(outcome) << outcome.message;
      EXPECT_TRUE(stack.session->HasPending(outcome.id)) << text;
    }
    for (const std::string& text : Pair("0")) {
      ASSERT_TRUE(stack.session->Submit(text)) << text;
    }
    EXPECT_EQ(stack.manager->Flush(), 0u);
    EXPECT_EQ(stack.delivered, (std::vector<std::vector<QueryId>>{{2, 3}}));
    EXPECT_EQ(stack.session->PendingQueries(), (std::vector<QueryId>{0, 1}));
    // Crash: destructors only.  The WAL replays all four submissions.
  }
  auto state = ReadDurableState(dir.path());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  Stack stack;
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &stack.db).ok());
  stack.Wire(dir.path(), &*state);
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(stack.manager->PendingQueries(), (std::vector<QueryId>{0, 1}));
  EXPECT_EQ(stack.session->PendingQueries(), (std::vector<QueryId>{0, 1}));
  // The replayed pair was delivered before the crash: suppressed.
  EXPECT_TRUE(stack.delivered.empty());
  for (const std::string& text : Pair("1")) {
    ASSERT_TRUE(stack.session->Submit(text)) << text;
  }
  EXPECT_EQ(stack.delivered, (std::vector<std::vector<QueryId>>{{4, 5}}));
  EXPECT_EQ(stack.session->PendingQueries(), (std::vector<QueryId>{0, 1}));
}

}  // namespace
}  // namespace entangled
