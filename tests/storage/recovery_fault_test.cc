// Fault-injection recovery tests (storage/durable_service.h): a real
// recorded scenario is damaged on disk — bit-flipped WAL frames, torn
// tails, deleted or corrupted snapshots, missing segments — and every
// injection must be *detected and typed* in the RecoveryReport while
// recovery still lands on the newest consistent point.  Nothing here
// may crash, and nothing may silently skip damage.

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/value.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "system/engine.h"

namespace entangled {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_fault_XXXXXX";
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
  flights->Insert({Value::Int(102), Value::Str("Zurich")});
}

/// Records the scenario every fault test damages:
///
///   wal-0:  p0+p1 (coordinate, delivery #0), s0 (stuck)
///   snapshot-1 via SnapshotNow()  — pending {2}, watermark 1
///   wal-1:  batch {p2, p3} (delivery #1), s1 (stuck)
///   crash (plain destruction, no shutdown)
///
/// Durable ids: p0=0 p1=1 s0=2 p2=3 p3=4 s1=5; final pending {2, 5}.
void RecordScenario(const std::string& dir) {
  Database db;
  FillFacts(&db);
  EngineOptions engine_options;
  engine_options.evaluate_every = 1;
  CoordinationEngine inner(&db, engine_options);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.initial_evaluate_every = 1;
  auto durable = DurableCoordinationService::Create(&inner, &db, durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  size_t deliveries = 0;
  (*durable)->set_delivery_callback(
      [&deliveries](const Delivery&) { ++deliveries; });

  ASSERT_TRUE(
      (*durable)
          ->Submit("p0: { R(B, x) } R(A, x) :- Flights(x, Zurich).")
          .ok());
  ASSERT_TRUE(
      (*durable)->Submit("p1: { } R(B, y) :- Flights(y, Zurich).").ok());
  ASSERT_TRUE(
      (*durable)
          ->Submit("s0: { R(Ghost, z) } R(S0, z) :- Flights(z, Zurich).")
          .ok());
  ASSERT_TRUE((*durable)->SnapshotNow().ok());
  ASSERT_TRUE((*durable)
                  ->SubmitBatch(
                      {"p2: { R(D, u) } R(C, u) :- Flights(u, Zurich).",
                       "p3: { } R(D, v) :- Flights(v, Zurich)."})
                  .ok());
  ASSERT_TRUE(
      (*durable)
          ->Submit("s1: { R(Ghost, w) } R(S1, w) :- Flights(w, Zurich).")
          .ok());
  ASSERT_EQ(deliveries, 2u);
  ASSERT_EQ((*durable)->num_pending(), 2u);
  // Scope exit = crash: destructors only, no rotation, no shutdown.
}

/// Recovers the directory and returns the rehydrated service; the
/// caller inspects the report and pending set.  Any *load* failure is
/// surfaced via `state_error` instead (service stays null).
struct Recovered {
  Database db;
  std::unique_ptr<CoordinationEngine> inner;
  std::unique_ptr<DurableCoordinationService> durable;
  size_t forwarded = 0;  ///< deliveries downstream saw during recovery
  Status state_error = Status::OK();
};

void Rehydrate(const std::string& dir, Recovered* out) {
  auto state = ReadDurableState(dir);
  if (!state.ok()) {
    out->state_error = state.status();
    return;
  }
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &out->db).ok());
  EngineOptions engine_options;
  engine_options.evaluate_every = 1;
  out->inner = std::make_unique<CoordinationEngine>(&out->db, engine_options);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.initial_evaluate_every = 1;
  auto durable =
      DurableCoordinationService::Create(out->inner.get(), &out->db,
                                         durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  out->durable = std::move(*durable);
  out->durable->set_delivery_callback(
      [out](const Delivery&) { ++out->forwarded; });
  Status recovered = out->durable->Recover(std::move(*state),
                                           /*sessions=*/nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
}

void FlipByte(const std::string& path, uint64_t offset, uint8_t mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " too short for offset " << offset;
  byte = static_cast<char>(byte ^ mask);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

uint64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(f.good()) << path;
  return static_cast<uint64_t>(f.tellg());
}

TEST(RecoveryFaultTest, CleanRecoveryBaseline) {
  TempDir dir;
  RecordScenario(dir.path());
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_EQ(report.snapshot_epoch, 1u);
  EXPECT_EQ(report.snapshots_skipped, 0u);
  EXPECT_GT(report.replayed_events, 0u);
  EXPECT_EQ(report.recovered_pending, 1u);  // s0 rode the snapshot
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.corruption_detected);
  EXPECT_EQ(report.anomalies, 0u);
  // The p2/p3 delivery was re-derived below the watermark: suppressed,
  // never re-forwarded to the (new) downstream.
  EXPECT_EQ(report.suppressed_deliveries, 1u);
  EXPECT_EQ(r.forwarded, 0u);
  EXPECT_EQ(report.resumed_sequence, 2u);
  EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

TEST(RecoveryFaultTest, TornWalTailIsTruncatedAndReported) {
  TempDir dir;
  RecordScenario(dir.path());
  // Chop the live segment mid-record: s1's submit becomes a torn tail.
  const std::string wal1 = WalPath(dir.path(), 1);
  ASSERT_EQ(::truncate(wal1.c_str(),
                       static_cast<off_t>(FileSize(wal1) - 3)),
            0);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_TRUE(report.torn_tail);
  EXPECT_GT(report.truncated_bytes, 0u);
  EXPECT_FALSE(report.corruption_detected);
  EXPECT_EQ(report.anomalies, 0u);
  // s1 was inside the torn record: gone; everything before it holds.
  EXPECT_EQ(r.durable->PendingQueries(), std::vector<QueryId>{2});
  // The service is live again: the next submission takes s1's id.
  auto id = r.durable->Submit(
      "s1b: { R(Ghost, w) } R(S1, w) :- Flights(w, Zurich).");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 5);
}

TEST(RecoveryFaultTest, BitFlippedWalFrameIsCorruptionNotATail) {
  TempDir dir;
  RecordScenario(dir.path());
  // Flip one payload bit of the *first* frame in wal-1 (the batch): a
  // non-final frame failing its CRC is corruption; the records beyond
  // it are unrecoverable and the report must say so.
  FlipByte(WalPath(dir.path(), 1), 20 + 8 + 4, 0x08);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_TRUE(report.corruption_detected);
  EXPECT_FALSE(report.corruption_detail.empty());
  // Only the snapshot's state survived: the whole wal-1 tail is lost.
  EXPECT_EQ(r.durable->PendingQueries(), std::vector<QueryId>{2});
  EXPECT_EQ(r.forwarded, 0u);
}

TEST(RecoveryFaultTest, DeletedNewestSnapshotFallsBackToGenesis) {
  TempDir dir;
  RecordScenario(dir.path());
  ASSERT_EQ(::unlink(SnapshotPath(dir.path(), 1).c_str()), 0);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_EQ(report.snapshot_epoch, 0u);  // the genesis snapshot
  EXPECT_EQ(report.segments_scanned, 2u);
  EXPECT_FALSE(report.corruption_detected);
  EXPECT_EQ(report.anomalies, 0u);
  // The full-log replay rebuilds the exact same state the newer
  // snapshot would have seeded: both stuck queries pending, both
  // pre-crash deliveries re-derived and suppressed.
  EXPECT_EQ(report.suppressed_deliveries, 2u);
  EXPECT_EQ(r.forwarded, 0u);
  EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
  EXPECT_EQ(report.resumed_sequence, 2u);
}

TEST(RecoveryFaultTest, CorruptNewestSnapshotIsSkippedWithACount) {
  TempDir dir;
  RecordScenario(dir.path());
  FlipByte(SnapshotPath(dir.path(), 1), 40, 0x20);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_EQ(report.snapshots_skipped, 1u);
  EXPECT_EQ(report.snapshot_epoch, 0u);
  EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

TEST(RecoveryFaultTest, MissingWalSegmentIsAGapNotASkip) {
  TempDir dir;
  RecordScenario(dir.path());
  // Force the genesis fallback *and* remove wal-0: the segment chain
  // from the chosen snapshot has a hole, which is corruption — replay
  // must stop at the last consistent point (the snapshot itself), not
  // leap over the gap into wal-1.
  ASSERT_EQ(::unlink(SnapshotPath(dir.path(), 1).c_str()), 0);
  ASSERT_EQ(::unlink(WalPath(dir.path(), 0).c_str()), 0);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_TRUE(report.corruption_detected);
  EXPECT_FALSE(report.corruption_detail.empty());
  EXPECT_EQ(report.replayed_events, 0u);
  EXPECT_TRUE(r.durable->PendingQueries().empty());
}

TEST(RecoveryFaultTest, NoLoadableSnapshotIsATypedErrorNotACrash) {
  TempDir dir;
  RecordScenario(dir.path());
  ASSERT_EQ(::unlink(SnapshotPath(dir.path(), 0).c_str()), 0);
  ASSERT_EQ(::unlink(SnapshotPath(dir.path(), 1).c_str()), 0);
  Recovered r;
  Rehydrate(dir.path(), &r);
  EXPECT_EQ(r.durable, nullptr);
  EXPECT_FALSE(r.state_error.ok());
  EXPECT_FALSE(r.state_error.message().empty());
}

TEST(RecoveryFaultTest, EmptyDirectoryIsATypedError) {
  TempDir dir;
  auto state = ReadDurableState(dir.path());
  EXPECT_FALSE(state.ok());
}

TEST(RecoveryFaultTest, RecoveredServiceRotatesAwayFromTheDamage) {
  // After recovering past a torn tail, the end-of-recovery rotation
  // must leave the directory in a state a *second* recovery reads
  // without seeing any damage (the report of run 2 is clean).
  TempDir dir;
  RecordScenario(dir.path());
  const std::string wal1 = WalPath(dir.path(), 1);
  ASSERT_EQ(::truncate(wal1.c_str(),
                       static_cast<off_t>(FileSize(wal1) - 3)),
            0);
  {
    Recovered first;
    Rehydrate(dir.path(), &first);
    ASSERT_NE(first.durable, nullptr);
    EXPECT_TRUE(first.durable->recovery_report().torn_tail);
  }
  Recovered second;
  Rehydrate(dir.path(), &second);
  ASSERT_NE(second.durable, nullptr);
  const RecoveryReport& report = second.durable->recovery_report();
  EXPECT_FALSE(report.torn_tail);
  EXPECT_FALSE(report.corruption_detected);
  EXPECT_EQ(second.durable->PendingQueries(), std::vector<QueryId>{2});
}

}  // namespace
}  // namespace entangled
