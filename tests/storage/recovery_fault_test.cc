// Fault-injection recovery tests (storage/durable_service.h): a real
// recorded scenario is damaged on disk — bit-flipped WAL frames, torn
// tails, deleted or corrupted snapshots, CRC-valid snapshots carrying
// query ids outside QueryId's range, missing WAL segments, deleted
// or corrupted fact segments, crashes between a fact segment and its
// snapshot — and every injection must be *detected and typed* in the
// RecoveryReport while recovery still lands on the newest consistent
// point.  Nothing here may crash, and nothing may silently skip damage.

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>

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
  std::unique_ptr<CoordinationService> inner;
  std::unique_ptr<DurableCoordinationService> durable;
  size_t forwarded = 0;  ///< deliveries downstream saw during recovery
  Status state_error = Status::OK();
};

/// `before_recover`, when set, runs on the rebuilt database between
/// BuildDatabaseFromSnapshot and Recover().  `sharded` recovers into a
/// ShardedCoordinationEngine instead of a CoordinationEngine.
void Rehydrate(const std::string& dir, Recovered* out,
               const std::function<void(Database*)>& before_recover = {},
               bool sharded = false) {
  auto state = ReadDurableState(dir);
  if (!state.ok()) {
    out->state_error = state.status();
    return;
  }
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state->snapshot, &out->db).ok());
  if (before_recover) before_recover(&out->db);
  EngineOptions engine_options;
  engine_options.evaluate_every = 1;
  if (sharded) {
    ShardedEngineOptions sharded_options;
    sharded_options.engine = engine_options;
    out->inner = std::make_unique<ShardedCoordinationEngine>(&out->db,
                                                             sharded_options);
  } else {
    out->inner =
        std::make_unique<CoordinationEngine>(&out->db, engine_options);
  }
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

/// Fact segment file names in `dir`, sorted.
std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> names;
  DIR* handle = opendir(dir.c_str());
  EXPECT_NE(handle, nullptr) << dir;
  if (handle == nullptr) return names;
  while (dirent* entry = readdir(handle)) {
    const std::string name = entry->d_name;
    if (name.rfind("facts-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      names.push_back(name);
    }
  }
  closedir(handle);
  std::sort(names.begin(), names.end());
  return names;
}

/// Rows of `relation` in `db` (0 when the relation is missing).
size_t RowsOf(const Database& db, const std::string& relation) {
  const Relation* found = db.Find(relation);
  return found == nullptr ? 0 : found->size();
}

/// Records a scenario whose facts change between rotations:
///
///   genesis: facts-0-0 (Flights: 101, 102)
///   wal-0:   s0 (stuck on Ghost)
///   insert Flights(103, Zurich); snapshot-1 writes facts-1-0
///   wal-1:   s1 (stuck on Ghost)
///   crash
void RecordWithFactInsert(const std::string& dir) {
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
  ASSERT_TRUE(
      (*durable)
          ->Submit("s0: { R(Ghost, z) } R(S0, z) :- Flights(z, Zurich).")
          .ok());
  ASSERT_TRUE(db.FindMutable("Flights")
                  ->Insert({Value::Int(103), Value::Str("Zurich")})
                  .ok());
  ASSERT_TRUE((*durable)->SnapshotNow().ok());
  ASSERT_TRUE(
      (*durable)
          ->Submit("s1: { R(Ghost, w) } R(S1, w) :- Flights(w, Zurich).")
          .ok());
  ASSERT_EQ(SegmentFiles(dir),
            (std::vector<std::string>{"facts-0000000000-0000.seg",
                                      "facts-0000000001-0000.seg"}));
}

/// Lands fact segment (epoch, 0) holding other Flights rows than the
/// recorded ones: what a rotation that crashed before its snapshot
/// committed leaves behind.
void WriteForeignSegment(const std::string& dir, uint64_t epoch) {
  Database other;
  Relation* flights = *other.CreateRelation("Flights", {"flightId", "dest"});
  ASSERT_TRUE(flights->Insert({Value::Int(999), Value::Str("Nowhere")}).ok());
  ASSERT_TRUE(WriteFactSegment(*flights, epoch, 0, dir).ok());
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

/// Rewrites snapshot-1 of the recorded scenario through the real
/// writer, so its CRC is valid, after `edit` changed its state.
void RewriteSnapshot(const std::string& dir,
                     const std::function<void(SnapshotState*)>& edit) {
  auto state = LoadSnapshot(SnapshotPath(dir, 1));
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  edit(&*state);
  ASSERT_TRUE(WriteSnapshot(*state, dir).ok());
}

// A query id outside [0, max QueryId] in a CRC-valid snapshot makes the
// snapshot malformed: it is skipped like a corrupt one.  Recovery used
// to narrow such ids to QueryId, so a negative pending id aborted in
// ResumeNumbering and an id past 2^32 made the first Submit after
// recovery abort.
TEST(RecoveryFaultTest, NegativePendingIdSkipsTheSnapshot) {
  for (const bool sharded : {false, true}) {
    TempDir dir;
    RecordScenario(dir.path());
    RewriteSnapshot(dir.path(), [](SnapshotState* state) {
      ASSERT_EQ(state->pending.size(), 1u);
      state->pending[0].id = -7;
    });
    Recovered r;
    Rehydrate(dir.path(), &r, {}, sharded);
    ASSERT_NE(r.durable, nullptr);
    const RecoveryReport& report = r.durable->recovery_report();
    EXPECT_EQ(report.snapshots_skipped, 1u);
    EXPECT_EQ(report.snapshot_epoch, 0u);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
  }
}

// Recovery re-admits a snapshot's pending queries in ascending id order
// below its next id.  A CRC-valid snapshot that breaks either used to be
// chosen and then fail Recover ("out of order"), although the older
// snapshot plus the WAL recover; now it does not decode and is skipped.
TEST(RecoveryFaultTest, PendingIdAtTheNextIdSkipsTheSnapshot) {
  for (const bool sharded : {false, true}) {
    TempDir dir;
    RecordScenario(dir.path());
    RewriteSnapshot(dir.path(), [](SnapshotState* state) {
      ASSERT_EQ(state->pending.size(), 1u);
      state->pending[0].id = state->next_durable_id;
    });
    Recovered r;
    Rehydrate(dir.path(), &r, {}, sharded);
    ASSERT_NE(r.durable, nullptr);
    const RecoveryReport& report = r.durable->recovery_report();
    EXPECT_EQ(report.snapshots_skipped, 1u);
    EXPECT_EQ(report.snapshot_epoch, 0u);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
  }
}

TEST(RecoveryFaultTest, DescendingPendingIdsSkipTheSnapshot) {
  for (const bool sharded : {false, true}) {
    TempDir dir;
    RecordScenario(dir.path());
    RewriteSnapshot(dir.path(), [](SnapshotState* state) {
      ASSERT_EQ(state->pending.size(), 1u);
      ASSERT_EQ(state->pending[0].id, 2);
      SnapshotPendingQuery earlier = state->pending[0];
      earlier.id = 1;
      state->pending.push_back(earlier);
    });
    Recovered r;
    Rehydrate(dir.path(), &r, {}, sharded);
    ASSERT_NE(r.durable, nullptr);
    const RecoveryReport& report = r.durable->recovery_report();
    EXPECT_EQ(report.snapshots_skipped, 1u);
    EXPECT_EQ(report.snapshot_epoch, 0u);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
  }
}

TEST(RecoveryFaultTest, NextIdBeyondQueryIdRangeSkipsTheSnapshot) {
  for (const bool sharded : {false, true}) {
    TempDir dir;
    RecordScenario(dir.path());
    RewriteSnapshot(dir.path(), [](SnapshotState* state) {
      state->next_durable_id = (int64_t{1} << 32) + 3;
    });
    Recovered r;
    Rehydrate(dir.path(), &r, {}, sharded);
    ASSERT_NE(r.durable, nullptr);
    EXPECT_EQ(r.durable->recovery_report().snapshots_skipped, 1u);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
    auto id = r.durable->Submit(
        "s2: { R(Ghost, t) } R(S2, t) :- Flights(t, Zurich).");
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, 6);
  }
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

TEST(RecoveryFaultTest, ClosingRotationReusesTheLoadedSegments) {
  // The facts never changed, so neither the recording's rotation nor
  // the one that closes each recovery writes a fact segment.
  TempDir dir;
  RecordScenario(dir.path());
  const std::vector<std::string> genesis_only = {"facts-0000000000-0000.seg"};
  EXPECT_EQ(SegmentFiles(dir.path()), genesis_only);
  for (int pass = 0; pass < 2; ++pass) {
    Recovered r;
    Rehydrate(dir.path(), &r);
    ASSERT_NE(r.durable, nullptr);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
    EXPECT_EQ(RowsOf(r.db, "Flights"), 2u);
  }
  EXPECT_EQ(SegmentFiles(dir.path()), genesis_only);
}

TEST(RecoveryFaultTest, DeletedSegmentSkipsToAnOlderSnapshot) {
  TempDir dir;
  RecordWithFactInsert(dir.path());
  ASSERT_EQ(::unlink(FactSegmentPath(dir.path(), 1, 0).c_str()), 0);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_EQ(report.snapshots_skipped, 1u);
  EXPECT_EQ(report.snapshot_epoch, 0u);
  EXPECT_NE(report.corruption_detail.find("facts-0000000001-0000.seg"),
            std::string::npos)
      << report.ToString();
  // Genesis facts: the row inserted before snapshot-1 lived only in the
  // lost segment.  The log replays in full on top of them.
  EXPECT_EQ(RowsOf(r.db, "Flights"), 2u);
  EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{0, 1}));
}

TEST(RecoveryFaultTest, BitFlippedSegmentSkipsToAnOlderSnapshot) {
  TempDir dir;
  RecordWithFactInsert(dir.path());
  FlipByte(FactSegmentPath(dir.path(), 1, 0), 40, 0x04);
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const RecoveryReport& report = r.durable->recovery_report();
  EXPECT_EQ(report.snapshots_skipped, 1u);
  EXPECT_EQ(report.snapshot_epoch, 0u);
  EXPECT_NE(report.corruption_detail.find("CRC mismatch"), std::string::npos)
      << report.ToString();
  EXPECT_EQ(RowsOf(r.db, "Flights"), 2u);
}

TEST(RecoveryFaultTest, SegmentEverySnapshotNamesIsASinglePointOfFailure) {
  // Both snapshots of the base scenario name genesis's fact segment:
  // deleting or damaging it leaves no loadable snapshot, which is the
  // typed error, never an abort and never a partial database.
  for (const bool remove : {true, false}) {
    TempDir dir;
    RecordScenario(dir.path());
    const std::string segment = FactSegmentPath(dir.path(), 0, 0);
    if (remove) {
      ASSERT_EQ(::unlink(segment.c_str()), 0);
    } else {
      FlipByte(segment, 30, 0x01);
    }
    Recovered r;
    Rehydrate(dir.path(), &r);
    EXPECT_EQ(r.durable, nullptr);
    ASSERT_FALSE(r.state_error.ok());
    EXPECT_NE(r.state_error.message().find("no loadable snapshot"),
              std::string::npos)
        << r.state_error.ToString();
    EXPECT_NE(r.state_error.message().find("2 damaged"), std::string::npos)
        << r.state_error.ToString();
  }
}

TEST(RecoveryFaultTest, SegmentWithoutItsSnapshotIsIgnored) {
  // Crash between a fact segment's rename and its snapshot's: the
  // orphan holds the name the next rotation of that epoch will write.
  TempDir dir;
  RecordScenario(dir.path());
  WriteForeignSegment(dir.path(), 2);
  {
    // Recovery picks snapshot-1 and reuses its segment; the orphan stays
    // unnamed.
    Recovered r;
    Rehydrate(dir.path(), &r);
    ASSERT_NE(r.durable, nullptr);
    EXPECT_EQ(r.durable->recovery_report().snapshot_epoch, 1u);
    EXPECT_EQ(RowsOf(r.db, "Flights"), 2u);
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
  }
  Recovered second;
  Rehydrate(dir.path(), &second);
  ASSERT_NE(second.durable, nullptr);
  EXPECT_EQ(second.durable->recovery_report().snapshot_epoch, 2u);
  EXPECT_EQ(RowsOf(second.db, "Flights"), 2u);
  EXPECT_EQ(second.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

TEST(RecoveryFaultTest, ReusedSegmentNameIsReplaced) {
  // As above, but the closing rotation must write the orphan's name:
  // a row was inserted before Recover().  The new segment replaces the
  // orphan, and a second recovery reads the new rows.
  TempDir dir;
  RecordScenario(dir.path());
  WriteForeignSegment(dir.path(), 2);
  {
    Recovered r;
    Rehydrate(dir.path(), &r, [](Database* db) {
      ASSERT_TRUE(db->FindMutable("Flights")
                      ->Insert({Value::Int(104), Value::Str("Zurich")})
                      .ok());
    });
    ASSERT_NE(r.durable, nullptr);
  }
  Recovered second;
  Rehydrate(dir.path(), &second);
  ASSERT_NE(second.durable, nullptr);
  EXPECT_EQ(second.durable->recovery_report().snapshot_epoch, 2u);
  const Relation* flights = second.db.Find("Flights");
  ASSERT_NE(flights, nullptr);
  ASSERT_EQ(flights->size(), 3u);
  EXPECT_EQ(flights->row(2)[0], Value::Int(104));
  EXPECT_EQ(second.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

TEST(RecoveryFaultTest, GenesisCrashLeavingOnlySegmentsRerunsGenesis) {
  TempDir dir;
  // The crashed genesis landed a segment with other rows, then died
  // before its snapshot.
  WriteForeignSegment(dir.path(), 0);
  auto state = ReadDurableState(dir.path());
  EXPECT_FALSE(state.ok());  // nothing to recover: no snapshot
  RecordScenario(dir.path());  // Create sees a fresh directory
  Recovered r;
  Rehydrate(dir.path(), &r);
  ASSERT_NE(r.durable, nullptr);
  const Relation* flights = r.db.Find("Flights");
  ASSERT_NE(flights, nullptr);
  ASSERT_EQ(flights->size(), 2u);
  EXPECT_EQ(flights->row(0)[0], Value::Int(101));
  EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

TEST(RecoveryFaultTest, RowsInsertedBetweenRotationsSurviveTwoRecoveries) {
  TempDir dir;
  RecordWithFactInsert(dir.path());
  for (int pass = 0; pass < 2; ++pass) {
    Recovered r;
    Rehydrate(dir.path(), &r);
    ASSERT_NE(r.durable, nullptr);
    EXPECT_EQ(r.durable->recovery_report().snapshots_skipped, 0u);
    EXPECT_EQ(RowsOf(r.db, "Flights"), 3u) << "pass " << pass;
    EXPECT_EQ(r.durable->PendingQueries(), (std::vector<QueryId>{0, 1}));
  }
  // Neither closing rotation found a changed relation.
  EXPECT_EQ(SegmentFiles(dir.path()),
            (std::vector<std::string>{"facts-0000000000-0000.seg",
                                      "facts-0000000001-0000.seg"}));
}

TEST(RecoveryFaultTest, RowsInsertedBeforeRecoverLandInANewSegment) {
  TempDir dir;
  RecordScenario(dir.path());
  {
    Recovered r;
    Rehydrate(dir.path(), &r, [](Database* db) {
      ASSERT_TRUE(db->FindMutable("Flights")
                      ->Insert({Value::Int(104), Value::Str("Zurich")})
                      .ok());
      Relation* hotels = *db->CreateRelation("Hotels", {"city"});
      ASSERT_TRUE(hotels->Insert({Value::Str("Zurich")}).ok());
    });
    ASSERT_NE(r.durable, nullptr);
    EXPECT_EQ(r.durable->epoch(), 2u);
  }
  // The closing rotation (epoch 2) wrote both changed relations.
  EXPECT_EQ(SegmentFiles(dir.path()),
            (std::vector<std::string>{"facts-0000000000-0000.seg",
                                      "facts-0000000002-0000.seg",
                                      "facts-0000000002-0001.seg"}));
  Recovered second;
  Rehydrate(dir.path(), &second);
  ASSERT_NE(second.durable, nullptr);
  EXPECT_EQ(RowsOf(second.db, "Flights"), 3u);
  EXPECT_EQ(RowsOf(second.db, "Hotels"), 1u);
  EXPECT_EQ(second.durable->PendingQueries(), (std::vector<QueryId>{2, 5}));
}

}  // namespace
}  // namespace entangled
