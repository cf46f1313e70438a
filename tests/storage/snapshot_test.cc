// Snapshot and fact-segment round-trips, database rebuild, directory
// listing, the atomic-rename crash simulation, and hostile counts in
// well-framed files (storage/snapshot.h).

#include "storage/snapshot.h"

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/value.h"
#include "storage/codec.h"
#include "storage/wal.h"  // Crc32c

namespace entangled {
namespace {

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_snap_XXXXXX";
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

/// The facts every snapshot here names: one populated relation and one
/// empty one, at catalog positions 0 and 1.
void FillSampleFacts(Database* db) {
  Relation* fact = *db->CreateRelation("fact", {"who", "score"});
  ASSERT_TRUE(fact->Insert({Value::Str("ada"), Value::Int(3)}).ok());
  ASSERT_TRUE(fact->Insert({Value::Str("max"), Value::Int(-7)}).ok());
  ASSERT_TRUE(db->CreateRelation("unused", {"x"}).ok());
}

/// Writes one fact segment per relation of `db` at `segment_epoch` and
/// returns a snapshot of `epoch` that names them, with the facts filled
/// in as LoadSnapshot will fill them.
SnapshotState StateNaming(const Database& db, const std::string& dir,
                          uint64_t epoch, uint64_t segment_epoch) {
  SnapshotState state;
  state.epoch = epoch;
  state.next_durable_id = 11;
  state.next_sequence = 6;
  state.evaluate_every = 2;
  state.cadence_phase = 1;
  state.total_events = 19;
  for (size_t position = 0; position < db.relation_count(); ++position) {
    const Relation* relation = db.Find(db.relation_names()[position]);
    EXPECT_TRUE(
        WriteFactSegment(*relation, segment_epoch, position, dir).ok());
    SnapshotRelation named;
    named.segment_epoch = segment_epoch;
    named.name = relation->name();
    named.columns = relation->column_names();
    for (const RowView& row : relation->rows()) {
      named.rows.push_back(row.ToTuple());
    }
    state.relations.push_back(std::move(named));
  }
  SnapshotPendingQuery pending;
  pending.id = 9;
  pending.session = 1;
  pending.text = "q9: answers(X) :- fact(X, Y)";
  state.pending.push_back(pending);
  return state;
}

SnapshotState SampleState(const std::string& dir, uint64_t epoch) {
  Database db;
  FillSampleFacts(&db);
  return StateNaming(db, dir, epoch, epoch);
}

void ExpectStatesEqual(const SnapshotState& a, const SnapshotState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.next_durable_id, b.next_durable_id);
  EXPECT_EQ(a.next_sequence, b.next_sequence);
  EXPECT_EQ(a.evaluate_every, b.evaluate_every);
  EXPECT_EQ(a.cadence_phase, b.cadence_phase);
  EXPECT_EQ(a.total_events, b.total_events);
  ASSERT_EQ(a.relations.size(), b.relations.size());
  for (size_t i = 0; i < a.relations.size(); ++i) {
    EXPECT_EQ(a.relations[i].segment_epoch, b.relations[i].segment_epoch);
    EXPECT_EQ(a.relations[i].name, b.relations[i].name);
    EXPECT_EQ(a.relations[i].columns, b.relations[i].columns);
    EXPECT_EQ(a.relations[i].rows, b.relations[i].rows);
  }
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (size_t i = 0; i < a.pending.size(); ++i) {
    EXPECT_EQ(a.pending[i].id, b.pending[i].id);
    EXPECT_EQ(a.pending[i].session, b.pending[i].session);
    EXPECT_EQ(a.pending[i].text, b.pending[i].text);
  }
}

/// `magic | u32 length | u32 crc | payload`, CRC-valid: the snapshot
/// frame, so a hostile payload reaches the decoder.
void WriteSnapshotFrame(const std::string& path, const char* magic,
                        const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> bytes(magic, magic + 8);
  codec::PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  codec::PutU32(&bytes, Crc32c(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// The six counters every snapshot payload starts with (epoch 0).
std::vector<uint8_t> SnapshotCounters() {
  std::vector<uint8_t> payload;
  for (int i = 0; i < 6; ++i) codec::PutU64(&payload, 0);
  return payload;
}

void FlipByteAt(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  char byte = 0;
  f.seekg(offset);
  f.read(&byte, 1);
  ASSERT_TRUE(f.good()) << path << " too short for offset " << offset;
  byte = static_cast<char>(byte ^ 0x10);
  f.seekp(offset);
  f.write(&byte, 1);
}

TEST(SnapshotTest, RoundTrips) {
  TempDir dir;
  const SnapshotState state = SampleState(dir.path(), 4);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), state.epoch));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
}

TEST(SnapshotTest, NamesSegmentsOfEarlierEpochs) {
  // A rotation that found no relation changed names the segments an
  // earlier rotation wrote.
  TempDir dir;
  Database db;
  FillSampleFacts(&db);
  const SnapshotState state = StateNaming(db, dir.path(), 7, 2);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), 7));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
}

TEST(SnapshotTest, FactSegmentsRebuildTheDatabase) {
  TempDir dir;
  Database db;
  auto rel = db.CreateRelation("edge", {"src", "dst"});
  ASSERT_TRUE(rel.ok());
  (*rel)->Insert({Value::Str("a"), Value::Str("b")});
  (*rel)->Insert({Value::Str("b"), Value::Str("it's \"quoted\"")});
  auto scores = db.CreateRelation("score", {"who", "n"});
  ASSERT_TRUE(scores.ok());
  (*scores)->Insert({Value::Str("a"), Value::Int(INT64_MIN)});
  const SnapshotState state = StateNaming(db, dir.path(), 0, 0);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());

  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), 0));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Database rebuilt;
  ASSERT_TRUE(BuildDatabaseFromSnapshot(*loaded, &rebuilt).ok());
  ASSERT_EQ(rebuilt.relation_names(), db.relation_names());
  for (const std::string& name : db.relation_names()) {
    const Relation* original = db.Find(name);
    const Relation* copy = rebuilt.Find(name);
    ASSERT_NE(copy, nullptr) << name;
    EXPECT_EQ(copy->column_names(), original->column_names());
    ASSERT_EQ(copy->size(), original->size());
    for (RowId r = 0; r < original->size(); ++r) {
      EXPECT_EQ(copy->row(r).ToTuple(), original->row(r).ToTuple());
    }
  }
}

TEST(SnapshotTest, SegmentNamesComeFromEpochAndPosition) {
  EXPECT_EQ(FactSegmentFileName(3, 1), "facts-0000000003-0001.seg");
  // A relation name is never part of a path.
  TempDir dir;
  Database db;
  Relation* odd = *db.CreateRelation("../escape/..", {"x"});
  ASSERT_TRUE(odd->Insert({Value::Int(1)}).ok());
  ASSERT_TRUE(WriteFactSegment(*odd, 3, 1, dir.path()).ok());
  SnapshotRelation loaded;
  ASSERT_TRUE(LoadFactSegment(dir.path(), 3, 1, &loaded).ok());
  EXPECT_EQ(loaded.name, "../escape/..");
  EXPECT_EQ(loaded.rows, (std::vector<Tuple>{{Value::Int(1)}}));
}

TEST(SnapshotTest, SegmentUnderAnotherNameFailsTheLoad) {
  // The segment records its own epoch and position: a file copied or
  // renamed onto another segment's name does not load as that segment.
  TempDir dir;
  Database db;
  FillSampleFacts(&db);
  ASSERT_TRUE(WriteFactSegment(*db.Find("fact"), 2, 0, dir.path()).ok());
  ASSERT_EQ(::rename(FactSegmentPath(dir.path(), 2, 0).c_str(),
                     FactSegmentPath(dir.path(), 2, 1).c_str()),
            0);
  SnapshotRelation loaded;
  Status status = LoadFactSegment(dir.path(), 2, 1, &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("malformed"), std::string::npos)
      << status.ToString();
}

TEST(SnapshotTest, RewrittenSegmentReplacesTheOldOne) {
  // A crash after a segment landed but before its snapshot committed
  // leaves the name to be reused by the next rotation of that epoch.
  TempDir dir;
  Database db;
  FillSampleFacts(&db);
  Relation* fact = db.FindMutable("fact");
  ASSERT_TRUE(WriteFactSegment(*fact, 5, 0, dir.path()).ok());
  ASSERT_TRUE(fact->Insert({Value::Str("zoe"), Value::Int(1)}).ok());
  ASSERT_TRUE(WriteFactSegment(*fact, 5, 0, dir.path()).ok());
  SnapshotRelation loaded;
  ASSERT_TRUE(LoadFactSegment(dir.path(), 5, 0, &loaded).ok());
  EXPECT_EQ(loaded.rows.size(), 3u);
}

TEST(SnapshotTest, MissingSegmentMakesTheSnapshotUnloadable) {
  TempDir dir;
  const SnapshotState state = SampleState(dir.path(), 3);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  ASSERT_EQ(::unlink(FactSegmentPath(dir.path(), 3, 1).c_str()), 0);
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), 3));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("facts-0000000003-0001.seg"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, DamagedSegmentMakesTheSnapshotUnloadable) {
  TempDir dir;
  const SnapshotState state = SampleState(dir.path(), 3);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  FlipByteAt(FactSegmentPath(dir.path(), 3, 0), 30);
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), 3));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("CRC mismatch"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, UncommittedTempIsInvisibleToRecovery) {
  TempDir dir;
  SnapshotState genesis = SampleState(dir.path(), 0);
  ASSERT_TRUE(WriteSnapshot(genesis, dir.path()).ok());

  // Crash simulation: the next snapshot is fully written to its temp
  // path but the process dies before the rename.  Recovery must list
  // only the committed epoch — the temp file is ignorable garbage.
  SnapshotState next = SampleState(dir.path(), 1);
  auto temp = WriteSnapshotToTemp(next, dir.path());
  ASSERT_TRUE(temp.ok()) << temp.status().ToString();
  auto listing = ListStorageDir(dir.path());
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->snapshot_epochs, std::vector<uint64_t>{0});

  // The rename commits it; both epochs are visible and epoch 1 loads
  // byte-identically to what the temp held.
  ASSERT_TRUE(CommitSnapshot(*temp, SnapshotPath(dir.path(), 1)).ok());
  listing = ListStorageDir(dir.path());
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->snapshot_epochs, (std::vector<uint64_t>{0, 1}));
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), 1));
  ASSERT_TRUE(loaded.ok());
  ExpectStatesEqual(next, *loaded);
}

TEST(SnapshotTest, BitFlipFailsTheLoadWithATypedError) {
  TempDir dir;
  const SnapshotState state = SampleState(dir.path(), 4);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  const std::string path = SnapshotPath(dir.path(), state.epoch);
  FlipByteAt(path, 40);  // somewhere inside the payload
  auto loaded = LoadSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.status().message().empty());
}

TEST(SnapshotTest, PreviousLayoutFailsTheHeaderCheck) {
  // ESNP0002 snapshots embedded every relation's rows instead of naming
  // fact segments; the header check refuses them before the payload
  // could be mis-decoded under the current layout.
  TempDir dir;
  const SnapshotState state = SampleState(dir.path(), 4);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  const std::string path = SnapshotPath(dir.path(), state.epoch);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char magic[8];
    f.read(magic, sizeof(magic));
    ASSERT_EQ(std::string(magic, sizeof(magic)), "ESNP0003");
    f.seekp(7);
    f.put('2');
  }
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, WellFramedPreviousLayoutWithHugeRowCountIsRefused) {
  // Regression: a well-framed ESNP0002 file whose one relation claims
  // 2^40 rows once made the decoder reserve by that count and abort on
  // std::bad_alloc.
  TempDir dir;
  std::vector<uint8_t> payload = SnapshotCounters();
  codec::PutU32(&payload, 1);  // relations
  codec::PutString(&payload, "r");
  codec::PutU32(&payload, 1);  // columns
  codec::PutString(&payload, "c");
  codec::PutU64(&payload, uint64_t{1} << 40);  // rows
  codec::PutU32(&payload, 0);                  // pending
  const std::string path = SnapshotPath(dir.path(), 0);
  WriteSnapshotFrame(path, "ESNP0002", payload);
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, HugeCountsAreMalformedNotAnAbort) {
  TempDir dir;
  const std::string path = SnapshotPath(dir.path(), 0);
  {
    std::vector<uint8_t> payload = SnapshotCounters();
    codec::PutU32(&payload, 0xFFFFFFFFu);  // relations
    codec::PutU32(&payload, 0);            // pending
    WriteSnapshotFrame(path, "ESNP0003", payload);
    auto loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("malformed"), std::string::npos)
        << loaded.status().ToString();
  }
  {
    std::vector<uint8_t> payload = SnapshotCounters();
    codec::PutU32(&payload, 0);            // relations
    codec::PutU32(&payload, 0xFFFFFFFFu);  // pending
    WriteSnapshotFrame(path, "ESNP0003", payload);
    auto loaded = LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("malformed"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(SnapshotTest, FactSegmentClaimingTooManyRowsIsMalformed) {
  TempDir dir;
  std::vector<uint8_t> payload;
  codec::PutU64(&payload, 2);  // epoch
  codec::PutU64(&payload, 0);  // position
  codec::PutString(&payload, "r");
  codec::PutU32(&payload, 1);  // columns
  codec::PutString(&payload, "c");
  codec::PutU64(&payload, uint64_t{1} << 40);  // rows, none present
  std::vector<uint8_t> bytes = {'E', 'F', 'C', 'T', '0', '0', '0', '1'};
  codec::PutU64(&bytes, payload.size());
  codec::PutU32(&bytes, Crc32c(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  {
    std::ofstream f(FactSegmentPath(dir.path(), 2, 0), std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  SnapshotRelation loaded;
  Status status = LoadFactSegment(dir.path(), 2, 0, &loaded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("malformed"), std::string::npos)
      << status.ToString();
}

TEST(SnapshotTest, ListingIgnoresForeignFiles) {
  TempDir dir;
  SnapshotState state = SampleState(dir.path(), 2);
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  {
    std::ofstream junk(dir.path() + "/README.txt");
    junk << "not storage\n";
    std::ofstream tmp(dir.path() + "/snapshot-0000000009.snap.tmp");
    tmp << "torn temp\n";
  }
  auto listing = ListStorageDir(dir.path());
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->snapshot_epochs, std::vector<uint64_t>{2});
  EXPECT_TRUE(listing->wal_epochs.empty());
}

TEST(SnapshotTest, SegmentsAloneLeaveTheDirectoryEmpty) {
  // A crash inside genesis can leave fact segments and no snapshot: the
  // directory must still read as fresh.
  TempDir dir;
  Database db;
  FillSampleFacts(&db);
  ASSERT_TRUE(WriteFactSegment(*db.Find("fact"), 0, 0, dir.path()).ok());
  auto listing = ListStorageDir(dir.path());
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->empty());
}

}  // namespace
}  // namespace entangled
