// Snapshot round-trips, fact capture/rebuild, directory listing, and
// the atomic-rename crash simulation (storage/snapshot.h).

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

SnapshotState SampleState() {
  SnapshotState state;
  state.epoch = 4;
  state.next_durable_id = 11;
  state.next_sequence = 6;
  state.evaluate_every = 2;
  state.cadence_phase = 1;
  state.total_events = 19;
  SnapshotRelation fact;
  fact.name = "fact";
  fact.columns = {"who", "score"};
  fact.rows = {{Value::Str("ada"), Value::Int(3)},
               {Value::Str("max"), Value::Int(-7)}};
  state.relations.push_back(fact);
  SnapshotRelation empty;
  empty.name = "unused";
  empty.columns = {"x"};
  state.relations.push_back(empty);
  SnapshotPendingQuery pending;
  pending.id = 9;
  pending.session = 1;
  pending.text = "q9: answers(X) :- fact(X, Y)";
  state.pending.push_back(pending);
  return state;
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
    EXPECT_EQ(a.relations[i].name, b.relations[i].name);
    EXPECT_EQ(a.relations[i].columns, b.relations[i].columns);
    ASSERT_EQ(a.relations[i].rows.size(), b.relations[i].rows.size());
    for (size_t r = 0; r < a.relations[i].rows.size(); ++r) {
      EXPECT_EQ(a.relations[i].rows[r], b.relations[i].rows[r]);
    }
  }
  ASSERT_EQ(a.pending.size(), b.pending.size());
  for (size_t i = 0; i < a.pending.size(); ++i) {
    EXPECT_EQ(a.pending[i].id, b.pending[i].id);
    EXPECT_EQ(a.pending[i].session, b.pending[i].session);
    EXPECT_EQ(a.pending[i].text, b.pending[i].text);
  }
}

TEST(SnapshotTest, RoundTrips) {
  TempDir dir;
  const SnapshotState state = SampleState();
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  auto loaded = LoadSnapshot(SnapshotPath(dir.path(), state.epoch));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectStatesEqual(state, *loaded);
}

TEST(SnapshotTest, FactCaptureAndRebuildRoundTrip) {
  Database db;
  auto rel = db.CreateRelation("edge", {"src", "dst"});
  ASSERT_TRUE(rel.ok());
  (*rel)->Insert({Value::Str("a"), Value::Str("b")});
  (*rel)->Insert({Value::Str("b"), Value::Str("c")});
  auto scores = db.CreateRelation("score", {"who", "n"});
  ASSERT_TRUE(scores.ok());
  (*scores)->Insert({Value::Str("a"), Value::Int(12)});

  SnapshotState state;
  CaptureDatabaseFacts(db, &state);
  ASSERT_EQ(state.relations.size(), 2u);

  Database rebuilt;
  ASSERT_TRUE(BuildDatabaseFromSnapshot(state, &rebuilt).ok());
  EXPECT_EQ(rebuilt.relation_count(), db.relation_count());
  SnapshotState recaptured;
  CaptureDatabaseFacts(rebuilt, &recaptured);
  ASSERT_EQ(recaptured.relations.size(), state.relations.size());
  for (size_t i = 0; i < state.relations.size(); ++i) {
    EXPECT_EQ(recaptured.relations[i].name, state.relations[i].name);
    EXPECT_EQ(recaptured.relations[i].columns, state.relations[i].columns);
    ASSERT_EQ(recaptured.relations[i].rows.size(),
              state.relations[i].rows.size());
    for (size_t r = 0; r < state.relations[i].rows.size(); ++r) {
      EXPECT_EQ(recaptured.relations[i].rows[r], state.relations[i].rows[r]);
    }
  }
}

TEST(SnapshotTest, UncommittedTempIsInvisibleToRecovery) {
  TempDir dir;
  SnapshotState genesis = SampleState();
  genesis.epoch = 0;
  ASSERT_TRUE(WriteSnapshot(genesis, dir.path()).ok());

  // Crash simulation: the next snapshot is fully written to its temp
  // path but the process dies before the rename.  Recovery must list
  // only the committed epoch — the temp file is ignorable garbage.
  SnapshotState next = SampleState();
  next.epoch = 1;
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
  const SnapshotState state = SampleState();
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  const std::string path = SnapshotPath(dir.path(), state.epoch);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(40);  // somewhere inside the payload
    char byte = 0;
    f.seekg(40);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(40);
    f.write(&byte, 1);
  }
  auto loaded = LoadSnapshot(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.status().message().empty());
}

TEST(SnapshotTest, PreviousLayoutFailsTheHeaderCheck) {
  // ESNP0001 snapshots also carried a durable variable window per
  // pending query; the header check refuses them before the payload
  // could be mis-decoded under the current layout.
  TempDir dir;
  const SnapshotState state = SampleState();
  ASSERT_TRUE(WriteSnapshot(state, dir.path()).ok());
  const std::string path = SnapshotPath(dir.path(), state.epoch);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    char magic[8];
    f.read(magic, sizeof(magic));
    ASSERT_EQ(std::string(magic, sizeof(magic)), "ESNP0002");
    f.seekp(7);
    f.put('1');
  }
  auto loaded = LoadSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("header"), std::string::npos)
      << loaded.status().ToString();
}

TEST(SnapshotTest, ListingIgnoresForeignFiles) {
  TempDir dir;
  SnapshotState state = SampleState();
  state.epoch = 2;
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

}  // namespace
}  // namespace entangled
