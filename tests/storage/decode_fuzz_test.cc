// Deterministic mutation fuzzing of the three storage decoders:
// snapshots, fact segments and WAL segments written by the real writers
// are mutated — byte flips, truncations, splices, and counts
// overwritten with large values — and their frame CRCs are recomputed,
// so most mutants get past the checksums into the payload decoders.
// Every load must return a value or a typed error.  The iteration
// budget is fixed (a few seconds in RelAssert), and the test carries
// the `fuzz` ctest label; under ASan/UBSan any out-of-bounds read,
// overflow or abort on the way fails it.

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/database.h"
#include "db/value.h"
#include "storage/codec.h"
#include "storage/durable_service.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "system/engine.h"

namespace entangled {
namespace {

constexpr int kIterationsPerDecoder = 10000;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/entangled_fuzz_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    for (const std::string& name : Files()) {
      ::unlink((path_ + "/" + name).c_str());
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

  std::vector<std::string> Files() const {
    std::vector<std::string> names;
    DIR* dir = opendir(path_.c_str());
    if (dir == nullptr) return names;
    while (dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    closedir(dir);
    return names;
  }

 private:
  std::string path_;
};

using Bytes = std::vector<uint8_t>;

Bytes ReadBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const Bytes& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// Whether a decoded id is one an engine can issue: recovery resumes
/// numbering at it, so the decoders accept nothing else.
bool InQueryIdRange(int64_t id) {
  return id >= 0 && id <= std::numeric_limits<QueryId>::max();
}

bool EndsWith(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Records a small store with every record kind, a rotation over
/// unchanged facts, and one over a changed relation, then crashes.
void RecordStore(const std::string& dir) {
  Database db;
  Relation* flights = *db.CreateRelation("Flights", {"flightId", "dest"});
  Relation* hotels = *db.CreateRelation("Hotels", {"city", "stars"});
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(flights
                    ->Insert({Value::Int(100 + i),
                              Value::Str(i % 2 == 0 ? "Zurich" : "Paris")})
                    .ok());
  }
  ASSERT_TRUE(hotels->Insert({Value::Str("Zurich"), Value::Int(4)}).ok());
  EngineOptions engine_options;
  engine_options.evaluate_every = 1;
  CoordinationEngine inner(&db, engine_options);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.fsync = FsyncPolicy::kNone;
  durability.initial_evaluate_every = 1;
  auto durable = DurableCoordinationService::Create(&inner, &db, durability);
  ASSERT_TRUE(durable.ok()) << durable.status().ToString();
  DurableCoordinationService* service = durable->get();
  ASSERT_TRUE(
      service->Submit("p0: { R(B, x) } R(A, x) :- Flights(x, Zurich).").ok());
  ASSERT_TRUE(service->Submit("p1: { } R(B, y) :- Flights(y, Zurich).").ok());
  auto stuck =
      service->Submit("s0: { R(Ghost, z) } R(S0, z) :- Flights(z, Paris).");
  ASSERT_TRUE(stuck.ok());
  ASSERT_TRUE(service->SnapshotNow().ok());
  ASSERT_TRUE(service
                  ->SubmitBatch({"p2: { R(D, u) } R(C, u) :- Hotels(u, 4).",
                                 "p3: { } R(D, v) :- Hotels(v, _).",
                                 "s1: { R(Ghost, w) } R(S1, w) :- "
                                 "Hotels(w, 5)."})
                  .ok());
  ASSERT_TRUE(service->Cancel(*stuck));
  service->set_evaluate_every(2);
  service->Flush();
  ASSERT_TRUE(hotels->Insert({Value::Str("Paris"), Value::Int(5)}).ok());
  ASSERT_TRUE(service->SnapshotNow().ok());
  ASSERT_TRUE(
      service->Submit("s2: { R(Ghost, t) } R(S2, t) :- Flights(t, _).").ok());
  service->Flush();
}

/// One seed file and the frame layout its CRCs are recomputed under.
struct Seed {
  enum class Kind { kSnapshot, kSegment, kWal };
  Kind kind;
  std::string name;
  Bytes bytes;
};

uint32_t LoadU32(const Bytes& bytes, size_t at) {
  return static_cast<uint32_t>(bytes[at]) |
         static_cast<uint32_t>(bytes[at + 1]) << 8 |
         static_cast<uint32_t>(bytes[at + 2]) << 16 |
         static_cast<uint32_t>(bytes[at + 3]) << 24;
}

void StoreU64(Bytes* bytes, size_t at, uint64_t v) {
  codec::PatchU32(bytes, at, static_cast<uint32_t>(v));
  codec::PatchU32(bytes, at + 4, static_cast<uint32_t>(v >> 32));
}

/// Re-frames a mutant: lengths match the bytes present and every CRC
/// matches its payload, so the decoders behind the checksums run.
void RecomputeCrcs(Seed::Kind kind, Bytes* bytes) {
  switch (kind) {
    case Seed::Kind::kSnapshot:  // magic | u32 len | u32 crc | payload
      if (bytes->size() < 16) return;
      codec::PatchU32(bytes, 8, static_cast<uint32_t>(bytes->size() - 16));
      codec::PatchU32(bytes, 12,
                      Crc32c(bytes->data() + 16, bytes->size() - 16));
      return;
    case Seed::Kind::kSegment:  // magic | u64 len | u32 crc | payload
      if (bytes->size() < 20) return;
      StoreU64(bytes, 8, bytes->size() - 20);
      codec::PatchU32(bytes, 16,
                      Crc32c(bytes->data() + 20, bytes->size() - 20));
      return;
    case Seed::Kind::kWal: {  // header (crc at 16), then frames
      if (bytes->size() < 20) return;
      codec::PatchU32(bytes, 16, Crc32c(bytes->data(), 16));
      size_t pos = 20;
      while (bytes->size() - pos >= 8) {
        const uint32_t len = LoadU32(*bytes, pos);
        if (bytes->size() - pos - 8 < len) return;
        codec::PatchU32(bytes, pos + 4, Crc32c(bytes->data() + pos + 8, len));
        pos += 8 + len;
      }
      return;
    }
  }
}

/// Values that, written over a count, ask a decoder for far more
/// elements than the bytes could hold.
constexpr uint64_t kLargeValues[] = {
    0xFFFFFFFFull, 0x80000000ull, 0x7FFFFFFFull, 0x01000000ull,
    uint64_t{1} << 40, ~uint64_t{0}, uint64_t{1} << 62,
};

Bytes Mutate(const Seed& seed, const std::vector<Seed>& corpus, Rng* rng) {
  Bytes bytes = seed.bytes;
  const int rounds = 1 + static_cast<int>(rng->NextBounded(3));
  for (int round = 0; round < rounds && !bytes.empty(); ++round) {
    switch (rng->NextBounded(4)) {
      case 0: {  // byte flips
        const int flips = 1 + static_cast<int>(rng->NextBounded(4));
        for (int i = 0; i < flips; ++i) {
          bytes[rng->NextBounded(bytes.size())] ^=
              static_cast<uint8_t>(1 + rng->NextBounded(255));
        }
        break;
      }
      case 1:  // truncation
        bytes.resize(rng->NextBounded(bytes.size()));
        break;
      case 2: {  // splice: a run of some seed's bytes over or into this one
        const Seed& donor = corpus[rng->NextBounded(corpus.size())];
        const size_t from = rng->NextBounded(donor.bytes.size());
        const size_t len = std::min<size_t>(
            1 + rng->NextBounded(64), donor.bytes.size() - from);
        const size_t at = rng->NextBounded(bytes.size() + 1);
        auto first = donor.bytes.begin() + static_cast<std::ptrdiff_t>(from);
        if (rng->NextBool()) {
          bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), first,
                       first + static_cast<std::ptrdiff_t>(len));
        } else {
          for (size_t i = 0; i < len && at + i < bytes.size(); ++i) {
            bytes[at + i] = first[static_cast<std::ptrdiff_t>(i)];
          }
        }
        break;
      }
      default: {  // a count overwritten with a large value
        const uint64_t value =
            kLargeValues[rng->NextBounded(std::size(kLargeValues))];
        const size_t width = rng->NextBool() ? 4 : 8;
        if (bytes.size() < width) break;
        const size_t at = rng->NextBounded(bytes.size() - width + 1);
        for (size_t i = 0; i < width; ++i) {
          bytes[at + i] = static_cast<uint8_t>(value >> (8 * i));
        }
        break;
      }
    }
  }
  // Most mutants get valid frames; the rest exercise the frame checks.
  if (rng->NextBounded(10) != 0) RecomputeCrcs(seed.kind, &bytes);
  return bytes;
}

class DecodeFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RecordStore(store_.path());
    for (const std::string& name : store_.Files()) {
      Seed seed{Seed::Kind::kWal, name, ReadBytes(store_.File(name))};
      if (EndsWith(name, ".snap")) {
        seed.kind = Seed::Kind::kSnapshot;
      } else if (EndsWith(name, ".seg")) {
        seed.kind = Seed::Kind::kSegment;
      } else if (!EndsWith(name, ".log")) {
        continue;
      }
      ASSERT_FALSE(seed.bytes.empty()) << name;
      corpus_.push_back(std::move(seed));
    }
  }

  std::vector<const Seed*> SeedsOf(Seed::Kind kind) const {
    std::vector<const Seed*> seeds;
    for (const Seed& seed : corpus_) {
      if (seed.kind == kind) seeds.push_back(&seed);
    }
    return seeds;
  }

  TempDir store_;
  std::vector<Seed> corpus_;
};

TEST_F(DecodeFuzzTest, SeedsLoadCleanly) {
  // Three snapshots (genesis and two rotations), one segment per
  // relation at genesis plus one for the relation that changed, and
  // one WAL segment per epoch.
  ASSERT_EQ(SeedsOf(Seed::Kind::kSnapshot).size(), 3u);
  ASSERT_EQ(SeedsOf(Seed::Kind::kSegment).size(), 3u);
  ASSERT_EQ(SeedsOf(Seed::Kind::kWal).size(), 3u);
  auto state = ReadDurableState(store_.path());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_FALSE(state->report.corruption_detected);
  EXPECT_EQ(state->report.snapshot_epoch, 2u);
  ASSERT_EQ(state->snapshot.relations.size(), 2u);
  EXPECT_EQ(state->snapshot.relations[0].rows.size(), 24u);
  EXPECT_EQ(state->snapshot.relations[1].rows.size(), 2u);
}

TEST_F(DecodeFuzzTest, SnapshotDecoderSurvivesMutants) {
  // The mutants sit beside intact segments, so a snapshot whose
  // references survive the mutation goes on to load them.
  for (const Seed& seed : corpus_) {
    if (seed.kind == Seed::Kind::kSegment) {
      WriteBytes(store_.File(seed.name), seed.bytes);
    }
  }
  const std::vector<const Seed*> seeds = SeedsOf(Seed::Kind::kSnapshot);
  const std::string path = SnapshotPath(store_.path(), 9);
  Rng rng(0x5eed5a9);
  size_t loaded = 0;
  for (int i = 0; i < kIterationsPerDecoder; ++i) {
    const Seed& seed = *seeds[rng.NextBounded(seeds.size())];
    WriteBytes(path, Mutate(seed, corpus_, &rng));
    auto state = LoadSnapshot(path);
    if (!state.ok()) {
      ASSERT_FALSE(state.status().message().empty()) << "iteration " << i;
      continue;
    }
    ++loaded;
    ASSERT_TRUE(InQueryIdRange(state->next_durable_id)) << "iteration " << i;
    // Recovery re-admits pending queries in id order below the next id.
    int64_t previous = -1;
    for (const SnapshotPendingQuery& pending : state->pending) {
      ASSERT_TRUE(InQueryIdRange(pending.id)) << "iteration " << i;
      ASSERT_GT(pending.id, previous) << "iteration " << i;
      ASSERT_LT(pending.id, state->next_durable_id) << "iteration " << i;
      previous = pending.id;
    }
    Database db;
    Status built = BuildDatabaseFromSnapshot(*state, &db);
    ASSERT_TRUE(built.ok() || !built.message().empty()) << "iteration " << i;
  }
  EXPECT_GT(loaded, 0u);  // some mutants still decode: the fuzzer reaches in
}

TEST_F(DecodeFuzzTest, FactSegmentDecoderSurvivesMutants) {
  const std::vector<const Seed*> seeds = SeedsOf(Seed::Kind::kSegment);
  TempDir scratch;
  Rng rng(0xfac75e9);
  size_t loaded = 0;
  for (int i = 0; i < kIterationsPerDecoder; ++i) {
    const Seed& seed = *seeds[rng.NextBounded(seeds.size())];
    // The seed's own name, so a mutant's epoch and position can match.
    WriteBytes(scratch.File(seed.name), Mutate(seed, corpus_, &rng));
    const uint64_t epoch = std::strtoull(seed.name.c_str() + 6, nullptr, 10);
    const uint64_t position =
        std::strtoull(seed.name.c_str() + 17, nullptr, 10);
    ASSERT_EQ(FactSegmentFileName(epoch, position), seed.name);
    SnapshotRelation relation;
    Status status = LoadFactSegment(scratch.path(), epoch, position, &relation);
    ASSERT_TRUE(status.ok() || !status.message().empty()) << "iteration " << i;
    if (status.ok()) ++loaded;
  }
  EXPECT_GT(loaded, 0u);
}

TEST_F(DecodeFuzzTest, WalDecoderSurvivesMutants) {
  const std::vector<const Seed*> seeds = SeedsOf(Seed::Kind::kWal);
  TempDir scratch;
  const std::string path = scratch.File(WalFileName(0));
  Rng rng(0x3a1f022);
  size_t records = 0;
  for (int i = 0; i < kIterationsPerDecoder; ++i) {
    const Seed& seed = *seeds[rng.NextBounded(seeds.size())];
    WriteBytes(path, Mutate(seed, corpus_, &rng));
    auto read = ReadWalSegment(path);
    // Damaged content is classified, never a hard failure.
    ASSERT_TRUE(read.ok()) << "iteration " << i << ": "
                           << read.status().ToString();
    ASSERT_TRUE(!read->corrupt || !read->error.empty()) << "iteration " << i;
    for (const WalRecord& record : read->records) {
      if (record.kind == WalRecord::Kind::kSubmit ||
          record.kind == WalRecord::Kind::kCancel) {
        ASSERT_TRUE(InQueryIdRange(record.id)) << "iteration " << i;
      }
      for (const auto& [id, text] : record.batch) {
        ASSERT_TRUE(InQueryIdRange(id)) << "iteration " << i;
      }
    }
    records += read->records.size();
  }
  EXPECT_GT(records, 0u);
}

}  // namespace
}  // namespace entangled
