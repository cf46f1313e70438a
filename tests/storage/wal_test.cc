// WAL segment round-trips, reopen-for-append, the fsync-policy matrix,
// torn-tail truncation, hostile counts in CRC-valid frames, and the two
// CRC32C paths (storage/wal.h).

#include "storage/wal.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/codec.h"

namespace entangled {
namespace {

/// Throwaway file path inside a per-test temp dir.
class TempFile {
 public:
  explicit TempFile(const char* name) {
    char tmpl[] = "/tmp/entangled_wal_XXXXXX";
    char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    dir_ = made;
    path_ = dir_ + "/" + name;
  }
  ~TempFile() {
    ::unlink(path_.c_str());
    ::rmdir(dir_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string dir_;
  std::string path_;
};

std::vector<WalRecord> AllKinds() {
  std::vector<WalRecord> records;
  WalRecord submit;
  submit.kind = WalRecord::Kind::kSubmit;
  submit.id = 7;
  submit.session = 2;
  submit.text = "q7: answers(X) :- fact(X), other(X, Y)";
  records.push_back(submit);
  WalRecord batch;
  batch.kind = WalRecord::Kind::kSubmitBatch;
  batch.session = -1;
  batch.batch = {{8, "q8: a(X) :- b(X)"}, {9, "q9: c(Y) :- d(Y)"}};
  records.push_back(batch);
  WalRecord cancel;
  cancel.kind = WalRecord::Kind::kCancel;
  cancel.id = 8;
  cancel.session = 2;
  records.push_back(cancel);
  WalRecord rate;
  rate.kind = WalRecord::Kind::kSetEvaluateEvery;
  rate.value = 3;
  records.push_back(rate);
  WalRecord flush;
  flush.kind = WalRecord::Kind::kFlush;
  records.push_back(flush);
  WalRecord mark;
  mark.kind = WalRecord::Kind::kDeliveryMark;
  mark.value = 41;
  records.push_back(mark);
  return records;
}

TEST(WalTest, RoundTripsEveryRecordKind) {
  TempFile file("wal-0000000000.log");
  auto writer = WalWriter::Create(file.path(), 5, FsyncPolicy::kNone);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  const std::vector<WalRecord> records = AllKinds();
  for (const WalRecord& record : records) {
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  EXPECT_EQ((*writer)->stats().appended_records, records.size());
  writer->reset();

  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->epoch, 5u);
  EXPECT_FALSE(read->torn_tail);
  EXPECT_FALSE(read->corrupt);
  ASSERT_EQ(read->records.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_TRUE(read->records[i] == records[i]) << "record " << i;
  }
}

TEST(WalTest, ReopenForAppendResumesTheSegment) {
  TempFile file("wal-0000000001.log");
  const std::vector<WalRecord> records = AllKinds();
  {
    auto writer = WalWriter::Create(file.path(), 1, FsyncPolicy::kNone);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(records[0]).ok());
    ASSERT_TRUE((*writer)->Append(records[1]).ok());
  }
  auto first = ReadWalSegment(file.path());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->records.size(), 2u);

  // Reopen at the scanned frontier (the recovery path) and extend.
  auto writer = WalWriter::OpenForAppend(file.path(), first->valid_bytes,
                                         FsyncPolicy::kNone);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE((*writer)->Append(records[2]).ok());
  writer->reset();

  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_TRUE(read->records[2] == records[2]);
}

TEST(WalTest, FsyncPolicyMatrix) {
  const std::vector<WalRecord> records = AllKinds();
  struct Case {
    FsyncPolicy policy;
    uint64_t expect_fsyncs;  // after N appends + one MarkFlush
  };
  // kEveryRecord syncs per append; kEveryFlush only at the marker;
  // kNone never (only the explicit Sync() used by rotation would).
  const Case cases[] = {
      {FsyncPolicy::kEveryRecord, records.size() + 0},
      {FsyncPolicy::kEveryFlush, 1},
      {FsyncPolicy::kNone, 0},
  };
  for (const Case& c : cases) {
    TempFile file("wal-0000000002.log");
    auto writer = WalWriter::Create(file.path(), 2, c.policy);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
    ASSERT_TRUE((*writer)->MarkFlush().ok());
    EXPECT_EQ((*writer)->stats().fsyncs, c.expect_fsyncs)
        << FsyncPolicyName(c.policy);
    // The unconditional Sync (snapshot rotation) counts under every
    // policy.
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->stats().fsyncs, c.expect_fsyncs + 1)
        << FsyncPolicyName(c.policy);
    EXPECT_GT((*writer)->stats().bytes, 0u);
  }
}

TEST(WalTest, TornTailIsTruncatedAndResumable) {
  TempFile file("wal-0000000003.log");
  const std::vector<WalRecord> records = AllKinds();
  uint64_t full_size = 0;
  {
    auto writer = WalWriter::Create(file.path(), 3, FsyncPolicy::kNone);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
    full_size = (*writer)->stats().bytes;  // header + every frame
  }
  // Chop the final frame mid-payload: the classic crash artifact.
  ASSERT_EQ(::truncate(file.path().c_str(),
                       static_cast<off_t>(full_size - 3)),
            0);
  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->torn_tail);
  EXPECT_FALSE(read->corrupt);
  EXPECT_GT(read->truncated_bytes, 0u);
  ASSERT_EQ(read->records.size(), records.size() - 1);

  // Recovery resumes by reopening at the consistent frontier; the
  // re-appended record replaces the torn one cleanly.
  auto writer = WalWriter::OpenForAppend(file.path(), read->valid_bytes,
                                         FsyncPolicy::kNone);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(records.back()).ok());
  writer->reset();
  auto reread = ReadWalSegment(file.path());
  ASSERT_TRUE(reread.ok());
  EXPECT_FALSE(reread->torn_tail);
  EXPECT_EQ(reread->records.size(), records.size());
}

TEST(WalTest, MidSegmentBitFlipIsCorruptionNotATail) {
  TempFile file("wal-0000000004.log");
  const std::vector<WalRecord> records = AllKinds();
  {
    auto writer = WalWriter::Create(file.path(), 4, FsyncPolicy::kNone);
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
  }
  // Flip one payload bit in the *second* frame: a non-final frame
  // failing its CRC is data corruption, and the scan must keep exactly
  // the records before it.
  const std::vector<uint8_t> first = EncodeWalRecord(records[0]);
  const uint64_t offset = 20 + (8 + first.size()) + 8 + 2;
  {
    std::fstream f(file.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }
  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->corrupt);
  EXPECT_FALSE(read->error.empty());
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->records[0] == records[0]);
}

TEST(WalTest, DamagedHeaderIsReportedNotCrashed) {
  TempFile file("wal-0000000005.log");
  {
    std::ofstream f(file.path(), std::ios::binary);
    f << "NOTAWAL!garbagegarbage";
  }
  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->corrupt);
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->error.empty());
}

/// Writes a segment header for epoch 0 followed by `frames`, each as
/// a CRC-valid `u32 length | u32 crc | payload` frame.
void WriteFramedSegment(const std::string& path,
                        const std::vector<std::vector<uint8_t>>& frames) {
  { auto writer = WalWriter::Create(path, 0, FsyncPolicy::kNone); }
  std::vector<uint8_t> bytes;
  for (const std::vector<uint8_t>& payload : frames) {
    codec::PutU32(&bytes, static_cast<uint32_t>(payload.size()));
    codec::PutU32(&bytes, Crc32c(payload.data(), payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
  }
  std::ofstream f(path, std::ios::binary | std::ios::app);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, BatchClaimingFourBillionEntriesIsNotAnAbort) {
  // Regression: a CRC-valid kSubmitBatch frame claiming 0xFFFFFFFF
  // entries once made the decoder reserve by that count and abort on
  // std::bad_alloc.  It is a malformed record: corruption mid-segment,
  // a torn tail at the end.
  std::vector<uint8_t> hostile = {
      static_cast<uint8_t>(WalRecord::Kind::kSubmitBatch)};
  codec::PutI64(&hostile, -1);          // session
  codec::PutU32(&hostile, 0xFFFFFFFFu);  // entries, none present
  WalRecord flush;
  flush.kind = WalRecord::Kind::kFlush;
  TempFile file("wal-0000000000.log");

  WriteFramedSegment(file.path(), {hostile, EncodeWalRecord(flush)});
  auto read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->corrupt);
  EXPECT_NE(read->error.find("malformed record"), std::string::npos)
      << read->error;
  EXPECT_TRUE(read->records.empty());

  WriteFramedSegment(file.path(), {EncodeWalRecord(flush), hostile});
  read = ReadWalSegment(file.path());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_FALSE(read->corrupt);
  EXPECT_TRUE(read->torn_tail);
  ASSERT_EQ(read->records.size(), 1u);
  EXPECT_TRUE(read->records[0] == flush);
}

/// The RFC 3720 (iSCSI) CRC32C vectors, checked on `crc`.
void ExpectRfc3720Vectors(uint32_t (*crc)(const void*, size_t, uint32_t)) {
  std::vector<uint8_t> bytes(32, 0);
  EXPECT_EQ(crc(bytes.data(), bytes.size(), 0), 0x8A9136AAu);
  bytes.assign(32, 0xFF);
  EXPECT_EQ(crc(bytes.data(), bytes.size(), 0), 0x62A8AB43u);
  for (size_t i = 0; i < 32; ++i) bytes[i] = static_cast<uint8_t>(i);
  EXPECT_EQ(crc(bytes.data(), bytes.size(), 0), 0x46DD794Eu);
  for (size_t i = 0; i < 32; ++i) bytes[i] = static_cast<uint8_t>(31 - i);
  EXPECT_EQ(crc(bytes.data(), bytes.size(), 0), 0x113FDB5Cu);
  // Chaining: crc(a+b) == crc(b, crc(a)).
  const char* text = "coordination";
  EXPECT_EQ(crc(text, 12, 0), crc(text + 5, 7, crc(text, 5, 0)));
}

TEST(WalTest, Crc32cKnownVector) {
  ExpectRfc3720Vectors(&Crc32c);
  ExpectRfc3720Vectors(&Crc32cTableLoop);
  if (!Crc32cSse42Supported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  ExpectRfc3720Vectors(&Crc32cSse42);
}

TEST(WalTest, Crc32cPathsAgreeOnRandomBuffers) {
  if (!Crc32cSse42Supported()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Rng rng(3720);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  uint32_t seed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = static_cast<size_t>(trial) % 8;
    const size_t length = static_cast<size_t>(rng.NextBounded(4097));
    const uint8_t* start = buffer.data() + offset;
    const uint32_t expected = Crc32cTableLoop(start, length, seed);
    ASSERT_EQ(Crc32cSse42(start, length, seed), expected)
        << "offset " << offset << " length " << length << " seed " << seed;
    seed = expected;  // chain: the next trial continues this checksum
  }
}

}  // namespace
}  // namespace entangled
