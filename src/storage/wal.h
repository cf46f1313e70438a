#ifndef ENTANGLED_STORAGE_WAL_H_
#define ENTANGLED_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace entangled {

/// CRC32C (Castagnoli) over `data`.  `seed` chains partial checksums:
/// Crc32c(b, Crc32c(a)) == Crc32c(a+b).  Runs the SSE4.2 instruction
/// when the CPU has it (picked once, at first use), else the table loop.
uint32_t Crc32c(const void* data, size_t size, uint32_t seed = 0);

/// The two paths behind Crc32c, exposed so tests can hold one against
/// the other.  The byte-at-a-time table loop is portable and is the
/// reference.  Crc32cSse42 may be called only when Crc32cSse42Supported()
/// (never off x86-64, where it falls back to the table loop).
uint32_t Crc32cTableLoop(const void* data, size_t size, uint32_t seed = 0);
uint32_t Crc32cSse42(const void* data, size_t size, uint32_t seed = 0);
bool Crc32cSse42Supported();

/// \brief When the write-ahead log calls fsync(2).
///
/// The policy trades the durability horizon against submission
/// throughput (bench_wal quantifies the gap):
///
///  * kEveryRecord — fsync after every appended record.  A crash loses
///    at most the record being appended (the classic torn tail).
///  * kEveryFlush — fsync at service flush markers and snapshots.  A
///    crash may lose the events since the last flush; recovery is still
///    consistent because the log is replayed strictly in order.
///  * kNone — never fsync (the OS flushes at its leisure).  Survives
///    process death (the page cache persists) but not power loss.
enum class FsyncPolicy : uint8_t {
  kNone = 0,
  kEveryFlush = 1,
  kEveryRecord = 2,
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// \brief One logged admitted event.  The WAL records *admitted intent*
/// (texts, ids, session tags), never engine internals — the
/// deterministic engine re-derives everything else on replay.
struct WalRecord {
  enum class Kind : uint8_t {
    kSubmit = 1,         ///< one admitted query: id + session tag + text
    kSubmitBatch = 2,    ///< all-or-nothing batch: tag + (id, text) list
    kCancel = 3,         ///< withdrawal of a pending query: id + tag
    kSetEvaluateEvery = 4,  ///< cadence change: new rate in `value`
    kFlush = 5,             ///< explicit service flush marker
    /// Cumulative count of deliveries forwarded downstream, appended
    /// after any call that delivered.  Recovery replays the tail with
    /// deliveries below this watermark suppressed (they already reached
    /// clients) and re-forwards only the ones beyond it.
    kDeliveryMark = 6,
  };

  Kind kind = Kind::kFlush;
  int64_t id = -1;       ///< kSubmit / kCancel: service-global query id
  int64_t session = -1;  ///< owning session tag; -1 = direct submission
  std::string text;      ///< kSubmit: query text (paper syntax)
  /// kSubmitBatch: (global id, text) per member, in submission order.
  std::vector<std::pair<int64_t, std::string>> batch;
  uint64_t value = 0;  ///< kSetEvaluateEvery rate / kDeliveryMark count

  bool operator==(const WalRecord& other) const;
};

/// \brief Append/durability counters of one WalWriter (monotone over
/// the writer's lifetime; folded into MetricsSnapshot by the durable
/// service).
struct WalStats {
  uint64_t appended_records = 0;
  uint64_t bytes = 0;  ///< payload + framing + header bytes written
  uint64_t fsyncs = 0;

  /// Field-wise accumulation (rotated-out segments fold into totals).
  WalStats& operator+=(const WalStats& other) {
    appended_records += other.appended_records;
    bytes += other.bytes;
    fsyncs += other.fsyncs;
    return *this;
  }
};

/// \brief Appender for one WAL segment file: length-prefixed,
/// CRC32C-framed records behind a configurable fsync policy.
///
/// Layout: a 20-byte header (magic "EWAL0001", little-endian u64
/// epoch, u32 CRC32C of the preceding 16 bytes) followed by frames of
/// `u32 payload_len | u32 payload_crc | payload`.  All integers are
/// little-endian.
class WalWriter {
 public:
  /// Creates (or truncates) `path` and writes the segment header.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint64_t epoch,
                                                   FsyncPolicy policy);

  /// Reopens an existing segment for appending after `valid_bytes`
  /// (recovery truncates a torn tail this way before resuming).
  static Result<std::unique_ptr<WalWriter>> OpenForAppend(
      const std::string& path, uint64_t valid_bytes, FsyncPolicy policy);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record (fsyncs under kEveryRecord).
  Status Append(const WalRecord& record);

  /// Explicit durability point: fsync under kEveryFlush (kEveryRecord
  /// is already durable; kNone ignores this too).
  Status MarkFlush();

  /// Unconditional fsync (used by snapshot rotation regardless of
  /// policy, so a snapshot never outruns its log).
  Status Sync();

  const WalStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, FsyncPolicy policy)
      : path_(std::move(path)), fd_(fd), policy_(policy) {}

  Status WriteAll(const void* data, size_t size);

  std::string path_;
  int fd_ = -1;
  FsyncPolicy policy_;
  WalStats stats_;
  /// The frame being appended: reused, so it keeps its capacity.
  std::vector<uint8_t> frame_;
};

/// \brief Everything one segment scan produced, with the tail/corruption
/// classification recovery needs to pick a consistent point.
struct WalReadResult {
  std::vector<WalRecord> records;  ///< the consistent prefix
  uint64_t epoch = 0;              ///< from the segment header
  /// Bytes of `path` covered by the header + the consistent prefix;
  /// recovery reopens the segment for append at this offset.
  uint64_t valid_bytes = 0;
  /// A partial final frame (or a CRC-failing final frame) was dropped:
  /// the classic torn tail of a crash mid-append.  `truncated_bytes`
  /// counts the dropped bytes.  Recovery proceeds from the prefix.
  bool torn_tail = false;
  uint64_t truncated_bytes = 0;
  /// A frame strictly before the tail failed its CRC (or carried a
  /// malformed payload): data corruption, not a crash artifact.  The
  /// scan stops at the last consistent record; records beyond the
  /// corruption are unrecoverable from this segment.
  bool corrupt = false;
  std::string error;  ///< human-readable detail for `corrupt` / bad header
};

/// Scans one segment, returning the longest consistent record prefix
/// plus the torn-tail/corruption classification.  Never fails hard on
/// damaged content — a missing or unreadable file is the only Status
/// error.
Result<WalReadResult> ReadWalSegment(const std::string& path);

/// Serialized frame payload of `record` (exposed for tests that build
/// corrupt segments byte by byte).
std::vector<uint8_t> EncodeWalRecord(const WalRecord& record);

}  // namespace entangled

#endif  // ENTANGLED_STORAGE_WAL_H_
