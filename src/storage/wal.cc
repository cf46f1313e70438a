#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

#include "storage/codec.h"

namespace entangled {
namespace {

constexpr char kWalMagic[8] = {'E', 'W', 'A', 'L', '0', '0', '0', '1'};
constexpr size_t kHeaderSize = 8 + 8 + 4;  // magic + epoch + header crc
constexpr size_t kFrameOverhead = 4 + 4;   // payload length + payload crc

/// CRC32C lookup table (Castagnoli polynomial 0x1EDC6F41, reflected
/// form 0x82F63B78), built once on first use.
const uint32_t* Crc32cTable() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  return table;
}

/// Smallest encoding of one batch entry (id + empty text): bounds a
/// batch count read off disk before anything is reserved by it.
constexpr size_t kMinBatchEntryBytes = 8 + 4;

/// Decodes one frame payload; false on a malformed payload (treated by
/// the caller as corruption, exactly like a CRC failure).
bool DecodeWalRecord(const uint8_t* data, size_t size, WalRecord* record) {
  if (size < 1) return false;
  record->kind = static_cast<WalRecord::Kind>(data[0]);
  codec::Reader body(data + 1, size - 1);
  switch (record->kind) {
    case WalRecord::Kind::kSubmit:
      return body.ReadQueryId(&record->id) && body.ReadI64(&record->session) &&
             body.ReadString(&record->text) && body.exhausted();
    case WalRecord::Kind::kSubmitBatch: {
      uint32_t count = 0;
      if (!body.ReadI64(&record->session) ||
          !body.ReadCount(&count, kMinBatchEntryBytes)) {
        return false;
      }
      record->batch.clear();
      record->batch.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        int64_t id = -1;
        std::string text;
        if (!body.ReadQueryId(&id) || !body.ReadString(&text)) return false;
        record->batch.emplace_back(id, std::move(text));
      }
      return body.exhausted();
    }
    case WalRecord::Kind::kCancel:
      return body.ReadQueryId(&record->id) && body.ReadI64(&record->session) &&
             body.exhausted();
    case WalRecord::Kind::kSetEvaluateEvery:
    case WalRecord::Kind::kDeliveryMark:
      return body.ReadU64(&record->value) && body.exhausted();
    case WalRecord::Kind::kFlush:
      return body.exhausted();
  }
  return false;  // unknown kind byte
}

/// Appends the frame payload of `record` to `out`.
void AppendWalPayload(const WalRecord& record, std::vector<uint8_t>* out) {
  codec::PutU8(out, static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case WalRecord::Kind::kSubmit:
      codec::PutI64(out, record.id);
      codec::PutI64(out, record.session);
      codec::PutString(out, record.text);
      break;
    case WalRecord::Kind::kSubmitBatch:
      codec::PutI64(out, record.session);
      codec::PutU32(out, static_cast<uint32_t>(record.batch.size()));
      for (const auto& [id, text] : record.batch) {
        codec::PutI64(out, id);
        codec::PutString(out, text);
      }
      break;
    case WalRecord::Kind::kCancel:
      codec::PutI64(out, record.id);
      codec::PutI64(out, record.session);
      break;
    case WalRecord::Kind::kSetEvaluateEvery:
    case WalRecord::Kind::kDeliveryMark:
      codec::PutU64(out, record.value);
      break;
    case WalRecord::Kind::kFlush:
      break;
  }
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32cTableLoop(const void* data, size_t size, uint32_t seed) {
  const uint32_t* table = Crc32cTable();
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xFFu];
  }
  return ~crc;
}

#if defined(__x86_64__)

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                        size_t size,
                                                        uint32_t seed) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; size >= 8; size -= 8, bytes += 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));  // unaligned-safe load
    crc = _mm_crc32_u64(crc, word);
  }
  for (; size > 0; --size, ++bytes) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *bytes);
  }
  return ~static_cast<uint32_t>(crc);
}

bool Crc32cSse42Supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return supported;
}

#else

uint32_t Crc32cSse42(const void* data, size_t size, uint32_t seed) {
  return Crc32cTableLoop(data, size, seed);
}

bool Crc32cSse42Supported() { return false; }

#endif

uint32_t Crc32c(const void* data, size_t size, uint32_t seed) {
  static const auto crc32c =
      Crc32cSse42Supported() ? &Crc32cSse42 : &Crc32cTableLoop;
  return crc32c(data, size, seed);
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kEveryFlush:
      return "every_flush";
    case FsyncPolicy::kEveryRecord:
      return "every_record";
  }
  return "unknown";
}

bool WalRecord::operator==(const WalRecord& other) const {
  return kind == other.kind && id == other.id && session == other.session &&
         text == other.text && batch == other.batch && value == other.value;
}

std::vector<uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<uint8_t> out;
  AppendWalPayload(record, &out);
  return out;
}

// ---------------------------------------------------------------------------
// WalWriter
// ---------------------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path,
                                                     uint64_t epoch,
                                                     FsyncPolicy policy) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open wal", path);
  std::unique_ptr<WalWriter> writer(new WalWriter(path, fd, policy));
  std::vector<uint8_t> header(kWalMagic, kWalMagic + sizeof(kWalMagic));
  codec::PutU64(&header, epoch);
  codec::PutU32(&header, Crc32c(header.data(), header.size()));
  Status written = writer->WriteAll(header.data(), header.size());
  if (!written.ok()) return written;
  writer->stats_.bytes += header.size();
  return writer;
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenForAppend(
    const std::string& path, uint64_t valid_bytes, FsyncPolicy policy) {
  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("open wal", path);
  // Drop the torn tail (if any) before resuming appends, so the frame
  // stream stays parseable.
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    ::close(fd);
    return ErrnoStatus("truncate wal", path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return ErrnoStatus("seek wal", path);
  }
  return std::unique_ptr<WalWriter>(new WalWriter(path, fd, policy));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::WriteAll(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd_, bytes + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write wal", path_);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::Append(const WalRecord& record) {
  // Header slots first, the payload after them, then the header is
  // filled in: one buffer, no copy of the payload.
  frame_.assign(kFrameOverhead, 0);
  AppendWalPayload(record, &frame_);
  const size_t len = frame_.size() - kFrameOverhead;
  codec::PatchU32(&frame_, 0, static_cast<uint32_t>(len));
  codec::PatchU32(&frame_, 4, Crc32c(frame_.data() + kFrameOverhead, len));
  Status written = WriteAll(frame_.data(), frame_.size());
  if (!written.ok()) return written;
  ++stats_.appended_records;
  stats_.bytes += frame_.size();
  if (policy_ == FsyncPolicy::kEveryRecord) return Sync();
  return Status::OK();
}

Status WalWriter::MarkFlush() {
  if (policy_ == FsyncPolicy::kEveryFlush) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync wal", path_);
  ++stats_.fsyncs;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Segment scan
// ---------------------------------------------------------------------------

Result<WalReadResult> ReadWalSegment(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open wal", path);
  std::vector<uint8_t> bytes;
  uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read wal", path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fd);

  WalReadResult result;
  if (bytes.size() < kHeaderSize ||
      std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    result.corrupt = true;
    result.error = "wal segment " + path + ": missing or short header";
    return result;
  }
  const uint32_t header_crc =
      Crc32c(bytes.data(), kHeaderSize - 4);
  codec::Reader header(bytes.data() + sizeof(kWalMagic),
                      kHeaderSize - sizeof(kWalMagic));
  uint32_t stored_crc = 0;
  header.ReadU64(&result.epoch);
  header.ReadU32(&stored_crc);
  if (stored_crc != header_crc) {
    result.corrupt = true;
    result.error = "wal segment " + path + ": header CRC mismatch";
    return result;
  }

  size_t pos = kHeaderSize;
  result.valid_bytes = pos;
  while (pos < bytes.size()) {
    // A frame that does not fit in the remaining bytes is a torn tail:
    // the crash interrupted the append mid-write.
    if (bytes.size() - pos < kFrameOverhead) break;
    codec::Reader frame(bytes.data() + pos, kFrameOverhead);
    uint32_t len = 0, crc = 0;
    frame.ReadU32(&len);
    frame.ReadU32(&crc);
    if (bytes.size() - pos - kFrameOverhead < len) break;
    const uint8_t* payload = bytes.data() + pos + kFrameOverhead;
    const bool crc_ok = Crc32c(payload, len) == crc;
    WalRecord record;
    if (!crc_ok || !DecodeWalRecord(payload, len, &record)) {
      const bool at_tail = pos + kFrameOverhead + len == bytes.size();
      if (at_tail) {
        // A damaged *final* frame is indistinguishable from a crash
        // that wrote the length before the payload landed: torn tail.
        break;
      }
      result.corrupt = true;
      result.error = "wal segment " + path + ": " +
                     (crc_ok ? "malformed record" : "CRC mismatch") +
                     " at offset " + std::to_string(pos) +
                     " (records beyond it are unrecoverable)";
      return result;
    }
    result.records.push_back(std::move(record));
    pos += kFrameOverhead + len;
    result.valid_bytes = pos;
  }
  if (result.valid_bytes < bytes.size()) {
    result.torn_tail = true;
    result.truncated_bytes = bytes.size() - result.valid_bytes;
  }
  return result;
}

}  // namespace entangled
