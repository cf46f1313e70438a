#include "storage/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "storage/codec.h"
#include "storage/wal.h"  // Crc32c

namespace entangled {
namespace {

// Snapshot file: magic | u32 payload length | u32 payload crc | payload.
constexpr char kSnapshotMagic[8] = {'E', 'S', 'N', 'P', '0', '0', '0', '3'};
constexpr size_t kSnapshotHeader = 8 + 4 + 4;
// Fact segment file: magic | u64 payload length | u32 payload crc |
// payload.  A relation can outgrow a u32 length; a snapshot cannot.
constexpr char kSegmentMagic[8] = {'E', 'F', 'C', 'T', '0', '0', '0', '1'};
constexpr size_t kSegmentHeader = 8 + 8 + 4;

constexpr uint8_t kValueInt = 0;
constexpr uint8_t kValueStr = 1;

// Smallest encodings, which bound each count read off disk before
// anything is reserved by it.
constexpr size_t kMinRelationRefBytes = 8;        // segment epoch
constexpr size_t kMinPendingBytes = 8 + 8 + 4;    // id + session + text
constexpr size_t kMinStringBytes = 4;             // length, no bytes
constexpr size_t kMinValueBytes = 1 + kMinStringBytes;  // kind + ""

size_t EncodedSize(const Value& value) {
  return value.is_int() ? 1 + 8 : 1 + 4 + value.AsString().size();
}

void PutValue(std::vector<uint8_t>* out, const Value& value) {
  if (value.is_int()) {
    codec::PutU8(out, kValueInt);
    codec::PutI64(out, value.AsInt());
  } else {
    codec::PutU8(out, kValueStr);
    codec::PutString(out, value.AsString());
  }
}

bool ReadValue(codec::Reader* in, Value* value) {
  uint8_t kind = 0;
  if (!in->ReadU8(&kind)) return false;
  if (kind == kValueInt) {
    int64_t v = 0;
    if (!in->ReadI64(&v)) return false;
    *value = Value::Int(v);
    return true;
  }
  if (kind == kValueStr) {
    std::string_view s;
    if (!in->ReadString(&s)) return false;
    *value = Value::Str(s);
    return true;
  }
  return false;
}

std::vector<uint8_t> EncodeSnapshot(const SnapshotState& state) {
  std::vector<uint8_t> out(kSnapshotMagic,
                           kSnapshotMagic + sizeof(kSnapshotMagic));
  codec::PutU32(&out, 0);  // payload length, patched below
  codec::PutU32(&out, 0);  // payload crc, patched below
  codec::PutU64(&out, state.epoch);
  codec::PutI64(&out, state.next_durable_id);
  codec::PutU64(&out, state.next_sequence);
  codec::PutU64(&out, state.evaluate_every);
  codec::PutU64(&out, state.cadence_phase);
  codec::PutU64(&out, state.total_events);
  codec::PutU32(&out, static_cast<uint32_t>(state.relations.size()));
  for (const SnapshotRelation& relation : state.relations) {
    codec::PutU64(&out, relation.segment_epoch);
  }
  codec::PutU32(&out, static_cast<uint32_t>(state.pending.size()));
  for (const SnapshotPendingQuery& pending : state.pending) {
    codec::PutI64(&out, pending.id);
    codec::PutI64(&out, pending.session);
    codec::PutString(&out, pending.text);
  }
  const size_t len = out.size() - kSnapshotHeader;
  codec::PatchU32(&out, 8, static_cast<uint32_t>(len));
  codec::PatchU32(&out, 12, Crc32c(out.data() + kSnapshotHeader, len));
  return out;
}

bool DecodeSnapshot(const uint8_t* data, size_t size, SnapshotState* state) {
  codec::Reader in(data, size);
  uint32_t num_relations = 0;
  if (!in.ReadU64(&state->epoch) || !in.ReadQueryId(&state->next_durable_id) ||
      !in.ReadU64(&state->next_sequence) ||
      !in.ReadU64(&state->evaluate_every) ||
      !in.ReadU64(&state->cadence_phase) ||
      !in.ReadU64(&state->total_events) ||
      !in.ReadCount(&num_relations, kMinRelationRefBytes)) {
    return false;
  }
  state->relations.assign(num_relations, SnapshotRelation());
  for (SnapshotRelation& relation : state->relations) {
    // A snapshot can only name segments its own rotation or an earlier
    // one wrote.
    if (!in.ReadU64(&relation.segment_epoch) ||
        relation.segment_epoch > state->epoch) {
      return false;
    }
  }
  uint32_t num_pending = 0;
  if (!in.ReadCount(&num_pending, kMinPendingBytes)) return false;
  state->pending.assign(num_pending, SnapshotPendingQuery());
  // Recovery re-admits pending queries in id order below the next id;
  // ids that do not strictly ascend or reach it make the payload
  // malformed, so recovery falls back to an older snapshot.
  int64_t previous = -1;
  for (SnapshotPendingQuery& pending : state->pending) {
    if (!in.ReadQueryId(&pending.id) || pending.id <= previous ||
        pending.id >= state->next_durable_id ||
        !in.ReadI64(&pending.session) || !in.ReadString(&pending.text)) {
      return false;
    }
    previous = pending.id;
  }
  return in.exhausted();
}

/// Encodes straight from the relation's row store into one buffer
/// reserved at its final size: no Tuple copy of the relation.
std::vector<uint8_t> EncodeFactSegment(const Relation& relation,
                                       uint64_t epoch, uint64_t position) {
  size_t len = 8 + 8 + 4 + relation.name().size() + 4 + 8;
  for (const std::string& column : relation.column_names()) {
    len += 4 + column.size();
  }
  for (const RowView& row : relation.rows()) {
    for (const Value& value : row) len += EncodedSize(value);
  }
  std::vector<uint8_t> out;
  out.reserve(kSegmentHeader + len);
  out.insert(out.end(), kSegmentMagic, kSegmentMagic + sizeof(kSegmentMagic));
  codec::PutU64(&out, len);
  codec::PutU32(&out, 0);  // payload crc, patched below
  codec::PutU64(&out, epoch);
  codec::PutU64(&out, position);
  codec::PutString(&out, relation.name());
  codec::PutU32(&out, static_cast<uint32_t>(relation.arity()));
  for (const std::string& column : relation.column_names()) {
    codec::PutString(&out, column);
  }
  codec::PutU64(&out, relation.size());
  for (const RowView& row : relation.rows()) {
    for (const Value& value : row) PutValue(&out, value);
  }
  ENTANGLED_CHECK_EQ(out.size(), kSegmentHeader + len)
      << "fact segment size estimate is off";
  codec::PatchU32(&out, 16, Crc32c(out.data() + kSegmentHeader, len));
  return out;
}

bool DecodeFactSegment(const uint8_t* data, size_t size, uint64_t epoch,
                       uint64_t position, SnapshotRelation* relation) {
  codec::Reader in(data, size);
  uint64_t stored_epoch = 0, stored_position = 0;
  uint32_t num_columns = 0;
  if (!in.ReadU64(&stored_epoch) || !in.ReadU64(&stored_position) ||
      stored_epoch != epoch || stored_position != position ||
      !in.ReadString(&relation->name) ||
      !in.ReadCount(&num_columns, kMinStringBytes) || num_columns == 0) {
    return false;
  }
  relation->columns.assign(num_columns, std::string());
  for (std::string& column : relation->columns) {
    if (!in.ReadString(&column)) return false;
  }
  uint64_t num_rows = 0;
  if (!in.ReadCount(&num_rows, kMinValueBytes * num_columns)) return false;
  relation->rows.clear();
  relation->rows.reserve(num_rows);
  for (uint64_t row = 0; row < num_rows; ++row) {
    Tuple tuple(num_columns);
    for (Value& value : tuple) {
      if (!ReadValue(&in, &value)) return false;
    }
    relation->rows.push_back(std::move(tuple));
  }
  return in.exhausted();
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

/// Writes `bytes` to a new `path` (truncating any old file) and fsyncs
/// it before returning.
Status WriteFileSynced(const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status failed = ErrnoStatus("write", path);
      ::close(fd);
      return failed;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status failed = ErrnoStatus("fsync", path);
    ::close(fd);
    return failed;
  }
  ::close(fd);
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    Status failed = ErrnoStatus("stat", path);
    ::close(fd);
    return failed;
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(info.st_size));
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status failed = ErrnoStatus("read", path);
      ::close(fd);
      return failed;
    }
    if (n == 0) break;  // shrank since the stat: decode what is there
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

std::string Padded(uint64_t value, size_t width) {
  std::string digits = std::to_string(value);
  return std::string(digits.size() < width ? width - digits.size() : 0, '0') +
         digits;
}

std::string PaddedEpoch(uint64_t epoch) { return Padded(epoch, 10); }

/// Parses `<prefix><digits><suffix>` names; nullopt for anything else
/// (temp files, strays).
bool ParseEpochName(const std::string& name, const std::string& prefix,
                    const std::string& suffix, uint64_t* epoch) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *epoch = value;
  return true;
}

}  // namespace

std::string SnapshotFileName(uint64_t epoch) {
  return "snapshot-" + PaddedEpoch(epoch) + ".snap";
}

std::string WalFileName(uint64_t epoch) {
  return "wal-" + PaddedEpoch(epoch) + ".log";
}

std::string SnapshotPath(const std::string& dir, uint64_t epoch) {
  return dir + "/" + SnapshotFileName(epoch);
}

std::string WalPath(const std::string& dir, uint64_t epoch) {
  return dir + "/" + WalFileName(epoch);
}

std::string FactSegmentFileName(uint64_t epoch, uint64_t position) {
  return "facts-" + PaddedEpoch(epoch) + "-" + Padded(position, 4) + ".seg";
}

std::string FactSegmentPath(const std::string& dir, uint64_t epoch,
                            uint64_t position) {
  return dir + "/" + FactSegmentFileName(epoch, position);
}

Result<StorageDirListing> ListStorageDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return ErrnoStatus("open storage dir", dir);
  StorageDirListing listing;
  while (struct dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    uint64_t epoch = 0;
    if (ParseEpochName(name, "snapshot-", ".snap", &epoch)) {
      listing.snapshot_epochs.push_back(epoch);
    } else if (ParseEpochName(name, "wal-", ".log", &epoch)) {
      listing.wal_epochs.push_back(epoch);
    }
  }
  ::closedir(handle);
  std::sort(listing.snapshot_epochs.begin(), listing.snapshot_epochs.end());
  std::sort(listing.wal_epochs.begin(), listing.wal_epochs.end());
  return listing;
}

Status WriteFactSegment(const Relation& relation, uint64_t epoch,
                        uint64_t position, const std::string& dir) {
  const std::string path = FactSegmentPath(dir, epoch, position);
  const std::string temp_path = path + ".tmp";
  Status written =
      WriteFileSynced(temp_path, EncodeFactSegment(relation, epoch, position));
  if (!written.ok()) return written;
  // A crash may have left a segment of this name that no snapshot
  // committed; rename(2) replaces it atomically.
  if (::rename(temp_path.c_str(), path.c_str()) != 0) {
    return ErrnoStatus("rename fact segment", path);
  }
  return Status::OK();
}

Status LoadFactSegment(const std::string& dir, uint64_t epoch,
                       uint64_t position, SnapshotRelation* relation) {
  const std::string path = FactSegmentPath(dir, epoch, position);
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() < kSegmentHeader ||
      std::memcmp(bytes->data(), kSegmentMagic, sizeof(kSegmentMagic)) != 0) {
    return Status::Internal("fact segment " + path +
                            ": missing or short header");
  }
  codec::Reader frame(bytes->data() + sizeof(kSegmentMagic),
                      kSegmentHeader - sizeof(kSegmentMagic));
  uint64_t len = 0;
  uint32_t crc = 0;
  frame.ReadU64(&len);
  frame.ReadU32(&crc);
  if (bytes->size() - kSegmentHeader != len) {
    return Status::Internal("fact segment " + path + ": truncated payload");
  }
  const uint8_t* payload = bytes->data() + kSegmentHeader;
  if (Crc32c(payload, len) != crc) {
    return Status::Internal("fact segment " + path + ": CRC mismatch");
  }
  if (!DecodeFactSegment(payload, len, epoch, position, relation)) {
    return Status::Internal("fact segment " + path + ": malformed payload");
  }
  return Status::OK();
}

Result<std::string> WriteSnapshotToTemp(const SnapshotState& state,
                                        const std::string& dir) {
  const std::string temp_path = SnapshotPath(dir, state.epoch) + ".tmp";
  // The temp file must be durable *before* the rename publishes it;
  // otherwise a crash could expose a named-but-hollow snapshot.
  Status written = WriteFileSynced(temp_path, EncodeSnapshot(state));
  if (!written.ok()) return written;
  return temp_path;
}

Status CommitSnapshot(const std::string& temp_path,
                      const std::string& final_path) {
  if (::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename snapshot", final_path);
  }
  // fsync the directory so the rename itself survives power loss — and
  // with it the renames of the fact segments written before it.
  const std::string dir = DirName(final_path);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoStatus("open storage dir", dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return ErrnoStatus("fsync storage dir", dir);
  return Status::OK();
}

Status WriteSnapshot(const SnapshotState& state, const std::string& dir) {
  auto temp = WriteSnapshotToTemp(state, dir);
  if (!temp.ok()) return temp.status();
  return CommitSnapshot(*temp, SnapshotPath(dir, state.epoch));
}

Result<SnapshotState> LoadSnapshot(const std::string& path) {
  auto bytes = ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  if (bytes->size() < kSnapshotHeader ||
      std::memcmp(bytes->data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
          0) {
    return Status::Internal("snapshot " + path + ": missing or short header");
  }
  codec::Reader frame(bytes->data() + sizeof(kSnapshotMagic),
                      kSnapshotHeader - sizeof(kSnapshotMagic));
  uint32_t len = 0, crc = 0;
  frame.ReadU32(&len);
  frame.ReadU32(&crc);
  if (bytes->size() - kSnapshotHeader != len) {
    return Status::Internal("snapshot " + path + ": truncated payload");
  }
  const uint8_t* payload = bytes->data() + kSnapshotHeader;
  if (Crc32c(payload, len) != crc) {
    return Status::Internal("snapshot " + path + ": CRC mismatch");
  }
  SnapshotState state;
  if (!DecodeSnapshot(payload, len, &state)) {
    return Status::Internal("snapshot " + path + ": malformed payload");
  }
  const std::string dir = DirName(path);
  for (size_t position = 0; position < state.relations.size(); ++position) {
    SnapshotRelation& relation = state.relations[position];
    Status loaded =
        LoadFactSegment(dir, relation.segment_epoch, position, &relation);
    if (!loaded.ok()) {
      return Status::Internal("snapshot " + path + ": " + loaded.message());
    }
  }
  return state;
}

Status BuildDatabaseFromSnapshot(const SnapshotState& state, Database* db) {
  for (const SnapshotRelation& relation : state.relations) {
    auto created = db->CreateRelation(relation.name, relation.columns);
    if (!created.ok()) return created.status();
    Status inserted = (*created)->InsertAll(relation.rows);
    if (!inserted.ok()) return inserted;
  }
  return Status::OK();
}

}  // namespace entangled
