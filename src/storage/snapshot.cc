#include "storage/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "storage/wal.h"  // Crc32c

namespace entangled {
namespace {

constexpr char kSnapshotMagic[8] = {'E', 'S', 'N', 'P', '0', '0', '0', '2'};
constexpr size_t kFrameOverhead = 4 + 4;  // payload length + payload crc

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked little-endian reader (same wire conventions as the
/// WAL frame payloads).
class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU8(uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    *v = static_cast<uint32_t>(data_[pos_]) |
         static_cast<uint32_t>(data_[pos_ + 1]) << 8 |
         static_cast<uint32_t>(data_[pos_ + 2]) << 16 |
         static_cast<uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    uint32_t lo = 0, hi = 0;
    if (!ReadU32(&lo) || !ReadU32(&hi)) return false;
    *v = static_cast<uint64_t>(lo) | static_cast<uint64_t>(hi) << 32;
    return true;
  }
  bool ReadI64(int64_t* v) {
    uint64_t raw = 0;
    if (!ReadU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }
  bool ReadString(std::string* s) {
    uint32_t len = 0;
    if (!ReadU32(&len)) return false;
    if (size_ - pos_ < len) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }
  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

constexpr uint8_t kValueInt = 0;
constexpr uint8_t kValueStr = 1;

void PutValue(std::vector<uint8_t>* out, const Value& value) {
  if (value.kind() == Value::Kind::kInt) {
    PutU8(out, kValueInt);
    PutI64(out, value.AsInt());
  } else {
    PutU8(out, kValueStr);
    PutString(out, value.AsString());
  }
}

bool ReadValue(Reader* in, Value* value) {
  uint8_t kind = 0;
  if (!in->ReadU8(&kind)) return false;
  if (kind == kValueInt) {
    int64_t v = 0;
    if (!in->ReadI64(&v)) return false;
    *value = Value::Int(v);
    return true;
  }
  if (kind == kValueStr) {
    std::string s;
    if (!in->ReadString(&s)) return false;
    *value = Value::Str(s);
    return true;
  }
  return false;
}

std::vector<uint8_t> EncodeSnapshot(const SnapshotState& state) {
  std::vector<uint8_t> out;
  PutU64(&out, state.epoch);
  PutI64(&out, state.next_durable_id);
  PutU64(&out, state.next_sequence);
  PutU64(&out, state.evaluate_every);
  PutU64(&out, state.cadence_phase);
  PutU64(&out, state.total_events);
  PutU32(&out, static_cast<uint32_t>(state.relations.size()));
  for (const SnapshotRelation& relation : state.relations) {
    PutString(&out, relation.name);
    PutU32(&out, static_cast<uint32_t>(relation.columns.size()));
    for (const std::string& column : relation.columns) PutString(&out, column);
    PutU64(&out, relation.rows.size());
    for (const Tuple& row : relation.rows) {
      for (const Value& value : row) PutValue(&out, value);
    }
  }
  PutU32(&out, static_cast<uint32_t>(state.pending.size()));
  for (const SnapshotPendingQuery& pending : state.pending) {
    PutI64(&out, pending.id);
    PutI64(&out, pending.session);
    PutString(&out, pending.text);
  }
  return out;
}

bool DecodeSnapshot(const uint8_t* data, size_t size, SnapshotState* state) {
  Reader in(data, size);
  uint32_t num_relations = 0;
  if (!in.ReadU64(&state->epoch) || !in.ReadI64(&state->next_durable_id) ||
      !in.ReadU64(&state->next_sequence) ||
      !in.ReadU64(&state->evaluate_every) ||
      !in.ReadU64(&state->cadence_phase) ||
      !in.ReadU64(&state->total_events) || !in.ReadU32(&num_relations)) {
    return false;
  }
  state->relations.clear();
  state->relations.reserve(num_relations);
  for (uint32_t r = 0; r < num_relations; ++r) {
    SnapshotRelation relation;
    uint32_t num_columns = 0;
    uint64_t num_rows = 0;
    if (!in.ReadString(&relation.name) || !in.ReadU32(&num_columns)) {
      return false;
    }
    relation.columns.resize(num_columns);
    for (uint32_t c = 0; c < num_columns; ++c) {
      if (!in.ReadString(&relation.columns[c])) return false;
    }
    if (!in.ReadU64(&num_rows)) return false;
    relation.rows.reserve(num_rows);
    for (uint64_t row = 0; row < num_rows; ++row) {
      Tuple tuple;
      tuple.reserve(num_columns);
      for (uint32_t c = 0; c < num_columns; ++c) {
        Value value = Value::Int(0);
        if (!ReadValue(&in, &value)) return false;
        tuple.push_back(value);
      }
      relation.rows.push_back(std::move(tuple));
    }
    state->relations.push_back(std::move(relation));
  }
  uint32_t num_pending = 0;
  if (!in.ReadU32(&num_pending)) return false;
  state->pending.clear();
  state->pending.reserve(num_pending);
  for (uint32_t i = 0; i < num_pending; ++i) {
    SnapshotPendingQuery pending;
    if (!in.ReadI64(&pending.id) || !in.ReadI64(&pending.session) ||
        !in.ReadString(&pending.text)) {
      return false;
    }
    state->pending.push_back(std::move(pending));
  }
  return in.exhausted();
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const std::string& path, const void* data,
                size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write snapshot", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

std::string PaddedEpoch(uint64_t epoch) {
  std::string digits = std::to_string(epoch);
  return std::string(digits.size() < 10 ? 10 - digits.size() : 0, '0') +
         digits;
}

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

Result<std::string> WriteSnapshotToTemp(const SnapshotState& state,
                                        const std::string& dir) {
  const std::string temp_path =
      SnapshotPath(dir, state.epoch) + ".tmp";
  const int fd = ::open(temp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("open snapshot temp", temp_path);

  const std::vector<uint8_t> payload = EncodeSnapshot(state);
  std::vector<uint8_t> bytes(kSnapshotMagic,
                             kSnapshotMagic + sizeof(kSnapshotMagic));
  PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  PutU32(&bytes, Crc32c(payload.data(), payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());

  Status written = WriteAll(fd, temp_path, bytes.data(), bytes.size());
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  // The temp file must be durable *before* the rename publishes it;
  // otherwise a crash could expose a named-but-hollow snapshot.
  if (::fsync(fd) != 0) {
    ::close(fd);
    return ErrnoStatus("fsync snapshot temp", temp_path);
  }
  ::close(fd);
  return temp_path;
}

Status CommitSnapshot(const std::string& temp_path,
                      const std::string& final_path) {
  if (::rename(temp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename snapshot", final_path);
  }
  // fsync the directory so the rename itself survives power loss.
  const size_t slash = final_path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : final_path.substr(0, slash);
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
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open snapshot", path);
  std::vector<uint8_t> bytes;
  uint8_t buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("read snapshot", path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buffer, buffer + n);
  }
  ::close(fd);

  if (bytes.size() < sizeof(kSnapshotMagic) + kFrameOverhead ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Internal("snapshot " + path + ": missing or short header");
  }
  Reader frame(bytes.data() + sizeof(kSnapshotMagic), kFrameOverhead);
  uint32_t len = 0, crc = 0;
  frame.ReadU32(&len);
  frame.ReadU32(&crc);
  const size_t payload_at = sizeof(kSnapshotMagic) + kFrameOverhead;
  if (bytes.size() - payload_at != len) {
    return Status::Internal("snapshot " + path + ": truncated payload");
  }
  const uint8_t* payload = bytes.data() + payload_at;
  if (Crc32c(payload, len) != crc) {
    return Status::Internal("snapshot " + path + ": CRC mismatch");
  }
  SnapshotState state;
  if (!DecodeSnapshot(payload, len, &state)) {
    return Status::Internal("snapshot " + path + ": malformed payload");
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

void CaptureDatabaseFacts(const Database& db, SnapshotState* state) {
  state->relations.clear();
  state->relations.reserve(db.relation_count());
  for (const std::string& name : db.relation_names()) {
    const Relation* relation = db.Find(name);
    ENTANGLED_CHECK(relation != nullptr) << "catalog lists unknown relation";
    SnapshotRelation out;
    out.name = name;
    out.columns = relation->column_names();
    out.rows.reserve(relation->size());
    for (const RowView& row : relation->rows()) {
      out.rows.push_back(row.ToTuple());
    }
    state->relations.push_back(std::move(out));
  }
}

}  // namespace entangled
