#ifndef ENTANGLED_STORAGE_SNAPSHOT_H_
#define ENTANGLED_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "db/relation.h"

namespace entangled {

/// \brief One pending query as captured at snapshot time: exactly the
/// admitted intent (id, owner, text).
struct SnapshotPendingQuery {
  int64_t id = -1;       ///< service-global durable query id
  int64_t session = -1;  ///< owning session tag; -1 = direct submission
  std::string text;      ///< the query text as submitted
};

/// \brief One relation's facts at snapshot time.  On disk a snapshot
/// only names the relation's fact segment; LoadSnapshot fills in the
/// schema and rows from it.
struct SnapshotRelation {
  /// Epoch of the rotation that wrote the fact segment.  The relation's
  /// catalog position, its index in SnapshotState::relations, completes
  /// the segment's name (FactSegmentFileName).
  uint64_t segment_epoch = 0;
  std::string name;
  std::vector<std::string> columns;
  std::vector<Tuple> rows;  ///< insertion order preserved
};

/// \brief Minimal admitted state sufficient to rehydrate a
/// DurableCoordinationService: counters, the fact segments, and pending
/// query texts — never engine internals (the deterministic engine
/// re-derives components, coordination sets, and answers on replay).
struct SnapshotState {
  uint64_t epoch = 0;  ///< storage epoch this snapshot begins
  int64_t next_durable_id = 0;
  /// Delivery-sequence watermark: deliveries below this already reached
  /// clients before the snapshot; recovery resumes numbering here.
  uint64_t next_sequence = 0;
  uint64_t evaluate_every = 0;
  uint64_t cadence_phase = 0;  ///< submissions since the last evaluation
  uint64_t total_events = 0;   ///< logged events folded into this snapshot
  std::vector<SnapshotRelation> relations;
  /// Strictly ascending ids, all below next_durable_id; a payload that
  /// breaks this does not decode.
  std::vector<SnapshotPendingQuery> pending;
};

/// Canonical file names inside a storage directory.  Epochs are
/// zero-padded so lexical order matches numeric order.
std::string SnapshotFileName(uint64_t epoch);
std::string WalFileName(uint64_t epoch);
std::string SnapshotPath(const std::string& dir, uint64_t epoch);
std::string WalPath(const std::string& dir, uint64_t epoch);
/// Fact segment names come from the writing epoch and the relation's
/// catalog position, never from the relation name.
std::string FactSegmentFileName(uint64_t epoch, uint64_t position);
std::string FactSegmentPath(const std::string& dir, uint64_t epoch,
                            uint64_t position);

/// \brief Epochs present in a storage directory, ascending.
struct StorageDirListing {
  std::vector<uint64_t> snapshot_epochs;
  std::vector<uint64_t> wal_epochs;
  bool empty() const { return snapshot_epochs.empty() && wal_epochs.empty(); }
};

/// Lists snapshot-*.snap / wal-*.log epochs under `dir` (which must
/// exist); fact segments and unrelated files are ignored, so a
/// directory holding only segments (a crash inside genesis) is empty.
Result<StorageDirListing> ListStorageDir(const std::string& dir);

/// Writes `relation`'s schema and rows as fact segment (epoch,
/// position) of `dir`: encoded to a temp file, fsynced, then renamed
/// over any earlier file of that name.  The rename becomes durable with
/// the directory fsync of the CommitSnapshot that first names the
/// segment, which must come after this call.
Status WriteFactSegment(const Relation& relation, uint64_t epoch,
                        uint64_t position, const std::string& dir);

/// Loads and CRC-validates fact segment (epoch, position) of `dir` into
/// `relation`'s name, columns and rows.  Any damage is an error Status.
Status LoadFactSegment(const std::string& dir, uint64_t epoch,
                       uint64_t position, SnapshotRelation* relation);

/// Serializes `state` to `<dir>/<SnapshotFileName(epoch)>.tmp` and
/// fsyncs it, returning the temp path.  Of each relation only its
/// `segment_epoch` is written: the fact segments must already be on
/// disk.  The snapshot is NOT visible to recovery until CommitSnapshot
/// renames it into place — a crash between the two steps leaves only
/// the ignorable temp file, which is exactly the atomicity the
/// crash-sim test exercises.
Result<std::string> WriteSnapshotToTemp(const SnapshotState& state,
                                        const std::string& dir);

/// Atomically publishes a temp snapshot: rename(2) onto the final path
/// followed by an fsync of the containing directory.
Status CommitSnapshot(const std::string& temp_path,
                      const std::string& final_path);

/// WriteSnapshotToTemp + CommitSnapshot in one step.
Status WriteSnapshot(const SnapshotState& state, const std::string& dir);

/// Loads and CRC-validates one snapshot file, then the fact segments it
/// names from the same directory.  Any damage to either (bad magic, bad
/// checksum, malformed payload, a missing segment) is an error Status —
/// the caller falls back to an older snapshot and counts the skip.
Result<SnapshotState> LoadSnapshot(const std::string& path);

/// Recreates the fact relations of `state` inside an empty `db`.
Status BuildDatabaseFromSnapshot(const SnapshotState& state, Database* db);

}  // namespace entangled

#endif  // ENTANGLED_STORAGE_SNAPSHOT_H_
