#ifndef ENTANGLED_STORAGE_DURABLE_SERVICE_H_
#define ENTANGLED_STORAGE_DURABLE_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "system/engine.h"

namespace entangled {

class SessionManager;

/// \brief Knobs of the durability decorator.
struct DurabilityOptions {
  /// Storage directory (must already exist).  An empty directory is
  /// initialized with a genesis snapshot (epoch 0, with one fact
  /// segment per relation present at Create time) plus an empty WAL
  /// segment; a non-empty one must be rehydrated through Recover()
  /// before use.
  std::string dir;

  FsyncPolicy fsync = FsyncPolicy::kEveryFlush;

  /// Rotate to a fresh snapshot + WAL segment after this many logged
  /// events (0 = only explicit SnapshotNow() calls).  Shorter intervals
  /// trade snapshot cost for shorter replay tails at recovery.
  uint64_t snapshot_every_events = 0;

  /// The evaluate_every the *inner* service was constructed with; the
  /// decorator mirrors the cadence phase (it never reads engine
  /// internals) and needs the initial rate to mirror from.
  size_t initial_evaluate_every = 1;
};

/// \brief What one Recover() did — the typed account fault-injection
/// tests assert on (corruption is detected and reported, never crashed
/// on and never silently skipped past).
struct RecoveryReport {
  bool used_snapshot = false;
  uint64_t snapshot_epoch = 0;
  /// Snapshots that failed to load (bad CRC / malformed) and were
  /// fallen past toward an older consistent point.
  uint64_t snapshots_skipped = 0;
  uint64_t segments_scanned = 0;
  uint64_t replayed_events = 0;    ///< WAL records re-applied
  uint64_t recovered_pending = 0;  ///< pending queries resubmitted
  /// Deliveries re-derived by the replay that had already reached
  /// clients pre-crash (below the watermark) and were therefore not
  /// re-forwarded.
  uint64_t suppressed_deliveries = 0;
  /// Deliveries re-derived by the replay *beyond* the watermark: they
  /// were in flight at the crash and are forwarded now.
  uint64_t reforwarded_deliveries = 0;
  bool torn_tail = false;
  uint64_t truncated_bytes = 0;  ///< torn-tail bytes dropped on open
  /// A non-tail frame failed its CRC (or decoded to garbage): real
  /// corruption.  Recovery still completes from the consistent prefix;
  /// records beyond the damage are unrecoverable and said so here.
  bool corruption_detected = false;
  std::string corruption_detail;
  /// Logged records that could not be re-applied (e.g. a cancel whose
  /// target is not pending) — zero on every non-corrupt log.
  uint64_t anomalies = 0;
  uint64_t resumed_sequence = 0;  ///< next delivery sequence after recovery

  std::string ToString() const;
};

/// \brief Everything read off disk ahead of a Recover(): the chosen
/// snapshot, the WAL tail past it, and the partially-filled report.
/// Produced by ReadDurableState so the caller can rebuild the fact
/// Database (BuildDatabaseFromSnapshot) and construct the inner engine
/// over it *before* wiring the decorator.
struct DurableState {
  SnapshotState snapshot;
  std::vector<WalRecord> tail;
  uint64_t next_epoch = 1;  ///< first epoch not used by any file on disk
  RecoveryReport report;
};

/// Scans a storage directory: picks the newest loadable snapshot
/// (falling past damaged ones), then reads the contiguous WAL segments
/// from the snapshot's epoch forward, classifying torn tails and
/// corruption.  Fails only when the directory is unreadable or no
/// snapshot loads at all (facts would be unrecoverable).
Result<DurableState> ReadDurableState(const std::string& dir);

/// \brief Write-ahead-logging decorator over any CoordinationService
/// (single-engine or sharded).
///
/// Every admitted event is logged *after* admission checks (a text
/// must parse, a cancel's target must be pending) but *before* it is
/// applied to the inner service, so the log holds exactly the accepted
/// intent stream.  A submission arriving through SubmitParsed is
/// already parsed; the decorator logs its text and hands the parse on.
/// Query ids are durable: they survive restarts.  The inner service
/// issues them itself (admission order determines them), so the
/// decorator rewrites no id on the way in (cancels, reads) and no
/// delivery on the way out.  Its only per-query state is the live
/// (pending) texts a snapshot needs.
///
/// Recovery = load latest snapshot + resubmit its pending queries with
/// evaluation suspended, each under its durable id, + replay the WAL
/// tail at the recorded cadence.  CoordinationService::ResumeNumbering
/// points the inner service at each snapshot-pending id before that
/// query's resubmission, then at the snapshot's next id and delivery
/// sequence, so it continues the durable numbering from there.
/// Delivery sequences RESUME (the snapshot records the watermark);
/// deliveries re-derived below the watermark are suppressed, ones
/// beyond it are forwarded as new.  Crashes at event boundaries recover
/// exactly-once; a crash mid-call can lose the trailing delivery mark
/// and re-forward at most the deliveries of that one call
/// (at-least-once).
///
/// Single-threaded front door, same as SessionManager.
class DurableCoordinationService : public CoordinationService {
 public:
  /// Wraps `inner` (borrowed; must outlive the decorator), whose fact
  /// database is `db` (borrowed; facts must be loaded before Create so
  /// the genesis snapshot captures them).
  static Result<std::unique_ptr<DurableCoordinationService>> Create(
      CoordinationService* inner, const Database* db,
      DurabilityOptions options);

  // ----- CoordinationService ----------------------------------------------
  void set_delivery_callback(DeliveryCallback callback) override {
    downstream_ = std::move(callback);
  }
  void set_evaluate_every(size_t evaluate_every) override;
  /// The text entry points parse first and reject an unparseable text
  /// before anything is logged.
  Result<QueryId> Submit(const std::string& query_text) override;
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) override;
  /// Log the text(s), then hand the parse to the inner service.
  Result<QueryId> SubmitParsed(const std::string& query_text,
                               QuerySet parsed) override;
  Result<std::vector<QueryId>> SubmitBatchParsed(
      const std::vector<std::string>& query_texts, QuerySet parsed) override;
  bool Cancel(QueryId id) override;
  size_t Flush() override;
  std::vector<QueryId> PendingQueries() const override;
  bool IsPending(QueryId id) const override;
  size_t num_pending() const override { return inner_->num_pending(); }
  std::vector<QueryId> ComponentOf(QueryId id) const override;
  bool AdmitsDeferred() const override { return inner_->AdmitsDeferred(); }
  EngineStats StatsSnapshot() const override;
  size_t IntakeDepth() const override { return inner_->IntakeDepth(); }
  ServiceGauges GaugesSnapshot() const override {
    return inner_->GaugesSnapshot();
  }
  void set_session_tag(int64_t tag) override { session_tag_ = tag; }
  void AppendCounters(
      std::vector<std::pair<std::string, uint64_t>>* counters) const override;

  // ----- durability entry points ------------------------------------------

  /// Rehydrates from `state` (ReadDurableState of the same directory),
  /// adopting session ownership through `sessions` (may be null for
  /// direct-service use; unknown or closed session tags leave orphaned
  /// queries service-pending).  Must be called exactly once, before any
  /// submission, on a decorator whose Create found a non-empty
  /// directory, over a fresh inner service that implements
  /// ResumeNumbering (a decorator in between must forward it; the
  /// default CHECK-fails here).  Ends by rotating into a fresh
  /// snapshot + segment, so a second recovery replays the rotated
  /// state, not the old log (double-recovery idempotence).  That
  /// rotation reuses every fact segment of `state` whose rows the live
  /// relation holds exactly, so it writes only the relations that
  /// differ.
  Status Recover(DurableState state, SessionManager* sessions);

  /// Forces a rotation now: settle queued intake, snapshot live state,
  /// start a fresh WAL segment.
  Status SnapshotNow();

  const RecoveryReport& recovery_report() const { return report_; }
  /// Lifetime append/durability counters across every segment written.
  WalStats wal_stats() const;
  uint64_t snapshot_count() const { return snapshot_count_; }
  uint64_t epoch() const { return epoch_; }
  const DurabilityOptions& options() const { return options_; }

 private:
  /// One live (admitted, not yet retired or cancelled) query.
  struct LiveQuery {
    int64_t session = -1;
    std::string text;
  };

  /// The fact segment on disk that holds a relation's rows at `version`.
  struct FactSegmentRef {
    uint64_t epoch = 0;
    uint64_t version = 0;
  };

  DurableCoordinationService(CoordinationService* inner, const Database* db,
                             DurabilityOptions options);

  Status LogRecord(const WalRecord& record);
  void OnInnerDelivery(const Delivery& delivery);
  /// Admits a logged text (or batch) under the next durable id(s):
  /// forwards the parse to the inner service, checks that it issued the
  /// same ids, and mirrors the cadence.  The queries are live before
  /// the inner call, whose per-arrival evaluation may deliver them at
  /// once; each logged text then moves into its live entry if the
  /// query is still pending.
  void ForwardSubmit(int64_t session, std::string* text, QuerySet parsed);
  std::vector<QueryId> ForwardBatch(int64_t session,
                                    std::vector<std::string>* texts,
                                    QuerySet parsed);
  /// Moves `texts[i]` into the live entry of durable id `first + i`,
  /// for every one of them still live.
  void KeepLiveTexts(int64_t first, std::string* texts);
  void TickSubmitPhase();
  void MaybeAutoSnapshot();
  Status RotateWithSnapshot(uint64_t new_epoch);
  /// Re-applies one tail record; its texts move into live_.
  void ApplyReplayed(WalRecord* record, SessionManager* sessions);

  CoordinationService* inner_;
  const Database* db_;
  DurabilityOptions options_;
  DeliveryCallback downstream_;

  std::unique_ptr<WalWriter> wal_;
  WalStats closed_wal_stats_;  ///< folded-in stats of rotated-out segments
  /// Per catalog position, the fact segment the last rotation named; a
  /// rotation rewrites a relation only when its version moved.
  std::vector<std::optional<FactSegmentRef>> segments_;
  uint64_t epoch_ = 0;
  uint64_t snapshot_count_ = 0;
  uint64_t total_events_ = 0;        ///< logged records (marks excluded)
  uint64_t last_snapshot_events_ = 0;
  bool ready_ = false;      ///< genesis written or Recover() completed
  bool replaying_ = false;  ///< inside Recover(): no logging, suppression on
  /// Recover()'s session manager, wired only while replaying: a
  /// suppressed delivery never reaches the manager's callback, so the
  /// replay must clear the retired queries' session-pending entries
  /// itself.
  SessionManager* replay_sessions_ = nullptr;

  int64_t next_durable_id_ = 0;
  std::map<int64_t, LiveQuery> live_;  ///< durable id -> admitted intent

  uint64_t delivered_next_ = 0;   ///< next delivery sequence to be assigned
  uint64_t suppress_below_ = 0;   ///< recovery watermark (replay only)

  // Cadence mirror (never reads engine internals).
  size_t evaluate_every_ = 1;
  size_t cadence_phase_ = 0;

  int64_t session_tag_ = -1;  ///< set by SessionManager around calls
  uint64_t rejected_ = 0;     ///< unparseable texts (never logged)
  RecoveryReport report_;
};

}  // namespace entangled

#endif  // ENTANGLED_STORAGE_DURABLE_SERVICE_H_
