#include "storage/durable_service.h"

#include <algorithm>

#include "api/session.h"
#include "common/logging.h"
#include "core/parser.h"

namespace entangled {

namespace {

/// Whether `live` holds exactly the schema and rows of `loaded`,
/// compared row by row.
bool SameFacts(const Relation& live, const SnapshotRelation& loaded) {
  if (live.name() != loaded.name || live.column_names() != loaded.columns ||
      live.size() != loaded.rows.size()) {
    return false;
  }
  size_t i = 0;
  for (const RowView& row : live.rows()) {
    const Tuple& other = loaded.rows[i++];
    if (!std::equal(row.begin(), row.end(), other.begin(), other.end())) {
      return false;
    }
  }
  return true;
}

/// Moves a logged batch's texts out of `record`, in batch order.
std::vector<std::string> TakeBatchTexts(WalRecord* record) {
  std::vector<std::string> texts;
  texts.reserve(record->batch.size());
  for (auto& [id, text] : record->batch) texts.push_back(std::move(text));
  return texts;
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "recovery{";
  out += used_snapshot
             ? "snapshot=" + std::to_string(snapshot_epoch)
             : std::string("snapshot=none");
  if (snapshots_skipped > 0) {
    out += " snapshots_skipped=" + std::to_string(snapshots_skipped);
  }
  out += " segments=" + std::to_string(segments_scanned);
  out += " replayed=" + std::to_string(replayed_events);
  out += " pending=" + std::to_string(recovered_pending);
  out += " suppressed=" + std::to_string(suppressed_deliveries);
  out += " reforwarded=" + std::to_string(reforwarded_deliveries);
  if (torn_tail) {
    out += " torn_tail(" + std::to_string(truncated_bytes) + "B)";
  }
  if (corruption_detected) out += " CORRUPT[" + corruption_detail + "]";
  if (anomalies > 0) out += " anomalies=" + std::to_string(anomalies);
  out += " resume_seq=" + std::to_string(resumed_sequence);
  out += "}";
  return out;
}

// ---------------------------------------------------------------------------
// ReadDurableState
// ---------------------------------------------------------------------------

Result<DurableState> ReadDurableState(const std::string& dir) {
  auto listing = ListStorageDir(dir);
  if (!listing.ok()) return listing.status();
  if (listing->empty()) {
    return Status::FailedPrecondition("storage dir " + dir +
                                      " is empty: nothing to recover");
  }

  DurableState state;
  // Newest loadable snapshot wins; damaged ones are fallen past (and
  // counted) toward an older consistent point.
  bool have_snapshot = false;
  for (auto it = listing->snapshot_epochs.rbegin();
       it != listing->snapshot_epochs.rend(); ++it) {
    auto loaded = LoadSnapshot(SnapshotPath(dir, *it));
    if (loaded.ok()) {
      state.snapshot = std::move(*loaded);
      state.report.used_snapshot = true;
      state.report.snapshot_epoch = *it;
      have_snapshot = true;
      break;
    }
    ++state.report.snapshots_skipped;
    if (!state.report.corruption_detail.empty()) {
      state.report.corruption_detail += "; ";
    }
    state.report.corruption_detail += loaded.status().message();
  }
  if (!have_snapshot) {
    return Status::Internal(
        "storage dir " + dir + ": no loadable snapshot (" +
        std::to_string(state.report.snapshots_skipped) + " damaged: " +
        state.report.corruption_detail + ")");
  }

  uint64_t max_epoch = state.snapshot.epoch;
  for (uint64_t e : listing->snapshot_epochs) max_epoch = std::max(max_epoch, e);
  for (uint64_t e : listing->wal_epochs) max_epoch = std::max(max_epoch, e);
  state.next_epoch = max_epoch + 1;

  // Contiguous WAL segments from the snapshot's epoch forward.  A gap
  // (a deleted segment) means lost events: stop at the last consistent
  // point and report it as corruption rather than replaying across it.
  uint64_t expected = state.snapshot.epoch;
  for (uint64_t e : listing->wal_epochs) {
    if (e < state.snapshot.epoch) continue;
    if (e != expected) {
      state.report.corruption_detected = true;
      state.report.corruption_detail =
          "missing wal segment for epoch " + std::to_string(expected);
      break;
    }
    auto segment = ReadWalSegment(WalPath(dir, e));
    if (!segment.ok()) {
      state.report.corruption_detected = true;
      state.report.corruption_detail = segment.status().message();
      break;
    }
    ++state.report.segments_scanned;
    if (segment->corrupt) {
      // Keep the consistent prefix, stop the scan: records beyond the
      // damage (including any later segments) are unrecoverable in
      // order.
      for (WalRecord& r : segment->records) state.tail.push_back(std::move(r));
      state.report.corruption_detected = true;
      state.report.corruption_detail = segment->error;
      break;
    }
    for (WalRecord& r : segment->records) state.tail.push_back(std::move(r));
    if (segment->torn_tail) {
      state.report.torn_tail = true;
      state.report.truncated_bytes += segment->truncated_bytes;
      break;  // a torn segment is the crash frontier; nothing follows it
    }
    expected = e + 1;
  }
  return state;
}

// ---------------------------------------------------------------------------
// DurableCoordinationService
// ---------------------------------------------------------------------------

DurableCoordinationService::DurableCoordinationService(
    CoordinationService* inner, const Database* db, DurabilityOptions options)
    : inner_(inner), db_(db), options_(std::move(options)) {
  evaluate_every_ = options_.initial_evaluate_every;
  inner_->set_delivery_callback(
      [this](const Delivery& delivery) { OnInnerDelivery(delivery); });
}

Result<std::unique_ptr<DurableCoordinationService>>
DurableCoordinationService::Create(CoordinationService* inner,
                                   const Database* db,
                                   DurabilityOptions options) {
  ENTANGLED_CHECK(inner != nullptr);
  ENTANGLED_CHECK(db != nullptr);
  auto listing = ListStorageDir(options.dir);
  if (!listing.ok()) return listing.status();
  const bool fresh = listing->empty();
  std::unique_ptr<DurableCoordinationService> service(
      new DurableCoordinationService(inner, db, std::move(options)));
  if (fresh) {
    // Genesis: snapshot the initial facts (pending is empty, counters
    // zero) so recovery always has a fact baseline, then open segment 0.
    Status rotated = service->RotateWithSnapshot(0);
    if (!rotated.ok()) return rotated;
    service->ready_ = true;
  }
  // Non-empty: the caller must Recover() before submitting.
  return service;
}

Status DurableCoordinationService::LogRecord(const WalRecord& record) {
  ENTANGLED_CHECK(wal_ != nullptr) << "durable service has no open segment";
  Status appended = wal_->Append(record);
  if (!appended.ok()) return appended;
  if (record.kind != WalRecord::Kind::kDeliveryMark) ++total_events_;
  return Status::OK();
}

void DurableCoordinationService::ForwardSubmit(int64_t session,
                                               std::string* text,
                                               QuerySet parsed) {
  const int64_t id = next_durable_id_++;
  live_.emplace_hint(live_.end(), id, LiveQuery{session, {}});
  // The inner service numbers in admission order too, so it issues the
  // durable id itself — checked here.
  auto inner_id = inner_->SubmitParsed(*text, std::move(parsed));
  ENTANGLED_CHECK(inner_id.ok())
      << "parsed submit rejected by the inner service: "
      << inner_id.status().ToString();
  ENTANGLED_CHECK_EQ(*inner_id, id)
      << "inner service id allocation diverged from admission order";
  KeepLiveTexts(id, text);
  TickSubmitPhase();
}

std::vector<QueryId> DurableCoordinationService::ForwardBatch(
    int64_t session, std::vector<std::string>* texts, QuerySet parsed) {
  const int64_t first = next_durable_id_;
  for (size_t i = 0; i < texts->size(); ++i) {
    live_.emplace_hint(live_.end(), next_durable_id_++, LiveQuery{session, {}});
  }
  auto inner_ids = inner_->SubmitBatchParsed(*texts, std::move(parsed));
  ENTANGLED_CHECK(inner_ids.ok())
      << "parsed batch rejected by the inner service: "
      << inner_ids.status().ToString();
  ENTANGLED_CHECK_EQ(inner_ids->size(), texts->size());
  for (size_t i = 0; i < inner_ids->size(); ++i) {
    ENTANGLED_CHECK_EQ((*inner_ids)[i], first + static_cast<int64_t>(i))
        << "inner service id allocation diverged from admission order";
  }
  KeepLiveTexts(first, texts->data());
  // A batch admits whole, then flushes once: the inner engine resets
  // its per-arrival phase (see CoordinationEngine::SubmitBatch).
  if (evaluate_every_ > 0) cadence_phase_ = 0;
  return std::move(*inner_ids);
}

void DurableCoordinationService::KeepLiveTexts(int64_t first,
                                               std::string* texts) {
  // Only the admission that took ids from `first` on can sit there.
  for (auto it = live_.lower_bound(first); it != live_.end(); ++it) {
    it->second.text = std::move(texts[it->first - first]);
  }
}

void DurableCoordinationService::TickSubmitPhase() {
  if (evaluate_every_ > 0 && ++cadence_phase_ >= evaluate_every_) {
    cadence_phase_ = 0;
  }
}

void DurableCoordinationService::MaybeAutoSnapshot() {
  if (replaying_ || options_.snapshot_every_events == 0) return;
  if (total_events_ - last_snapshot_events_ >= options_.snapshot_every_events) {
    Status rotated = SnapshotNow();
    ENTANGLED_CHECK(rotated.ok())
        << "automatic snapshot failed: " << rotated.ToString();
  }
}

// ----- delivery forwarding --------------------------------------------------

void DurableCoordinationService::OnInnerDelivery(const Delivery& delivery) {
  // The inner service numbers queries and deliveries as the log does,
  // so the delivery forwards as it is.  Retire from the durable view
  // (delivered queries leave the log's live set; the next snapshot no
  // longer carries them).
  for (const DeliveredQuery& q : delivery.queries) live_.erase(q.id);
  delivered_next_ = delivery.sequence + 1;

  if (replaying_ && delivery.sequence < suppress_below_) {
    // Re-derived by the replay but already seen by clients pre-crash:
    // not re-forwarded — but the session manager never hears about a
    // suppressed delivery, so its pending bookkeeping is settled here.
    ++report_.suppressed_deliveries;
    if (replay_sessions_ != nullptr) {
      for (const DeliveredQuery& q : delivery.queries) {
        replay_sessions_->UnadoptRecovered(q.id);
      }
    }
    return;
  }
  if (replaying_) ++report_.reforwarded_deliveries;
  if (downstream_) downstream_(delivery);
  if (!replaying_) {
    // Watermark *after* the forward: a mid-call crash re-forwards this
    // delivery (at-least-once) instead of losing it.
    WalRecord mark;
    mark.kind = WalRecord::Kind::kDeliveryMark;
    mark.value = delivered_next_;
    Status logged = LogRecord(mark);
    ENTANGLED_CHECK(logged.ok())
        << "delivery mark append failed: " << logged.ToString();
  }
}

// ----- mutating front door --------------------------------------------------

Result<QueryId> DurableCoordinationService::Submit(
    const std::string& query_text) {
  // Parsed before logging: an invalid text is rejected here and never
  // reaches the log or the inner service.
  QuerySet parsed;
  if (auto id = ParseQuery(query_text, &parsed); !id.ok()) {
    ++rejected_;
    return id.status();
  }
  return SubmitParsed(query_text, std::move(parsed));
}

Result<std::vector<QueryId>> DurableCoordinationService::SubmitBatch(
    const std::vector<std::string>& query_texts) {
  QuerySet parsed;
  for (const std::string& text : query_texts) {
    if (auto id = ParseQuery(text, &parsed); !id.ok()) {
      ++rejected_;  // all-or-nothing: one rejection per refused batch
      return id.status();
    }
  }
  return SubmitBatchParsed(query_texts, std::move(parsed));
}

Result<QueryId> DurableCoordinationService::SubmitParsed(
    const std::string& query_text, QuerySet parsed) {
  ENTANGLED_CHECK(ready_) << "durable service used before Recover()";
  const int64_t durable_id = next_durable_id_;
  WalRecord record;
  record.kind = WalRecord::Kind::kSubmit;
  record.id = durable_id;
  record.session = session_tag_;
  record.text = query_text;
  Status logged = LogRecord(record);
  if (!logged.ok()) return logged;
  ForwardSubmit(record.session, &record.text, std::move(parsed));
  MaybeAutoSnapshot();
  return static_cast<QueryId>(durable_id);
}

Result<std::vector<QueryId>> DurableCoordinationService::SubmitBatchParsed(
    const std::vector<std::string>& query_texts, QuerySet parsed) {
  ENTANGLED_CHECK(ready_) << "durable service used before Recover()";
  WalRecord record;
  record.kind = WalRecord::Kind::kSubmitBatch;
  record.session = session_tag_;
  record.batch.reserve(query_texts.size());
  for (size_t i = 0; i < query_texts.size(); ++i) {
    record.batch.emplace_back(next_durable_id_ + static_cast<int64_t>(i),
                              query_texts[i]);
  }
  Status logged = LogRecord(record);
  if (!logged.ok()) return logged;
  std::vector<std::string> texts = TakeBatchTexts(&record);
  std::vector<QueryId> ids =
      ForwardBatch(record.session, &texts, std::move(parsed));
  MaybeAutoSnapshot();
  return ids;
}

bool DurableCoordinationService::Cancel(QueryId id) {
  ENTANGLED_CHECK(ready_) << "durable service used before Recover()";
  // Admission check before logging: the probe settles any queued intake
  // (the query may coordinate as earlier events drain), so a logged
  // cancel is always applicable on replay.
  if (!inner_->IsPending(id)) return false;

  WalRecord record;
  record.kind = WalRecord::Kind::kCancel;
  record.id = id;
  record.session = session_tag_;
  Status logged = LogRecord(record);
  ENTANGLED_CHECK(logged.ok())
      << "cancel append failed: " << logged.ToString();
  const bool cancelled = inner_->Cancel(id);
  ENTANGLED_CHECK(cancelled) << "settled pending query refused to cancel";
  live_.erase(id);
  MaybeAutoSnapshot();
  return true;
}

size_t DurableCoordinationService::Flush() {
  ENTANGLED_CHECK(ready_) << "durable service used before Recover()";
  WalRecord record;
  record.kind = WalRecord::Kind::kFlush;
  Status logged = LogRecord(record);
  ENTANGLED_CHECK(logged.ok()) << "flush append failed: " << logged.ToString();
  Status synced = wal_->MarkFlush();
  ENTANGLED_CHECK(synced.ok()) << "flush fsync failed: " << synced.ToString();
  const size_t delivered = inner_->Flush();
  MaybeAutoSnapshot();
  return delivered;
}

void DurableCoordinationService::set_evaluate_every(size_t evaluate_every) {
  ENTANGLED_CHECK(ready_) << "durable service used before Recover()";
  WalRecord record;
  record.kind = WalRecord::Kind::kSetEvaluateEvery;
  record.value = evaluate_every;
  Status logged = LogRecord(record);
  ENTANGLED_CHECK(logged.ok())
      << "cadence append failed: " << logged.ToString();
  inner_->set_evaluate_every(evaluate_every);
  // Rate changes preserve the phase in both engines (they drain first;
  // earlier submissions keep the cadence in force when they arrived).
  evaluate_every_ = evaluate_every;
  MaybeAutoSnapshot();
}

// ----- reads ----------------------------------------------------------------

std::vector<QueryId> DurableCoordinationService::PendingQueries() const {
  return inner_->PendingQueries();
}

bool DurableCoordinationService::IsPending(QueryId id) const {
  return inner_->IsPending(id);
}

std::vector<QueryId> DurableCoordinationService::ComponentOf(
    QueryId id) const {
  return inner_->ComponentOf(id);
}

EngineStats DurableCoordinationService::StatsSnapshot() const {
  EngineStats stats = inner_->StatsSnapshot();
  stats.rejected += rejected_;  // unparseable texts never reach inner
  return stats;
}

void DurableCoordinationService::AppendCounters(
    std::vector<std::pair<std::string, uint64_t>>* counters) const {
  const WalStats total = wal_stats();
  counters->emplace_back("wal.appended_records", total.appended_records);
  counters->emplace_back("wal.bytes", total.bytes);
  counters->emplace_back("wal.fsyncs", total.fsyncs);
  counters->emplace_back("snapshot.count", snapshot_count_);
  counters->emplace_back("recovery.replayed_events", report_.replayed_events);
  counters->emplace_back("recovery.truncated_bytes",
                         report_.truncated_bytes);
}

WalStats DurableCoordinationService::wal_stats() const {
  WalStats total = closed_wal_stats_;
  if (wal_ != nullptr) total += wal_->stats();
  return total;
}

// ----- rotation -------------------------------------------------------------

Status DurableCoordinationService::SnapshotNow() {
  // Settle queued intake first: the snapshot's pending set and cadence
  // mirror must describe a fully-drained service (drains are
  // delivery-stream-neutral, so this is observably a no-op).
  (void)inner_->num_pending();
  return RotateWithSnapshot(epoch_ + 1);
}

Status DurableCoordinationService::RotateWithSnapshot(uint64_t new_epoch) {
  SnapshotState state;
  state.epoch = new_epoch;
  state.next_durable_id = next_durable_id_;
  state.next_sequence = delivered_next_;
  state.evaluate_every = evaluate_every_;
  state.cadence_phase = cadence_phase_;
  state.total_events = total_events_;
  state.pending.reserve(live_.size());
  for (const auto& [durable_id, live] : live_) {
    SnapshotPendingQuery pending;
    pending.id = durable_id;
    pending.session = live.session;
    pending.text = live.text;
    state.pending.push_back(std::move(pending));
  }

  // The outgoing segment is made durable before the snapshot that
  // supersedes it, so disk never claims a snapshot ahead of its log.
  if (wal_ != nullptr) {
    Status synced = wal_->Sync();
    if (!synced.ok()) return synced;
  }
  // Relations are append-only and their version counts inserts, so an
  // unmoved version means the named segment still holds every row.
  // Other relations get a new segment, landed before the snapshot that
  // names it; the snapshot's directory fsync covers both renames.
  const std::vector<std::string>& names = db_->relation_names();
  std::vector<std::optional<FactSegmentRef>> segments(names.size());
  state.relations.resize(names.size());
  for (size_t position = 0; position < names.size(); ++position) {
    const Relation* relation = db_->Find(names[position]);
    ENTANGLED_CHECK(relation != nullptr) << "catalog lists unknown relation";
    FactSegmentRef ref{new_epoch, relation->version()};
    if (position < segments_.size() && segments_[position].has_value() &&
        segments_[position]->version == ref.version) {
      ref = *segments_[position];
    } else {
      Status written =
          WriteFactSegment(*relation, new_epoch, position, options_.dir);
      if (!written.ok()) return written;
    }
    state.relations[position].segment_epoch = ref.epoch;
    segments[position] = ref;
  }
  Status written = WriteSnapshot(state, options_.dir);
  if (!written.ok()) return written;
  segments_ = std::move(segments);
  auto writer =
      WalWriter::Create(WalPath(options_.dir, new_epoch), new_epoch,
                        options_.fsync);
  if (!writer.ok()) return writer.status();
  if (wal_ != nullptr) closed_wal_stats_ += wal_->stats();
  wal_ = std::move(*writer);
  epoch_ = new_epoch;
  ++snapshot_count_;
  last_snapshot_events_ = total_events_;
  return Status::OK();
}

// ----- recovery -------------------------------------------------------------

void DurableCoordinationService::ApplyReplayed(WalRecord* record,
                                               SessionManager* sessions) {
  switch (record->kind) {
    case WalRecord::Kind::kSubmit: {
      QuerySet parsed;
      if (record->id != next_durable_id_ ||
          !ParseQuery(record->text, &parsed).ok()) {
        ++report_.anomalies;
        return;
      }
      const QueryId id = static_cast<QueryId>(record->id);
      // Ownership lands before the submission so a delivery fired
      // inside the call (per-arrival evaluation) routes to its session.
      if (sessions != nullptr && record->session >= 0) {
        sessions->AdoptRecovered(record->session, id);
      }
      // Replay runs at the recorded cadence, so the call itself can
      // deliver.  A parsed text cannot be refused by the inner
      // service, hence a CHECK rather than an anomaly.
      ForwardSubmit(record->session, &record->text, std::move(parsed));
      // Second adoption pass marks the query session-pending now that
      // the service can answer IsPending for it.
      if (sessions != nullptr && record->session >= 0) {
        sessions->AdoptRecovered(record->session, id);
      }
      return;
    }
    case WalRecord::Kind::kSubmitBatch: {
      QuerySet parsed;
      int64_t expected = next_durable_id_;
      for (const auto& [durable_id, text] : record->batch) {
        if (durable_id != expected || !ParseQuery(text, &parsed).ok()) {
          ++report_.anomalies;
          return;
        }
        ++expected;
      }
      if (sessions != nullptr && record->session >= 0) {
        for (const auto& [durable_id, text] : record->batch) {
          sessions->AdoptRecovered(record->session,
                                   static_cast<QueryId>(durable_id));
        }
      }
      std::vector<std::string> texts = TakeBatchTexts(record);
      ForwardBatch(record->session, &texts, std::move(parsed));
      if (sessions != nullptr && record->session >= 0) {
        for (const auto& [durable_id, text] : record->batch) {
          sessions->AdoptRecovered(record->session,
                                   static_cast<QueryId>(durable_id));
        }
      }
      return;
    }
    case WalRecord::Kind::kCancel: {
      const QueryId id = static_cast<QueryId>(record->id);
      if (!inner_->IsPending(id)) {
        ++report_.anomalies;
        return;
      }
      const bool cancelled = inner_->Cancel(id);
      ENTANGLED_CHECK(cancelled);
      live_.erase(record->id);
      if (sessions != nullptr) sessions->UnadoptRecovered(id);
      return;
    }
    case WalRecord::Kind::kSetEvaluateEvery:
      inner_->set_evaluate_every(static_cast<size_t>(record->value));
      evaluate_every_ = static_cast<size_t>(record->value);
      return;
    case WalRecord::Kind::kFlush:
      inner_->Flush();
      return;
    case WalRecord::Kind::kDeliveryMark:
      return;  // watermark was folded into suppress_below_ up front
  }
  ++report_.anomalies;  // unknown kind survived CRC — count, don't crash
}

Status DurableCoordinationService::Recover(DurableState state,
                                           SessionManager* sessions) {
  ENTANGLED_CHECK(!ready_) << "Recover() on an already-live durable service";
  ENTANGLED_CHECK(live_.empty() && next_durable_id_ == 0)
      << "Recover() requires a freshly created decorator";
  replaying_ = true;
  replay_sessions_ = sessions;
  report_ = std::move(state.report);

  // Counters resume where the snapshot left them.
  next_durable_id_ = state.snapshot.next_durable_id;
  delivered_next_ = state.snapshot.next_sequence;
  evaluate_every_ = static_cast<size_t>(state.snapshot.evaluate_every);
  total_events_ = state.snapshot.total_events;

  // The suppression watermark: everything below it reached clients
  // pre-crash.  Marks ride in the tail; the snapshot is a floor.
  suppress_below_ = state.snapshot.next_sequence;
  for (const WalRecord& record : state.tail) {
    if (record.kind == WalRecord::Kind::kDeliveryMark) {
      suppress_below_ = std::max(suppress_below_, record.value);
    }
  }

  // Phase A — rebuild the snapshot's pending set with evaluation
  // suspended: admission must not deliver while the set is a partial
  // prefix (the pre-crash service never evaluated these mid-rebuild
  // either; their admission-time evaluations already ran before the
  // snapshot and found nothing, or they would not be pending).  Each
  // is resubmitted under its own durable id; then the inner service
  // resumes at the snapshot's next id and sequence, so from here on it
  // issues the durable ids and delivery sequences itself.
  auto abort = [this](const std::string& message) {
    replaying_ = false;
    replay_sessions_ = nullptr;
    return Status::Internal(message);
  };
  const uint64_t next_sequence = state.snapshot.next_sequence;
  inner_->set_evaluate_every(0);
  for (SnapshotPendingQuery& pending : state.snapshot.pending) {
    if (pending.id >= next_durable_id_ ||
        (!live_.empty() && pending.id <= live_.rbegin()->first)) {
      return abort("snapshot pending query " + std::to_string(pending.id) +
                   " is out of order");
    }
    const QueryId id = static_cast<QueryId>(pending.id);
    inner_->ResumeNumbering(id, next_sequence);
    auto inner_id = inner_->Submit(pending.text);
    if (!inner_id.ok()) {
      return abort("snapshot pending query " + std::to_string(pending.id) +
                   " no longer parses: " + inner_id.status().message());
    }
    ENTANGLED_CHECK_EQ(*inner_id, id) << "Recover() needs a fresh inner service";
    live_.emplace_hint(live_.end(), pending.id,
                       LiveQuery{pending.session, std::move(pending.text)});
    if (sessions != nullptr && pending.session >= 0) {
      sessions->AdoptRecovered(pending.session, id);
    }
  }
  inner_->ResumeNumbering(static_cast<QueryId>(next_durable_id_),
                          next_sequence);
  report_.recovered_pending = state.snapshot.pending.size();

  // Cadence resumes exactly where the snapshot froze it.
  inner_->set_evaluate_every(evaluate_every_);
  inner_->RestoreCadencePhase(static_cast<size_t>(state.snapshot.cadence_phase));
  cadence_phase_ = static_cast<size_t>(state.snapshot.cadence_phase);

  // Phase B — replay the tail at the recorded cadence.  Deliveries
  // re-derived below the watermark are suppressed in OnInnerDelivery;
  // ones beyond it forward to the (already wired) downstream now.
  for (WalRecord& record : state.tail) {
    ApplyReplayed(&record, sessions);
    ++report_.replayed_events;
  }
  // Settle queued intake so every pre-crash delivery is re-derived (and
  // every in-flight one re-forwarded) before recovery returns.
  (void)inner_->num_pending();

  // The closing rotation names each loaded fact segment again when the
  // live relation still holds exactly its rows; any relation that
  // differs (or that no segment covers) gets a new one.
  const std::vector<std::string>& names = db_->relation_names();
  segments_.assign(names.size(), std::nullopt);
  const size_t loaded = std::min(names.size(), state.snapshot.relations.size());
  for (size_t position = 0; position < loaded; ++position) {
    const Relation* live = db_->Find(names[position]);
    const SnapshotRelation& facts = state.snapshot.relations[position];
    if (SameFacts(*live, facts)) {
      segments_[position] =
          FactSegmentRef{facts.segment_epoch, live->version()};
    }
  }

  // Rotate into a fresh epoch capturing the recovered state: a second
  // recovery replays this snapshot, not the old log (idempotence).
  Status rotated = RotateWithSnapshot(state.next_epoch);
  replaying_ = false;
  replay_sessions_ = nullptr;
  if (!rotated.ok()) return rotated;
  report_.resumed_sequence = delivered_next_;
  ready_ = true;
  return Status::OK();
}

}  // namespace entangled
