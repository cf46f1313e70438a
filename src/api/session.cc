#include "api/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/timer.h"
#include "core/parser.h"
#include "db/atom.h"

namespace entangled {
namespace {

/// Two head atoms that can denote the same answer fact: the query
/// double-books one answer slot.
bool HasDuplicateHeads(const EntangledQuery& query) {
  for (size_t i = 0; i < query.head.size(); ++i) {
    for (size_t j = i + 1; j < query.head.size(); ++j) {
      if (PositionwiseUnifiable(query.head[i], query.head[j])) return true;
    }
  }
  return false;
}

/// Definition 2 restricted to the singleton set: a postcondition of the
/// query unifies with more than one of the query's own heads.  Such a
/// query is unsafe in every set that contains it.
bool IsSelfUnsafe(const EntangledQuery& query) {
  for (const Atom& post : query.postconditions) {
    size_t targets = 0;
    for (const Atom& head : query.head) {
      if (PositionwiseUnifiable(post, head) && ++targets > 1) return true;
    }
  }
  return false;
}

/// Per-query admission check on the session's parse of the text; kNone
/// when the query passes.  `message` receives the detail.
RejectReason CheckQuery(const SessionOptions& options,
                        const EntangledQuery& query, std::string* message) {
  if (options.max_body_atoms > 0 &&
      query.body.size() > options.max_body_atoms) {
    *message = "body of '" + query.name + "' has " +
               std::to_string(query.body.size()) +
               " atoms; this session's footprint quota is " +
               std::to_string(options.max_body_atoms);
    return RejectReason::kQuotaFootprint;
  }
  if (!options.reject_defective) return RejectReason::kNone;
  if (HasDuplicateHeads(query)) {
    *message = "two head atoms of '" + query.name +
               "' unify with each other (one answer slot booked twice)";
    return RejectReason::kDuplicateHead;
  }
  if (IsSelfUnsafe(query)) {
    *message = "a postcondition of '" + query.name +
               "' unifies with more than one of its own heads; no set "
               "containing it can satisfy Definition 2";
    return RejectReason::kUnsafe;
  }
  return RejectReason::kNone;
}

RejectReason ClassifyServiceRejection(const Status& status) {
  return status.IsInvalidArgument() ? RejectReason::kParseError
                                    : RejectReason::kInternal;
}

/// Records the enclosing scope's wall time into one histogram.
class ScopedLatency {
 public:
  explicit ScopedLatency(LatencyHistogram* histogram)
      : histogram_(histogram) {}
  ~ScopedLatency() { histogram_->Record(timer_.ElapsedNanos()); }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  LatencyHistogram* histogram_;
  WallTimer timer_;
};

}  // namespace

const char* RejectReasonName(RejectReason reason) {
  // Exhaustive on purpose — no default case, so adding a RejectReason
  // without naming it is a -Wswitch compile warning here, and the
  // trailing CHECK catches out-of-range values at runtime.
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kParseError:
      return "parse_error";
    case RejectReason::kDuplicateHead:
      return "duplicate_head";
    case RejectReason::kUnsafe:
      return "unsafe";
    case RejectReason::kSessionClosed:
      return "session_closed";
    case RejectReason::kQuotaPending:
      return "quota_pending";
    case RejectReason::kQuotaRate:
      return "quota_rate";
    case RejectReason::kQuotaFootprint:
      return "quota_footprint";
    case RejectReason::kOverloaded:
      return "overloaded";
    case RejectReason::kInternal:
      return "internal";
  }
  ENTANGLED_CHECK(false) << "unnamed RejectReason "
                         << static_cast<int>(reason);
  return nullptr;
}

// ---------------------------------------------------------------------------
// ClientSession: thin forwarding layer (the manager owns all state that
// spans sessions).
// ---------------------------------------------------------------------------

SubmitOutcome ClientSession::Submit(const std::string& query_text) {
  return manager_->SubmitFor(this, query_text);
}

BatchOutcome ClientSession::SubmitBatch(
    const std::vector<std::string>& query_texts) {
  return manager_->SubmitBatchFor(this, query_texts);
}

bool ClientSession::Cancel(QueryId id) {
  return manager_->CancelFor(this, id);
}

std::vector<QueryId> ClientSession::PendingQueries() const {
  std::vector<QueryId> pending(pending_.begin(), pending_.end());
  std::sort(pending.begin(), pending.end());
  return pending;
}

std::vector<SessionEvent> ClientSession::PollEvents() {
  ScopedLatency scoped(&manager_->lat_poll_events_);
  std::vector<SessionEvent> events(std::make_move_iterator(events_.begin()),
                                   std::make_move_iterator(events_.end()));
  events_.clear();
  return events;
}

void ClientSession::Close() {
  if (open_) manager_->CloseSession(this);
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(CoordinationService* service,
                               ManagerOptions options)
    : service_(service), options_(std::move(options)) {
  ENTANGLED_CHECK(service != nullptr);
  if (options_.shed_low_water == 0 && options_.shed_high_water > 0) {
    options_.shed_low_water = options_.shed_high_water / 2;
  }
  ENTANGLED_CHECK(options_.shed_high_water == 0 ||
                  options_.shed_low_water < options_.shed_high_water)
      << "shed_low_water must sit below shed_high_water";
  service_->set_delivery_callback(
      [this](const Delivery& delivery) { OnDelivery(delivery); });
}

SessionManager::~SessionManager() {
  service_->set_delivery_callback(nullptr);
}

ClientSession* SessionManager::Open(SessionOptions options) {
  const SessionId id = static_cast<SessionId>(sessions_.size());
  if (options.label.empty()) options.label = "s" + std::to_string(id);
  sessions_.emplace_back(
      new ClientSession(this, id, std::move(options)));
  ++num_open_;
  return sessions_.back().get();
}

bool SessionManager::Close(SessionId id) {
  ClientSession* session = Find(id);
  if (session == nullptr || !session->open()) return false;
  CloseSession(session);
  return true;
}

ClientSession* SessionManager::Find(SessionId id) {
  if (id < 0 || static_cast<size_t>(id) >= sessions_.size()) return nullptr;
  return sessions_[static_cast<size_t>(id)].get();
}

const ClientSession* SessionManager::Find(SessionId id) const {
  if (id < 0 || static_cast<size_t>(id) >= sessions_.size()) return nullptr;
  return sessions_[static_cast<size_t>(id)].get();
}

SessionId SessionManager::OwnerOf(QueryId id) const {
  if (id < 0 || static_cast<size_t>(id) >= owner_.size()) return -1;
  return owner_[static_cast<size_t>(id)];
}

std::vector<const ClientSession*> SessionManager::sessions() const {
  std::vector<const ClientSession*> all;
  all.reserve(sessions_.size());
  for (const auto& session : sessions_) all.push_back(session.get());
  return all;
}

size_t SessionManager::Flush() {
  ScopedLatency scoped(&lat_flush_);
  return service_->Flush();
}

// ----- quotas, shedding, and pending accounting ---------------------------

uint64_t SessionManager::NowNanos() const {
  if (options_.clock_nanos) return options_.clock_nanos();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SessionManager::RefillBucket(ClientSession* session) {
  const double rate = session->options_.max_queries_per_sec;
  const double burst = std::max(1.0, std::ceil(rate));
  const uint64_t now = NowNanos();
  if (!session->bucket_primed_) {
    session->tokens_ = burst;
    session->last_refill_ns_ = now;
    session->bucket_primed_ = true;
    return;
  }
  if (now <= session->last_refill_ns_) return;
  const double elapsed_sec =
      static_cast<double>(now - session->last_refill_ns_) * 1e-9;
  session->tokens_ = std::min(burst, session->tokens_ + elapsed_sec * rate);
  session->last_refill_ns_ = now;
}

void SessionManager::SpendTokens(ClientSession* session, double cost) {
  if (session->options_.max_queries_per_sec <= 0) return;
  RefillBucket(session);
  session->tokens_ = std::max(0.0, session->tokens_ - cost);
}

bool SessionManager::UpdateShedding() {
  const size_t high = options_.shed_high_water;
  const size_t intake_high = options_.shed_intake_high_water;
  if (high == 0 && intake_high == 0) return false;
  // IntakeDepth is passive (an atomic ticket read); this never forces a
  // drain on the submit path.
  const size_t intake_depth =
      intake_high > 0 ? service_->IntakeDepth() : 0;
  if (!shedding_) {
    const bool pending_over = high > 0 && tracked_pending_ >= high;
    const bool intake_over = intake_high > 0 && intake_depth >= intake_high;
    if (pending_over || intake_over) {
      shedding_ = true;
      ++shed_transitions_;
    }
  } else {
    const bool pending_recovered =
        high == 0 || tracked_pending_ <= options_.shed_low_water;
    const bool intake_recovered =
        intake_high == 0 || intake_depth <= intake_high / 2;
    if (pending_recovered && intake_recovered) shedding_ = false;
  }
  return shedding_;
}

RejectReason SessionManager::AdmissionCheck(ClientSession* session,
                                            size_t count,
                                            std::string* message) {
  if (UpdateShedding()) {
    *message = "shedding load: " + std::to_string(tracked_pending_) +
               " queries pending across all sessions (recovery at " +
               std::to_string(options_.shed_low_water) + ")";
    return RejectReason::kOverloaded;
  }
  if (options_.global_pending_ceiling > 0 &&
      tracked_pending_ + count > options_.global_pending_ceiling) {
    *message = "global pending ceiling of " +
               std::to_string(options_.global_pending_ceiling) +
               " reached (" + std::to_string(tracked_pending_) + " pending)";
    return RejectReason::kQuotaPending;
  }
  const SessionOptions& opts = session->options_;
  if (opts.max_pending > 0 &&
      session->pending_.size() + count > opts.max_pending) {
    *message = "session " + std::to_string(session->id_) + " holds " +
               std::to_string(session->pending_.size()) +
               " pending queries; its quota is " +
               std::to_string(opts.max_pending);
    return RejectReason::kQuotaPending;
  }
  if (opts.max_queries_per_sec > 0) {
    RefillBucket(session);
    if (session->tokens_ + 1e-9 < static_cast<double>(count)) {
      *message = "session " + std::to_string(session->id_) +
                 " exceeded its rate of " +
                 std::to_string(opts.max_queries_per_sec) + " queries/sec";
      return RejectReason::kQuotaRate;
    }
  }
  return RejectReason::kNone;
}

void SessionManager::MarkPending(ClientSession* session, QueryId id) {
  if (session->pending_.insert(id).second) ++tracked_pending_;
}

void SessionManager::UnmarkPending(ClientSession* session, QueryId id) {
  if (session->pending_.erase(id) > 0) --tracked_pending_;
}

void SessionManager::MarkRetired(QueryId id) {
  if (id < 0) return;
  const size_t idx = static_cast<size_t>(id);
  if (idx >= retired_.size()) retired_.resize(idx + 1, false);
  retired_[idx] = true;
}

bool SessionManager::IsRetired(QueryId id) const {
  return id >= 0 && static_cast<size_t>(id) < retired_.size() &&
         retired_[static_cast<size_t>(id)];
}

void SessionManager::CountReject(RejectReason reason) {
  ++reject_counts_[static_cast<size_t>(reason)];
}

// ----- delivery routing and ownership -------------------------------------

void SessionManager::RegisterOwnership(QueryId id, ClientSession* session) {
  if (static_cast<size_t>(id) >= owner_.size()) {
    owner_.resize(static_cast<size_t>(id) + 1, -1);
  }
  owner_[static_cast<size_t>(id)] = session->id();
  if (service_->AdmitsDeferred()) {
    // Deferred admission: the submission is queued, so probing
    // IsPending here would force a drain on every Submit, defeating the
    // non-blocking intake.  Register optimistically; OnDelivery erases
    // the entry the moment the queued query coordinates.  One guard:
    // nothing in the service contract says the id cannot retire *during
    // this very call* — pushing onto a full intake ring drains (and
    // delivers) earlier events inline, and whether an in-flight id can
    // be among them is a property of the engine's drain ordering, not
    // of this layer.  OnDelivery marks delivered ids retired;
    // re-inserting one here would be a phantom pending entry that never
    // clears and breaks the session/service pending tiling.
    if (!IsRetired(id)) MarkPending(session, id);
    return;
  }
  // The query may already have delivered inside the submitting call
  // (per-arrival evaluation); only still-pending queries are tracked.
  if (service_->IsPending(id)) MarkPending(session, id);
}

bool SessionManager::AdoptRecovered(SessionId session, QueryId id) {
  if (session < 0 || static_cast<size_t>(session) >= sessions_.size()) {
    return false;
  }
  ClientSession* owner = sessions_[static_cast<size_t>(session)].get();
  if (!owner->open_) return false;
  if (static_cast<size_t>(id) >= owner_.size()) {
    owner_.resize(static_cast<size_t>(id) + 1, -1);
  }
  owner_[static_cast<size_t>(id)] = session;
  // Same pending discipline as RegisterOwnership: optimistic under
  // deferred admission (OnDelivery erases on retirement), probed
  // otherwise.  MarkPending is idempotent, so the replay's second
  // adoption pass settles the entry without double counting.
  if (service_->AdmitsDeferred()) {
    if (!IsRetired(id)) MarkPending(owner, id);
  } else if (service_->IsPending(id)) {
    MarkPending(owner, id);
  }
  return true;
}

void SessionManager::UnadoptRecovered(QueryId id) {
  const SessionId owner = OwnerOf(id);
  if (owner < 0) return;
  UnmarkPending(sessions_[static_cast<size_t>(owner)].get(), id);
}

void SessionManager::OnDelivery(const Delivery& delivery) {
  // One shared, owned event; each owning session gets its own slice.
  // (This is the one deep copy of the materialized Delivery; avoiding
  // it would mean a shared_ptr-typed service callback for every
  // consumer, which is not worth it at delivery — not submission —
  // frequency.)
  auto shared = std::make_shared<const Delivery>(delivery);
  // session id -> that session's members, ascending (delivery.queries
  // is ascending and the map is ordered, so routing is deterministic).
  std::map<SessionId, std::vector<QueryId>> owners;
  for (const DeliveredQuery& q : delivery.queries) {
    MarkRetired(q.id);
    SessionId owner = OwnerOf(q.id);
    if (owner < 0) owner = current_submitter_;  // assigned mid-submit
    if (owner < 0) continue;  // submitted directly on the service
    if (static_cast<size_t>(q.id) >= owner_.size() ||
        owner_[static_cast<size_t>(q.id)] < 0) {
      owner_.resize(std::max(owner_.size(), static_cast<size_t>(q.id) + 1),
                    -1);
      owner_[static_cast<size_t>(q.id)] = owner;
    }
    owners[owner].push_back(q.id);
    UnmarkPending(sessions_[static_cast<size_t>(owner)].get(), q.id);
  }
  for (auto& [sid, own] : owners) {
    ClientSession* session = sessions_[static_cast<size_t>(sid)].get();
    SessionEvent event{sid, shared, std::move(own)};
    session->events_.push_back(event);
    ++session->deliveries_;
    // Push observes the event exactly as it is buffered, so the push
    // stream and a PollEvents() drain are byte-identical.  The handler
    // gets the stack copy, not a reference into events_: a push handler
    // may legally call PollEvents() (it touches no engine state), which
    // drains the deque out from under any buffered reference.
    if (session->event_callback_) {
      session->event_callback_(event);
    }
  }
}

// ----- submission / cancellation / close ----------------------------------

SubmitOutcome SessionManager::SubmitFor(ClientSession* session,
                                        const std::string& query_text) {
  ScopedLatency scoped(&lat_submit_);
  SubmitOutcome outcome;
  if (!session->open_) {
    outcome.reason = RejectReason::kSessionClosed;
    outcome.message = "session " + std::to_string(session->id_) + " is closed";
    CountReject(outcome.reason);
    return outcome;
  }
  outcome.reason = AdmissionCheck(session, 1, &outcome.message);
  if (!outcome.ok()) {
    CountReject(outcome.reason);
    return outcome;
  }
  // The one parse of the text: every layer below takes it through
  // SubmitParsed.  Without defect checks an unparseable text goes to
  // the service verbatim, and the service's own rejection is
  // classified as usual.
  QuerySet parsed;
  const Status parse = ParseQuery(query_text, &parsed).status();
  if (parse.ok()) {
    outcome.reason =
        CheckQuery(session->options_, parsed.query(0), &outcome.message);
  } else if (session->options_.reject_defective) {
    outcome.reason = RejectReason::kParseError;
    outcome.message = parse.message();
  }
  if (!outcome.ok()) {
    CountReject(outcome.reason);
    return outcome;
  }

  current_submitter_ = session->id_;
  service_->set_session_tag(session->id_);
  auto id = parse.ok() ? service_->SubmitParsed(query_text, std::move(parsed))
                       : service_->Submit(query_text);
  service_->set_session_tag(-1);
  current_submitter_ = -1;
  if (!id.ok()) {
    outcome.reason = ClassifyServiceRejection(id.status());
    outcome.message = id.status().message();
    CountReject(outcome.reason);
    return outcome;
  }
  ++session->submitted_;
  SpendTokens(session, 1.0);
  RegisterOwnership(*id, session);
  outcome.id = *id;
  return outcome;
}

BatchOutcome SessionManager::SubmitBatchFor(
    ClientSession* session, const std::vector<std::string>& query_texts) {
  ScopedLatency scoped(&lat_submit_batch_);
  BatchOutcome outcome;
  if (!session->open_) {
    outcome.reason = RejectReason::kSessionClosed;
    outcome.message = "session " + std::to_string(session->id_) + " is closed";
    CountReject(outcome.reason);
    return outcome;
  }
  // All-or-nothing: the whole batch must clear every quota before any
  // text reaches the service (one token / pending slot per member).
  outcome.reason =
      AdmissionCheck(session, query_texts.size(), &outcome.message);
  if (!outcome.ok()) {
    CountReject(outcome.reason);
    return outcome;
  }
  // One parse per text, as in SubmitFor; the first unparseable text
  // (when defects are not rejected) sends the batch verbatim.
  QuerySet parsed;
  size_t unparseable = query_texts.size();
  for (size_t i = 0; i < query_texts.size(); ++i) {
    auto id = ParseQuery(query_texts[i], &parsed);
    if (id.ok()) {
      outcome.reason =
          CheckQuery(session->options_, parsed.query(*id), &outcome.message);
    } else if (session->options_.reject_defective) {
      outcome.reason = RejectReason::kParseError;
      outcome.message = id.status().message();
    } else if (unparseable == query_texts.size()) {
      unparseable = i;
    }
    if (!outcome.ok()) {
      outcome.rejected_index = i;
      CountReject(outcome.reason);
      return outcome;
    }
  }

  current_submitter_ = session->id_;
  service_->set_session_tag(session->id_);
  auto ids = unparseable == query_texts.size()
                 ? service_->SubmitBatchParsed(query_texts, std::move(parsed))
                 : service_->SubmitBatch(query_texts);
  service_->set_session_tag(-1);
  current_submitter_ = -1;
  if (!ids.ok()) {
    outcome.reason = ClassifyServiceRejection(ids.status());
    outcome.message = ids.status().message();
    // The service reports only the first error: the first text that
    // did not parse here, if any.
    if (unparseable < query_texts.size()) outcome.rejected_index = unparseable;
    CountReject(outcome.reason);
    return outcome;
  }
  session->submitted_ += ids->size();
  SpendTokens(session, static_cast<double>(ids->size()));
  for (QueryId id : *ids) RegisterOwnership(id, session);
  outcome.ids = std::move(*ids);
  return outcome;
}

bool SessionManager::CancelFor(ClientSession* session, QueryId id) {
  ScopedLatency scoped(&lat_cancel_);
  if (!session->open_ || session->pending_.count(id) == 0) return false;
  if (service_->AdmitsDeferred()) {
    // Force the intake drain *before* deciding: queued submissions may
    // coordinate as they land, and each delivery routes through
    // OnDelivery, which erases the session's optimistic pending entry.
    // After the drain the session view is exact again.
    service_->IsPending(id);
    if (session->pending_.count(id) == 0) return false;  // just delivered
  }
  service_->set_session_tag(session->id_);
  const bool cancelled = service_->Cancel(id);
  service_->set_session_tag(-1);
  ENTANGLED_CHECK(cancelled)
      << "service disagreed about session-pending query " << id;
  UnmarkPending(session, id);
  return true;
}

void SessionManager::CloseSession(ClientSession* session) {
  ENTANGLED_CHECK(session->open_);
  // Settle any queued submissions first: draining may deliver optimistic
  // entries (OnDelivery erases them), so the snapshot below is exact and
  // every Cancel in the loop is guaranteed to succeed.
  if (service_->AdmitsDeferred()) service_->num_pending();
  // Bulk-cancel in ascending order (deterministic dirty-marking in the
  // engine regardless of hash-set iteration order).
  std::vector<QueryId> pending = session->PendingQueries();
  service_->set_session_tag(session->id_);
  for (QueryId id : pending) {
    const bool cancelled = service_->Cancel(id);
    ENTANGLED_CHECK(cancelled)
        << "service disagreed about session-pending query " << id;
    UnmarkPending(session, id);
  }
  service_->set_session_tag(-1);
  ENTANGLED_CHECK(session->pending_.empty());
  session->open_ = false;
  --num_open_;
  // Buffered events stay pollable (ClientSession::Close contract): a
  // disconnecting client drains them exactly once via PollEvents.
}

// ----- observability -------------------------------------------------------

MetricsSnapshot SessionManager::Metrics() const {
  MetricsSnapshot snap;
  // StatsSnapshot is a service read boundary: queued intake drains, so
  // the counters below agree with an inline-admission run.
  const EngineStats stats = service_->StatsSnapshot();
  snap.counters.emplace_back("engine.submitted", stats.submitted);
  snap.counters.emplace_back("engine.cancelled", stats.cancelled);
  snap.counters.emplace_back("engine.rejected", stats.rejected);
  snap.counters.emplace_back("engine.evaluations", stats.evaluations);
  snap.counters.emplace_back("engine.evaluations_avoided",
                             stats.evaluations_avoided);
  snap.counters.emplace_back("engine.coordinated_queries",
                             stats.coordinated_queries);
  snap.counters.emplace_back("engine.coordinating_sets",
                             stats.coordinating_sets);
  snap.counters.emplace_back("engine.unsafe_components",
                             stats.unsafe_components);
  snap.counters.emplace_back("engine.db_queries", stats.db_queries);
  snap.counters.emplace_back("engine.eval_cache_hits",
                             stats.eval_cache_hits);
  snap.counters.emplace_back("sessions.opened", sessions_.size());
  snap.counters.emplace_back("sessions.open", num_open_);
  for (size_t i = 0; i < kNumRejectReasons; ++i) {
    snap.counters.emplace_back(
        std::string("reject.") + RejectReasonName(kAllRejectReasons[i]),
        reject_counts_[static_cast<size_t>(kAllRejectReasons[i])]);
  }
  snap.counters.emplace_back(
      "shed.events",
      reject_counts_[static_cast<size_t>(RejectReason::kOverloaded)]);
  snap.counters.emplace_back("shed.transitions", shed_transitions_);
  snap.counters.emplace_back("shed.active", shedding_ ? 1 : 0);
  // Service-specific counters (a durable decorator adds its
  // WAL/snapshot/recovery totals; plain engines add nothing).
  service_->AppendCounters(&snap.counters);

  snap.latency.emplace_back("submit", lat_submit_);
  snap.latency.emplace_back("submit_batch", lat_submit_batch_);
  snap.latency.emplace_back("cancel", lat_cancel_);
  snap.latency.emplace_back("flush", lat_flush_);
  snap.latency.emplace_back("poll_events", lat_poll_events_);
  snap.latency.emplace_back("eval", stats.eval_latency);

  snap.gauges = service_->GaugesSnapshot();
  return snap;
}

}  // namespace entangled
