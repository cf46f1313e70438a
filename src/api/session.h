#ifndef ENTANGLED_API_SESSION_H_
#define ENTANGLED_API_SESSION_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "api/delivery.h"
#include "common/metrics.h"
#include "system/engine.h"

namespace entangled {

/// \brief Identifier of a ClientSession within its SessionManager.
using SessionId = int64_t;

/// \brief Why a session refused a submission.  Typed so servers can map
/// rejections to protocol errors without parsing message strings.
enum class RejectReason : uint8_t {
  kNone = 0,        ///< not rejected
  kParseError,      ///< the text is not a well-formed entangled query
  kDuplicateHead,   ///< two head atoms of the query unify with each other
  kUnsafe,          ///< a postcondition unifies with >1 of the query's
                    ///< own heads (Definition 2, violated in isolation)
  kSessionClosed,   ///< the session was closed
  kQuotaPending,    ///< a pending-query quota is exhausted (per-session
                    ///< SessionOptions::max_pending or the manager-wide
                    ///< ManagerOptions::global_pending_ceiling)
  kQuotaRate,       ///< the session's token bucket is empty
                    ///< (SessionOptions::max_queries_per_sec)
  kQuotaFootprint,  ///< the query's body is wider than
                    ///< SessionOptions::max_body_atoms allows
  kOverloaded,      ///< the front door is shedding load (a high-water
                    ///< mark was crossed; recovery is hysteretic)
  kInternal,        ///< the service failed for another reason
};

/// Every RejectReason, for exhaustive iteration (metrics counters, the
/// round-trip name test).  Must list each enumerator exactly once.
inline constexpr RejectReason kAllRejectReasons[] = {
    RejectReason::kNone,          RejectReason::kParseError,
    RejectReason::kDuplicateHead, RejectReason::kUnsafe,
    RejectReason::kSessionClosed, RejectReason::kQuotaPending,
    RejectReason::kQuotaRate,     RejectReason::kQuotaFootprint,
    RejectReason::kOverloaded,    RejectReason::kInternal,
};
inline constexpr size_t kNumRejectReasons =
    sizeof(kAllRejectReasons) / sizeof(kAllRejectReasons[0]);

/// Stable lowercase name ("parse_error", "unsafe", ...).
const char* RejectReasonName(RejectReason reason);

/// \brief Typed outcome of ClientSession::Submit.
struct SubmitOutcome {
  QueryId id = -1;  ///< service-global id; valid when ok()
  RejectReason reason = RejectReason::kNone;
  std::string message;  ///< human-readable detail when rejected

  bool ok() const { return reason == RejectReason::kNone; }
  explicit operator bool() const { return ok(); }
};

/// \brief Typed outcome of ClientSession::SubmitBatch.  Admission is
/// all-or-nothing: on rejection nothing from the batch was admitted and
/// `rejected_index` names the offending text.
struct BatchOutcome {
  std::vector<QueryId> ids;  ///< in input order; valid when ok()
  RejectReason reason = RejectReason::kNone;
  std::string message;
  size_t rejected_index = 0;  ///< offending position when rejected

  bool ok() const { return reason == RejectReason::kNone; }
  explicit operator bool() const { return ok(); }
};

class SessionManager;

/// \brief One event routed to one session: a coordinating set that
/// includes at least one of the session's queries.  The Delivery is
/// shared (read-only) between every owning session; `own_queries` is
/// this session's slice of it.
struct SessionEvent {
  SessionId session = -1;
  std::shared_ptr<const Delivery> delivery;
  std::vector<QueryId> own_queries;  ///< this session's members, ascending
};

/// \brief Per-session admission policy.
struct SessionOptions {
  std::string label;  ///< display name for operators ("" = "s<id>")

  /// Reject queries that are defective in isolation *before* they reach
  /// the engine: a duplicate-head query double-books one answer slot,
  /// and a self-unsafe query (one of its own postconditions unifies
  /// with two of its own heads) poisons every component it ever joins —
  /// Definition 2 can never hold for a set containing it.  Both checks
  /// are per-query only, so they accept exactly what the engine accepts
  /// on any single-head query (in particular everything the workload
  /// generator emits).  Disabled, an unparseable text is forwarded to
  /// the service verbatim, and the service's own parse error is what
  /// the session reports.  Either way the session parses each text
  /// once and hands the parse down (CoordinationService::SubmitParsed).
  bool reject_defective = true;

  // ---- per-session quotas (0 = unlimited).  Every quota rejection is
  // a typed outcome (kQuotaPending / kQuotaRate / kQuotaFootprint):
  // nothing throws, nothing is silently dropped, and the metrics
  // snapshot counts every bounce. ----

  /// Most queries this session may hold pending at once.  A batch is
  /// admitted only when the *whole* batch fits (all-or-nothing, like
  /// every other batch failure).
  size_t max_pending = 0;

  /// Sustained queries/second this session may submit, enforced by a
  /// token bucket (burst = max(1, ceil(rate)) tokens; one token per
  /// query text, so a batch of k costs k).  Tokens are spent only on
  /// accepted submissions — a rejected text never burns budget.  Time
  /// comes from ManagerOptions::clock_nanos, so tests inject a clock.
  double max_queries_per_sec = 0;

  /// Widest query body (in body atoms) this session may submit — the
  /// per-participant footprint bound motivated by the paper's hardness
  /// results: solver cost explodes with footprint width, so one
  /// adversarial session must not be able to inject wide queries that
  /// blow up evaluation for every tenant.
  size_t max_body_atoms = 0;
};

/// \brief Manager-wide admission policy (ManagerOptions to
/// SessionManager's constructor; all limits default to off).
struct ManagerOptions {
  /// Most queries pending across *all* sessions; submissions beyond it
  /// bounce with kQuotaPending.  Counted from the manager's own
  /// bookkeeping (the per-session pending sets), so the check is O(1)
  /// and never forces an intake drain.
  size_t global_pending_ceiling = 0;

  /// Overload shedding: once the manager-tracked global pending count
  /// reaches `shed_high_water`, Submit/SubmitBatch reject with
  /// kOverloaded *before* touching the service, and keep rejecting
  /// until pending falls back to `shed_low_water` (default: half the
  /// high-water mark) — hysteresis, so recovery is a clean edge instead
  /// of flapping at the mark.  Cancels, deliveries, and Flush() remain
  /// admissible throughout: they are how the backlog drains.
  size_t shed_high_water = 0;
  size_t shed_low_water = 0;

  /// Same shedding trigger on the service's intake-queue depth
  /// (CoordinationService::IntakeDepth — validated-but-undrained
  /// submissions).  Only meaningful over an AdmitsDeferred service;
  /// recovery requires the depth back under half the mark.  The read is
  /// passive, so arming this never defeats the non-blocking intake.
  size_t shed_intake_high_water = 0;

  /// Monotonic clock for the rate quotas, nanoseconds.  Null (the
  /// default) reads std::chrono::steady_clock; tests inject a manual
  /// clock so token-bucket behaviour is deterministic.
  std::function<uint64_t()> clock_nanos;
};

/// \brief A client's handle on the coordination service: the unit of
/// multi-tenant isolation the Youtopia module (§6.1) assumes.  All
/// traffic goes through the owning SessionManager's service; a session
/// adds ownership (you can only cancel or enumerate your own queries),
/// typed submit outcomes, and a per-session event stream.
///
/// Events can be consumed two ways:
///  * **Pull** — PollEvents() drains the buffered events.  This is the
///    front door for async servers and CLIs: polling happens outside
///    any engine call, so handlers are free to Submit/Cancel/Flush.
///  * **Push** — set_event_callback() observes each event at enqueue
///    time.  Push handlers run inside the service's delivery path and
///    must not re-enter it (same contract as
///    CoordinationService::set_delivery_callback).
/// Both observe the same stream in the same order: an event is always
/// buffered, and the push hook (when set) fires as it is buffered.
///
/// Sessions are created by SessionManager::Open and owned by the
/// manager; the manager must outlive every handle.  Like the services
/// beneath it, the session API is single-threaded.
class ClientSession {
 public:
  using EventCallback = std::function<void(const SessionEvent&)>;

  SessionId id() const { return id_; }
  const std::string& label() const { return options_.label; }
  bool open() const { return open_; }

  /// Submits one query in the paper's concrete syntax.  On success the
  /// query belongs to this session; rejection reasons are typed
  /// (RejectReason) instead of a bare status.
  ///
  /// When the underlying service admits deferred submissions
  /// (CoordinationService::AdmitsDeferred — an engine with an armed
  /// intake queue), the call validates and enqueues without waiting on
  /// any in-progress flush: the returned id is final, the query counts
  /// as pending immediately, but coordination happens at the service's
  /// next flush or read boundary rather than inside this call.
  SubmitOutcome Submit(const std::string& query_text);

  /// All-or-nothing batch submission (one Flush after the whole batch
  /// lands, exactly like CoordinationService::SubmitBatch).
  BatchOutcome SubmitBatch(const std::vector<std::string>& query_texts);

  /// Withdraws one of *this session's* pending queries.  False when the
  /// id is unknown, not pending, or owned by another session.
  bool Cancel(QueryId id);

  /// This session's pending queries, ascending.  Under deferred
  /// admission, queued-but-not-yet-drained submissions are included:
  /// "pending" means submitted and not yet delivered or cancelled,
  /// regardless of whether the service has drained its intake.
  std::vector<QueryId> PendingQueries() const;
  size_t num_pending() const { return pending_.size(); }
  /// Whether `id` is one of this session's *pending* queries (delivered
  /// and cancelled queries drop out; for lifetime ownership — which
  /// survives retirement — ask SessionManager::OwnerOf).
  bool HasPending(QueryId id) const { return pending_.count(id) > 0; }

  /// Drains the buffered events, in delivery order.
  std::vector<SessionEvent> PollEvents();
  size_t num_buffered_events() const { return events_.size(); }

  /// Optional push notification; see the class comment for the
  /// reentrancy contract.  Events already buffered are not replayed.
  void set_event_callback(EventCallback callback) {
    event_callback_ = std::move(callback);
  }

  /// Lifetime counters (for operator surfaces like the CLI `sessions`
  /// table).
  uint64_t submitted() const { return submitted_; }
  uint64_t deliveries() const { return deliveries_; }

  /// Closes the session: every pending query is bulk-cancelled, and
  /// further submissions are rejected with kSessionClosed.  Buffered
  /// events stay pollable so a disconnecting client can drain them.
  void Close();

 private:
  friend class SessionManager;
  ClientSession(SessionManager* manager, SessionId id, SessionOptions options)
      : manager_(manager), id_(id), options_(std::move(options)) {}

  SessionManager* manager_;
  SessionId id_;
  SessionOptions options_;
  bool open_ = true;
  std::unordered_set<QueryId> pending_;
  std::deque<SessionEvent> events_;
  EventCallback event_callback_;
  uint64_t submitted_ = 0;
  uint64_t deliveries_ = 0;
  // Token bucket (SessionOptions::max_queries_per_sec); managed by the
  // manager, which owns the clock.  Initialized full on first use.
  double tokens_ = 0;
  uint64_t last_refill_ns_ = 0;
  bool bucket_primed_ = false;
};

/// \brief The multi-client front door over any CoordinationService
/// (single or sharded): owns the client sessions, tracks which session
/// owns which query, and routes every Delivery to all owning sessions —
/// a coordinating set spanning sessions notifies every owner, each with
/// its own `own_queries` slice of the shared event.
///
/// The manager installs itself as the service's delivery callback on
/// construction and detaches on destruction.  While it is attached the
/// manager owns the service's traffic: submitting directly on the
/// service is unsupported (a direct query delivered *outside* any
/// session call is routed to nobody, but one delivered during a
/// session's Submit would be attributed to that session — the manager
/// cannot tell a mid-call id it has not registered yet from a foreign
/// one).
class SessionManager {
 public:
  explicit SessionManager(CoordinationService* service,
                          ManagerOptions options = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a session.  The returned handle is owned by the manager and
  /// valid until the manager is destroyed (Close()d sessions keep their
  /// handle; ids are never reused).
  ClientSession* Open(SessionOptions options = {});

  /// Closes the session (bulk-cancelling its pending queries); false
  /// when the id is unknown or already closed.
  bool Close(SessionId id);

  /// The session with the given id (open or closed), or nullptr.
  ClientSession* Find(SessionId id);
  const ClientSession* Find(SessionId id) const;

  /// The session that submitted the query (still valid after the query
  /// delivered or cancelled), or -1 for queries the manager never saw.
  SessionId OwnerOf(QueryId id) const;

  /// Recovery adoption (storage/durable_service.h): re-binds a
  /// rehydrated query to the session that owned it pre-crash, marking
  /// it session-pending when the service still holds it.  Safe to call
  /// more than once per query (the durable replay adopts before *and*
  /// after applying a submission, so a delivery fired inside the apply
  /// already routes correctly).  Returns false — leaving the query
  /// owner-less but service-pending — when the session was never
  /// reopened or is closed.
  bool AdoptRecovered(SessionId session, QueryId id);

  /// Recovery counterpart of a replayed cancel: clears the owning
  /// session's pending entry (no-op for unowned queries).
  void UnadoptRecovered(QueryId id);

  /// Every session ever opened, ascending by id.
  std::vector<const ClientSession*> sessions() const;
  size_t num_sessions() const { return sessions_.size(); }
  size_t num_open_sessions() const { return num_open_; }

  // ----- service passthroughs (all sessions combined) -----
  size_t Flush();
  void set_evaluate_every(size_t n) { service_->set_evaluate_every(n); }
  std::vector<QueryId> PendingQueries() const {
    return service_->PendingQueries();
  }
  size_t num_pending() const { return service_->num_pending(); }
  EngineStats StatsSnapshot() const { return service_->StatsSnapshot(); }
  CoordinationService* service() const { return service_; }

  // ----- observability -----

  /// Whether overload shedding is currently engaged (kOverloaded
  /// rejections until the low-water mark is reached).
  bool shedding() const { return shedding_; }

  /// One self-contained observability snapshot (common/metrics.h):
  /// engine counters, a counter per RejectReason, shed state, the
  /// per-entry-point latency histograms (submit / submit_batch /
  /// cancel / flush / poll_events) plus the engine's eval histogram,
  /// and the service gauges (per-shard rows on a sharded service).
  /// The snapshot owns every byte — nothing references manager or
  /// engine internals — and Metrics().ToJson() is the stable JSON
  /// document the CLI `metrics` subcommand, the benches, and the
  /// stress harness consume.  Reading it is a service read boundary
  /// (queued intake is drained, like num_pending()).
  MetricsSnapshot Metrics() const;

 private:
  friend class ClientSession;

  /// Service delivery hook: route the event to every owning session.
  void OnDelivery(const Delivery& delivery);

  /// Records `session` as the owner of `id` (and as pending when the
  /// service still holds it).
  void RegisterOwnership(QueryId id, ClientSession* session);

  SubmitOutcome SubmitFor(ClientSession* session,
                          const std::string& query_text);
  BatchOutcome SubmitBatchFor(ClientSession* session,
                              const std::vector<std::string>& query_texts);
  bool CancelFor(ClientSession* session, QueryId id);
  void CloseSession(ClientSession* session);

  // ----- quotas, shedding, and pending accounting -----

  uint64_t NowNanos() const;

  /// Admission gate shared by Submit and SubmitBatch (`count` = query
  /// texts being admitted): overload shedding (with the hysteresis
  /// update), the global pending ceiling, the session pending quota,
  /// and the rate quota, in that order.  kNone when admissible;
  /// `message` receives the detail otherwise.  Does not spend tokens —
  /// SpendTokens runs only after the service accepted.
  RejectReason AdmissionCheck(ClientSession* session, size_t count,
                              std::string* message);

  /// Re-evaluates the hysteretic shedding state against the current
  /// load; returns whether submissions are currently shed.
  bool UpdateShedding();

  /// Refills `session`'s token bucket from the clock, then reports
  /// whether `cost` tokens are available / spends them.
  void RefillBucket(ClientSession* session);
  void SpendTokens(ClientSession* session, double cost);

  /// Pending-set bookkeeping: every insert/erase of a session's
  /// pending_ goes through these so tracked_pending_ (the O(1) global
  /// count quotas and shedding read) never drifts.
  void MarkPending(ClientSession* session, QueryId id);
  void UnmarkPending(ClientSession* session, QueryId id);

  /// Marks `id` delivered.  RegisterOwnership consults this on the
  /// deferred-admission path: the service contract permits retiring an
  /// id *inside* the submitting call (the inline engines deliver
  /// per-arrival; a full intake ring drains — and delivers — inline),
  /// and a retired id must not be optimistically inserted as pending
  /// afterwards — that phantom entry would never clear and the session
  /// pendings would stop tiling the service's pending set.
  void MarkRetired(QueryId id);
  bool IsRetired(QueryId id) const;

  void CountReject(RejectReason reason);

  CoordinationService* service_;
  ManagerOptions options_;
  std::vector<std::unique_ptr<ClientSession>> sessions_;  // index == id
  size_t num_open_ = 0;
  std::vector<SessionId> owner_;  // per service-global QueryId; -1 unknown
  std::vector<bool> retired_;     // per service-global QueryId: delivered
  /// Session whose Submit/SubmitBatch is currently inside the service:
  /// deliveries fired *during* that call can contain ids the manager
  /// has not registered yet (the service assigns them mid-call), and
  /// they all belong to this submitter.
  SessionId current_submitter_ = -1;

  // ----- admission-control state -----
  size_t tracked_pending_ = 0;  ///< sum of per-session pending_.size()
  bool shedding_ = false;
  uint64_t shed_transitions_ = 0;  ///< times shedding engaged

  // ----- metrics -----
  std::array<uint64_t, kNumRejectReasons> reject_counts_{};
  LatencyHistogram lat_submit_;
  LatencyHistogram lat_submit_batch_;
  LatencyHistogram lat_cancel_;
  LatencyHistogram lat_flush_;
  LatencyHistogram lat_poll_events_;
};

}  // namespace entangled

#endif  // ENTANGLED_API_SESSION_H_
