#ifndef ENTANGLED_API_DELIVERY_H_
#define ENTANGLED_API_DELIVERY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/grounding.h"
#include "core/query.h"
#include "db/atom.h"
#include "db/value.h"

namespace entangled {

/// \brief One participant of a delivered coordinating set, fully
/// materialized for the client who posed it.
struct DeliveredQuery {
  QueryId id = -1;    ///< service-global query id
  std::string name;   ///< display name the query was submitted under
  std::string text;   ///< the query, re-rendered in the paper's syntax
  /// The grounded head atoms under the witness — the "answers" returned
  /// to the user (e.g. R(101, 'Gwyneth') carries the chosen flight id).
  std::vector<Atom> answers;
  /// This participant's part of the Definition-1 witness h: one
  /// (display name, value) entry per variable of the query, in
  /// first-occurrence order over (postconditions, head, body) — the
  /// order the parser allocates them in and EntangledQuery::Variables
  /// lists them in.  A wildcard `_` appears under its `_N` name.
  std::vector<std::pair<std::string, Value>> witness;
};

/// \brief A self-contained delivery event: one coordinating set, with
/// everything a client needs materialized into owned data.
///
/// This is the only thing the coordination services hand to the outside
/// world.  Unlike the old `(const QuerySet&, const CoordinationSolution&)`
/// callback signature, a Delivery holds no references into the engine:
/// query texts, display names, grounded answers and each participant's
/// witness are all copied out at delivery time.  A captured Delivery
/// therefore stays valid after any subsequent Cancel/Flush/shard
/// migration — there is nothing left to dangle.
///
/// (`Value` strings are interned in the process-wide GlobalValueInterner,
/// whose storage is append-only and stable for the process lifetime, so
/// owning the 16-byte PODs really does own the strings.)
struct Delivery {
  /// Zero-based position of this delivery in the service's delivery
  /// stream.  Deterministic: the oracle, the incremental engine at any
  /// flush_threads, and the sharded engine at any shard_threads assign
  /// the same sequence to the same coordinating set.  A recovered
  /// service resumes the stream where its log left it
  /// (CoordinationService::ResumeNumbering) instead of restarting at 0.
  uint64_t sequence = 0;

  /// The coordinating set, ascending by id.
  std::vector<DeliveredQuery> queries;

  /// The participant ids, ascending (the old `solution.queries`).
  std::vector<QueryId> QueryIds() const;

  /// The participant with the given id, or nullptr.
  const DeliveredQuery* Find(QueryId id) const;

  /// Human-readable multi-line rendering: the participants, one line
  /// per answer, and the witness with each entry qualified by its
  /// participant's name ("a.x = 101").
  std::string ToString() const;
};

/// \brief Materializes a Delivery from an engine-internal solution:
/// copies out names and texts from `set`, grounds every participant's
/// head atoms under the witness, and records each participant's
/// witness entries.  `solution` must use `set`'s id and variable
/// namespaces.
Delivery MakeDelivery(const QuerySet& set,
                      const CoordinationSolution& solution,
                      uint64_t sequence);

/// \brief MakeDelivery's inverse view: the (ids + witness) form of a
/// delivery in `master`'s variable namespace — what Definition-1
/// re-validation (ValidateSolution against `master`) consumes.  Entry k
/// of participant q binds `master.query(q).Variables()[k]`.  An unknown
/// participant id or a witness whose entry count differs from the
/// query's variable count is an InvalidArgument error.
Result<CoordinationSolution> SolutionFromDelivery(const QuerySet& master,
                                                  const Delivery& delivery);

}  // namespace entangled

#endif  // ENTANGLED_API_DELIVERY_H_
