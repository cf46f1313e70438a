#ifndef ENTANGLED_API_DELIVERY_H_
#define ENTANGLED_API_DELIVERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/grounding.h"
#include "core/query.h"
#include "db/atom.h"
#include "db/binding.h"

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
};

/// \brief A self-contained delivery event: one coordinating set, with
/// everything a client needs materialized into owned data.
///
/// This is the only thing the coordination services hand to the outside
/// world.  Unlike the old `(const QuerySet&, const CoordinationSolution&)`
/// callback signature, a Delivery holds no references into the engine:
/// query texts, display names, grounded answers, the witness values, and
/// the witness variables' display names are all copied out at delivery
/// time.  A captured Delivery therefore stays valid after any subsequent
/// Cancel/Flush/shard migration — there is nothing left to dangle.
///
/// (`Value` strings are interned in the process-wide GlobalValueInterner,
/// whose storage is append-only and stable for the process lifetime, so
/// owning the 16-byte PODs really does own the strings.)
struct Delivery {
  /// Zero-based position of this delivery in the service's delivery
  /// stream.  Deterministic: the oracle, the incremental engine at any
  /// flush_threads, and the sharded engine at any shard_threads assign
  /// the same sequence to the same coordinating set.
  uint64_t sequence = 0;

  /// The coordinating set, ascending by id.
  std::vector<DeliveredQuery> queries;

  /// The Definition-1 witness h, keyed by service-global variable ids.
  /// Values are owned PODs; iteration (Binding::ForEach) is ascending.
  Binding witness;

  /// Display name of every bound witness variable, ascending by
  /// variable id (aligned with `witness`'s iteration order).
  std::vector<std::pair<VarId, std::string>> witness_names;

  /// The participant ids, ascending (the old `solution.queries`).
  std::vector<QueryId> QueryIds() const;

  /// The participant with the given id, or nullptr.
  const DeliveredQuery* Find(QueryId id) const;

  /// Human-readable multi-line rendering (one line per participant plus
  /// the witness).
  std::string ToString() const;
};

/// \brief Materializes a Delivery from an engine-internal solution:
/// copies out names and texts from `set`, grounds every participant's
/// head atoms under the witness, and records the witness variables'
/// display names.  `solution` must use `set`'s id and variable
/// namespaces (the services translate shard-local solutions to global
/// ids before calling this).
Delivery MakeDelivery(const QuerySet& set,
                      const CoordinationSolution& solution,
                      uint64_t sequence);

/// \brief Rewrites a Delivery from one id/variable namespace into
/// another — a shard's local space into the front door's global one,
/// or a recovered engine's into the durable one: every participant id
/// through `query_of`, and every variable (in answer atoms, the witness
/// and `witness_names`) through `var_of`.  Neither map has to be
/// monotone, so participants and `witness_names` are re-sorted to keep
/// the ascending order a Delivery promises.
void TranslateDelivery(const std::function<QueryId(QueryId)>& query_of,
                       const std::function<VarId(VarId)>& var_of,
                       Delivery* delivery);

/// \brief MakeDelivery's inverse view: the engine-facing (ids +
/// witness) form of a delivery — what Definition-1 re-validation
/// (ValidateSolution against the service's master set) consumes.
CoordinationSolution SolutionFromDelivery(const Delivery& delivery);

}  // namespace entangled

#endif  // ENTANGLED_API_DELIVERY_H_
