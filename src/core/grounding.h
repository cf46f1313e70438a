#ifndef ENTANGLED_CORE_GROUNDING_H_
#define ENTANGLED_CORE_GROUNDING_H_

#include <optional>
#include <string>
#include <vector>

#include "core/query.h"
#include "core/unify.h"
#include "db/evaluator.h"

namespace entangled {

/// \brief The outcome every coordination algorithm produces: a
/// coordinating set S (query ids) plus the witnessing assignment h of
/// Definition 1, total on the variables of S.
struct CoordinationSolution {
  std::vector<QueryId> queries;  ///< sorted ascending, non-empty
  Binding assignment;            ///< h: variables of `queries` -> values

  bool Contains(QueryId q) const;

  /// The grounded head atoms of query q under h — the "answers" returned
  /// to the user who posed q (e.g. R(101, 'Gwyneth') carries the chosen
  /// flight id).
  std::vector<Atom> GroundedHeads(const QuerySet& set, QueryId q) const;
};

/// \brief Replaces every variable by its assigned value; CHECK-fails on
/// unassigned variables.
Atom GroundAtom(const Atom& atom, const Binding& assignment);

/// \brief The combined conjunctive query of `queries`: every body atom
/// under `subst`, in query order, keeping only the first of atoms equal
/// by structure (Atom::operator==, so `R(5)` and `R('5')` both stay).
/// Expected O(total body atoms).  `subst` is non-const because Apply
/// path-compresses.
std::vector<Atom> CombinedBody(const QuerySet& set,
                               const std::vector<QueryId>& queries,
                               Substitution* subst);

/// Human-readable rendering of a solution ("{qC, qG} with h = {...}").
std::string SolutionToString(const QuerySet& set,
                             const CoordinationSolution& solution);

/// \brief Builds the total assignment h of Definition 1 for `queries`
/// from a unifier and a database witness: each variable resolves through
/// `subst` to a constant, to a witness-bound representative, or — when
/// truly unconstrained (head-only variables) — to an arbitrary value
/// from the domain of the instance.  Returns nullopt only when free
/// variables remain and the database is empty (empty domain).
///
/// `subst` is non-const because union-find resolution path-compresses.
std::optional<Binding> CompleteAssignment(const Database& db,
                                          const QuerySet& set,
                                          const std::vector<QueryId>& queries,
                                          Substitution* subst,
                                          const Binding& witness);

/// \brief Any value occurring in the database (the "domain of I"), or
/// nullopt when every relation is empty.
std::optional<Value> AnyDomainValue(const Database& db);

}  // namespace entangled

#endif  // ENTANGLED_CORE_GROUNDING_H_
