#ifndef ENTANGLED_DB_EVALUATOR_H_
#define ENTANGLED_DB_EVALUATOR_H_

#include <optional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/atom.h"
#include "db/binding.h"
#include "db/database.h"

namespace entangled {

/// \brief Conjunctive-query evaluator over an in-memory Database.
///
/// This is the only channel through which the coordination algorithms
/// touch data: each FindOne call corresponds to one "query issued to the
/// database" in the paper's cost accounting (§4, §5), and increments
/// Database::stats().
///
/// Evaluation is a backtracking join.  Atoms are ordered greedily
/// (most-bound first, smaller relations first) and candidate rows are
/// produced through lazily-built single-column hash indexes whenever at
/// least one position of the atom is bound.  The inner loop touches
/// only contiguous PODs: interned 16-byte Values read from the
/// relation's flat row arena, matched against a dense Binding, with a
/// shared trail for O(bound-this-row) backtracking.
class Evaluator {
 public:
  explicit Evaluator(const Database* db);

  /// Verifies that every atom references an existing relation with the
  /// right arity.
  Status Validate(const std::vector<Atom>& body) const;

  /// Finds one assignment extending `initial` that makes every body atom
  /// a tuple of the database (choose-1 semantics: the witness is the
  /// first in deterministic scan order).  Returns nullopt when the query
  /// is unsatisfiable.  An atom naming an absent relation, or a relation
  /// of another arity, matches no row (Validate() reports either as an
  /// error instead).
  std::optional<Binding> FindOne(const std::vector<Atom>& body,
                                 const Binding& initial = {}) const;

  /// Whether at least one satisfying assignment exists.
  bool Satisfiable(const std::vector<Atom>& body,
                   const Binding& initial = {}) const;

  /// Enumerates the distinct projections of all satisfying assignments
  /// onto `projection`, in first-found order.  Every projection variable
  /// must occur in `body`.
  std::vector<std::vector<Value>> EnumerateDistinct(
      const std::vector<Atom>& body, const std::vector<VarId>& projection,
      const Binding& initial = {}) const;

  /// Counts satisfying assignments (used by tests; exponential output
  /// sensitivity, prefer EnumerateDistinct elsewhere).
  uint64_t CountSolutions(const std::vector<Atom>& body,
                          const Binding& initial = {}) const;

  const Database* db() const { return db_; }

 private:
  // Shared backtracking driver; `on_solution` returns true to stop.
  template <typename Callback>
  void Search(const std::vector<Atom>& body, const Binding& initial,
              Callback&& on_solution) const;

  std::vector<size_t> OrderAtoms(
      const std::vector<Atom>& body,
      const std::vector<const Relation*>& relations,
      const Binding& initial) const;

  const Database* db_;
};

}  // namespace entangled

#endif  // ENTANGLED_DB_EVALUATOR_H_
