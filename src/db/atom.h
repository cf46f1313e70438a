#ifndef ENTANGLED_DB_ATOM_H_
#define ENTANGLED_DB_ATOM_H_

#include <ostream>
#include <string>
#include <vector>

#include "db/term.h"

namespace entangled {

/// \brief A relational atom `Rel(t1, ..., tk)` over variables and
/// constants.
///
/// Atoms appear in three places (paper §2.1): entangled-query bodies
/// (over database relations), heads and postconditions (over *answer*
/// relations, disjoint from the schema).  The struct is shared by all
/// three.
struct Atom {
  Atom() = default;
  Atom(std::string relation_in, std::vector<Term> terms_in)
      : relation(std::move(relation_in)), terms(std::move(terms_in)) {}

  std::string relation;
  std::vector<Term> terms;

  size_t arity() const { return terms.size(); }

  /// Whether every term is a constant.
  bool IsGround() const;

  /// Appends all variable ids occurring in the atom to `vars`
  /// (with duplicates, in positional order).
  void CollectVars(std::vector<VarId>* vars) const;

  /// "Rel(t1, t2)".
  std::string ToString() const;

  friend bool operator==(const Atom& a, const Atom& b) {
    return a.relation == b.relation && a.terms == b.terms;
  }
  friend bool operator!=(const Atom& a, const Atom& b) { return !(a == b); }
};

/// \brief Hash functor consistent with Atom's operator==: the relation
/// and every term, variables by id and constants by value.  Atoms that
/// print alike but differ, such as `R(5)` and `R('5')`, stay apart.
struct AtomHash {
  size_t operator()(const Atom& atom) const;
};

/// \brief The paper's unifiability test on atom pairs (§2.3): same
/// relation, same arity, and no position where both atoms carry distinct
/// constants.
///
/// This is deliberately the *positionwise* notion used to build
/// coordination graphs; full unification (which also resolves repeated
/// variables) lives in core/unify.h and may still fail for a
/// positionwise-unifiable pair.
bool PositionwiseUnifiable(const Atom& a, const Atom& b);

std::ostream& operator<<(std::ostream& os, const Atom& atom);

/// Renders "A1(...), A2(...)"; `empty` is printed for an empty list
/// (the paper renders empty bodies as the empty-set symbol).
std::string AtomListToString(const std::vector<Atom>& atoms,
                             const std::string& empty = "{}");

}  // namespace entangled

#endif  // ENTANGLED_DB_ATOM_H_
