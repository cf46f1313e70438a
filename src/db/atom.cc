#include "db/atom.h"

#include <functional>
#include <sstream>

#include "common/hash.h"

namespace entangled {

bool Atom::IsGround() const {
  for (const Term& t : terms) {
    if (t.is_variable()) return false;
  }
  return true;
}

void Atom::CollectVars(std::vector<VarId>* vars) const {
  for (const Term& t : terms) {
    if (t.is_variable()) vars->push_back(t.var());
  }
}

std::string Atom::ToString() const {
  std::ostringstream out;
  out << relation << "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out << ", ";
    out << terms[i];
  }
  out << ")";
  return out.str();
}

size_t AtomHash::operator()(const Atom& atom) const {
  size_t seed = std::hash<std::string>{}(atom.relation);
  for (const Term& term : atom.terms) {
    HashCombine(&seed, term.is_variable());
    if (term.is_variable()) {
      HashCombine(&seed, term.var());
    } else {
      HashCombine(&seed, term.constant());
    }
  }
  return seed;
}

bool PositionwiseUnifiable(const Atom& a, const Atom& b) {
  if (a.relation != b.relation || a.arity() != b.arity()) return false;
  for (size_t i = 0; i < a.terms.size(); ++i) {
    if (a.terms[i].is_constant() && b.terms[i].is_constant() &&
        a.terms[i].constant() != b.terms[i].constant()) {
      return false;
    }
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Atom& atom) {
  return os << atom.ToString();
}

std::string AtomListToString(const std::vector<Atom>& atoms,
                             const std::string& empty) {
  if (atoms.empty()) return empty;
  std::ostringstream out;
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) out << ", ";
    out << atoms[i];
  }
  return out.str();
}

}  // namespace entangled
