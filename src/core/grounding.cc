#include "core/grounding.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"

namespace entangled {

bool CoordinationSolution::Contains(QueryId q) const {
  return std::binary_search(queries.begin(), queries.end(), q);
}

std::vector<Atom> CoordinationSolution::GroundedHeads(const QuerySet& set,
                                                      QueryId q) const {
  std::vector<Atom> result;
  for (const Atom& atom : set.query(q).head) {
    result.push_back(GroundAtom(atom, assignment));
  }
  return result;
}

Atom GroundAtom(const Atom& atom, const Binding& assignment) {
  Atom result;
  result.relation = atom.relation;
  result.terms.reserve(atom.terms.size());
  for (const Term& term : atom.terms) {
    if (term.is_constant()) {
      result.terms.push_back(term);
      continue;
    }
    const Value* value = assignment.Find(term.var());
    ENTANGLED_CHECK(value != nullptr)
        << "variable ?" << term.var() << " of " << atom.ToString()
        << " is unassigned";
    result.terms.push_back(Term::Const(*value));
  }
  return result;
}

std::vector<Atom> CombinedBody(const QuerySet& set,
                               const std::vector<QueryId>& queries,
                               Substitution* subst) {
  size_t total = 0;
  for (QueryId q : queries) total += set.query(q).body.size();
  std::vector<Atom> body;
  body.reserve(total);
  // Positions in `body`, hashed and compared by the atoms they hold.
  auto hash = [&body](size_t i) { return AtomHash{}(body[i]); };
  auto equal = [&body](size_t a, size_t b) { return body[a] == body[b]; };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> kept(
      total, hash, equal);
  for (QueryId q : queries) {
    for (const Atom& atom : set.query(q).body) {
      body.push_back(subst->Apply(atom));
      if (!kept.insert(body.size() - 1).second) body.pop_back();
    }
  }
  return body;
}

std::optional<Value> AnyDomainValue(const Database& db) {
  for (const std::string& name : db.relation_names()) {
    const Relation* relation = db.Find(name);
    if (!relation->empty()) return relation->row(0)[0];
  }
  return std::nullopt;
}

std::optional<Binding> CompleteAssignment(const Database& db,
                                          const QuerySet& set,
                                          const std::vector<QueryId>& queries,
                                          Substitution* subst,
                                          const Binding& witness) {
  ENTANGLED_CHECK(subst != nullptr);
  Binding assignment;
  std::optional<Value> fallback;
  bool fallback_computed = false;
  for (QueryId q : queries) {
    for (VarId v : set.query(q).Variables()) {
      Term resolved = subst->Resolve(Term::Var(v));
      if (resolved.is_constant()) {
        assignment.emplace(v, resolved.constant());
        continue;
      }
      const Value* bound = witness.Find(resolved.var());
      if (bound != nullptr) {
        assignment.emplace(v, *bound);
        continue;
      }
      if (!fallback_computed) {
        fallback = AnyDomainValue(db);
        fallback_computed = true;
      }
      if (!fallback.has_value()) return std::nullopt;  // empty domain
      assignment.emplace(v, *fallback);
    }
  }
  return assignment;
}

std::string SolutionToString(const QuerySet& set,
                             const CoordinationSolution& solution) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < solution.queries.size(); ++i) {
    if (i > 0) out << ", ";
    const std::string& name = set.query(solution.queries[i]).name;
    out << (name.empty() ? "q" + std::to_string(solution.queries[i]) : name);
  }
  out << "}";
  // Render only variables belonging to the chosen queries, in id order.
  std::vector<VarId> vars;
  for (QueryId q : solution.queries) {
    for (VarId v : set.query(q).Variables()) vars.push_back(v);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  out << " with h = {";
  bool first = true;
  for (VarId v : vars) {
    const Value* value = solution.assignment.Find(v);
    if (value == nullptr) continue;
    if (!first) out << ", ";
    out << set.var_name(v) << " -> " << value->ToString(/*quote=*/true);
    first = false;
  }
  out << "}";
  return out.str();
}

}  // namespace entangled
