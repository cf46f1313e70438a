#include "api/delivery.h"

#include <algorithm>
#include <sstream>

namespace entangled {

std::vector<QueryId> Delivery::QueryIds() const {
  std::vector<QueryId> ids;
  ids.reserve(queries.size());
  for (const DeliveredQuery& q : queries) ids.push_back(q.id);
  return ids;
}

const DeliveredQuery* Delivery::Find(QueryId id) const {
  auto it = std::lower_bound(
      queries.begin(), queries.end(), id,
      [](const DeliveredQuery& q, QueryId target) { return q.id < target; });
  return it != queries.end() && it->id == id ? &*it : nullptr;
}

std::string Delivery::ToString() const {
  std::ostringstream out;
  out << "delivery #" << sequence << ": {";
  for (size_t i = 0; i < queries.size(); ++i) {
    out << (i == 0 ? "" : ", ") << queries[i].name;
  }
  out << "}\n";
  for (const DeliveredQuery& q : queries) {
    for (const Atom& answer : q.answers) {
      out << "  " << q.name << " <- " << answer.ToString() << "\n";
    }
  }
  out << "  witness: {";
  for (size_t i = 0; i < witness_names.size(); ++i) {
    const auto& [var, name] = witness_names[i];
    out << (i == 0 ? "" : ", ") << name << " = "
        << witness.at(var).ToString(/*quote=*/true);
  }
  out << "}";
  return out.str();
}

CoordinationSolution SolutionFromDelivery(const Delivery& delivery) {
  CoordinationSolution solution;
  solution.queries = delivery.QueryIds();
  solution.assignment = delivery.witness;
  return solution;
}

Delivery MakeDelivery(const QuerySet& set,
                      const CoordinationSolution& solution,
                      uint64_t sequence) {
  Delivery delivery;
  delivery.sequence = sequence;
  delivery.queries.reserve(solution.queries.size());
  for (QueryId id : solution.queries) {
    DeliveredQuery q;
    q.id = id;
    q.name = set.query(id).name;
    q.text = set.QueryToString(id);
    q.answers = solution.GroundedHeads(set, id);
    delivery.queries.push_back(std::move(q));
  }
  delivery.witness = solution.assignment;
  delivery.witness_names.reserve(delivery.witness.size());
  delivery.witness.ForEach([&](VarId var, const Value&) {
    delivery.witness_names.emplace_back(var, set.var_name(var));
  });
  return delivery;
}

void TranslateDelivery(const std::function<QueryId(QueryId)>& query_of,
                       const std::function<VarId(VarId)>& var_of,
                       Delivery* delivery) {
  for (DeliveredQuery& q : delivery->queries) {
    q.id = query_of(q.id);
    for (Atom& atom : q.answers) {
      for (Term& term : atom.terms) {
        if (term.is_variable()) term = Term::Var(var_of(term.var()));
      }
    }
  }
  std::sort(delivery->queries.begin(), delivery->queries.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  Binding witness;
  delivery->witness.ForEach([&](VarId var, const Value& value) {
    witness.emplace(var_of(var), value);
  });
  delivery->witness = std::move(witness);
  for (auto& [var, name] : delivery->witness_names) var = var_of(var);
  std::sort(delivery->witness_names.begin(), delivery->witness_names.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

}  // namespace entangled
