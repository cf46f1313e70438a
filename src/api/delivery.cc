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
  const char* separator = "";
  for (const DeliveredQuery& q : queries) {
    for (const auto& [name, value] : q.witness) {
      out << separator << q.name << "." << name << " = "
          << value.ToString(/*quote=*/true);
      separator = ", ";
    }
  }
  out << "}";
  return out.str();
}

Result<CoordinationSolution> SolutionFromDelivery(const QuerySet& master,
                                                  const Delivery& delivery) {
  CoordinationSolution solution;
  solution.queries = delivery.QueryIds();
  for (const DeliveredQuery& q : delivery.queries) {
    if (q.id < 0 || static_cast<size_t>(q.id) >= master.size()) {
      return Status::InvalidArgument("delivered query ", q.id,
                                     " is not in the master set");
    }
    const std::vector<VarId> vars = master.query(q.id).Variables();
    if (vars.size() != q.witness.size()) {
      return Status::InvalidArgument(
          "delivered query ", q.id, " carries ", q.witness.size(),
          " witness entries for ", vars.size(), " variables");
    }
    for (size_t k = 0; k < vars.size(); ++k) {
      solution.assignment.emplace(vars[k], q.witness[k].second);
    }
  }
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
    const std::vector<VarId> vars = set.query(id).Variables();
    q.witness.reserve(vars.size());
    for (VarId var : vars) {
      q.witness.emplace_back(set.var_name(var), solution.assignment.at(var));
    }
    delivery.queries.push_back(std::move(q));
  }
  return delivery;
}

}  // namespace entangled
