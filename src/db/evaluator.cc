#include "db/evaluator.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"

namespace entangled {
namespace {

/// Candidate row ids for `atom` under the current bindings: the most
/// selective bound column's index bucket, probed once per bound
/// column.  Returns nullptr to mean "all rows" (avoids materializing
/// 0..n-1).  The returned bucket reference is borrowed straight from
/// the relation's index cache — stable for the whole search, since
/// Insert (the only writer) must not run concurrently with readers.
const std::vector<RowId>* Candidates(const Relation& relation,
                                     const Atom& atom,
                                     const Binding& binding) {
  const std::vector<RowId>* best = nullptr;
  size_t best_bucket = relation.size() + 1;
  for (size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& term = atom.terms[i];
    const Value* bound = nullptr;
    if (term.is_constant()) {
      bound = &term.constant();
    } else {
      bound = binding.Find(term.var());
    }
    if (bound == nullptr) continue;
    const std::vector<RowId>& bucket = relation.Probe(i, *bound);
    if (bucket.size() < best_bucket) {
      best_bucket = bucket.size();
      best = &bucket;
    }
    if (best_bucket == 0) break;  // cannot get more selective
  }
  return best;
}

/// Largest variable id occurring in `body`, or -1.
VarId MaxVar(const std::vector<Atom>& body) {
  VarId max_var = -1;
  for (const Atom& atom : body) {
    for (const Term& term : atom.terms) {
      if (term.is_variable() && term.var() > max_var) max_var = term.var();
    }
  }
  return max_var;
}

}  // namespace

Evaluator::Evaluator(const Database* db) : db_(db) {
  ENTANGLED_CHECK(db != nullptr);
}

Status Evaluator::Validate(const std::vector<Atom>& body) const {
  for (const Atom& atom : body) {
    const Relation* relation = db_->Find(atom.relation);
    if (relation == nullptr) {
      return Status::NotFound("body atom ", atom.ToString(),
                              " references unknown relation ", atom.relation);
    }
    if (relation->arity() != atom.arity()) {
      return Status::InvalidArgument(
          "body atom ", atom.ToString(), " has arity ", atom.arity(),
          " but relation ", atom.relation, " has arity ", relation->arity());
    }
  }
  return Status::OK();
}

std::vector<size_t> Evaluator::OrderAtoms(
    const std::vector<Atom>& body,
    const std::vector<const Relation*>& relations,
    const Binding& initial) const {
  // Ordering only matters when there is a choice; point lookups (one
  // atom) skip the greedy machinery and its scratch vectors entirely.
  if (body.size() <= 1) {
    return std::vector<size_t>(body.size(), 0);
  }
  // Greedy static join order: repeatedly pick the atom with the most
  // bound positions (constants + already-bound variables); break ties by
  // smaller relation.  Keeps the backtracking join selective.
  // Scratch is thread-local so steady-state ordering allocates nothing
  // (one FindOne per coordination probe makes this a per-query cost).
  static thread_local std::vector<bool> bound;
  static thread_local std::vector<bool> used;
  const VarId max_var = MaxVar(body);
  bound.assign(static_cast<size_t>(max_var + 1), false);
  initial.ForEach([&](VarId var, const Value&) {
    if (var <= max_var) bound[static_cast<size_t>(var)] = true;
  });

  std::vector<size_t> order;
  order.reserve(body.size());
  used.assign(body.size(), false);
  for (size_t step = 0; step < body.size(); ++step) {
    size_t best = body.size();
    size_t best_bound_count = 0;
    size_t best_size = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (used[i]) continue;
      size_t bound_count = 0;
      for (const Term& term : body[i].terms) {
        if (term.is_constant() ||
            (term.is_variable() && bound[static_cast<size_t>(term.var())])) {
          ++bound_count;
        }
      }
      size_t size = relations[i]->size();
      if (best == body.size() || bound_count > best_bound_count ||
          (bound_count == best_bound_count && size < best_size)) {
        best = i;
        best_bound_count = bound_count;
        best_size = size;
      }
    }
    used[best] = true;
    order.push_back(best);
    for (const Term& term : body[best].terms) {
      if (term.is_variable()) bound[static_cast<size_t>(term.var())] = true;
    }
  }
  return order;
}

template <typename Callback>
void Evaluator::Search(const std::vector<Atom>& body, const Binding& initial,
                       Callback&& on_solution) const {
  // Resolve each atom's relation once: the search below never hashes a
  // relation name again, no matter how many rows it visits.  Scratch is
  // thread-local (Search never re-enters itself: the callbacks are the
  // internal FindOne / EnumerateDistinct / CountSolutions lambdas).
  static thread_local std::vector<const Relation*> relations;
  relations.clear();
  relations.reserve(body.size());
  for (const Atom& atom : body) {
    const Relation* relation = db_->Find(atom.relation);
    // No row of an absent relation, or of one with another arity, has
    // this atom's shape: the body has no solution.  A submitted query
    // can name either; it then simply never grounds.
    if (relation == nullptr || relation->arity() != atom.arity()) return;
    relations.push_back(relation);
  }

  std::vector<size_t> order = OrderAtoms(body, relations, initial);
  Binding binding = initial;
  binding.Reserve(static_cast<size_t>(MaxVar(body) + 1));
  // One shared trail instead of a per-frame vector: each frame unwinds
  // to its saved mark, so binding a row's variables costs no
  // allocation.
  static thread_local std::vector<VarId> trail;
  trail.clear();
  // Tallied locally and added to the shared (atomic) counters once per
  // query: an atomic fetch_add per candidate row in the innermost join
  // loop would have every parallel-flush worker ping-ponging one cache
  // line of the shared Database.
  uint64_t rows_matched = 0;

  auto recurse = [&](auto&& self, size_t depth) -> bool {
    if (depth == body.size()) return on_solution(binding);
    const Atom& atom = body[order[depth]];
    const Relation& relation = *relations[order[depth]];
    const size_t num_terms = atom.terms.size();

    auto try_row = [&](RowView row) -> bool {
      ++rows_matched;
      const size_t mark = trail.size();
      bool match = true;
      for (size_t i = 0; i < num_terms; ++i) {
        const Term& term = atom.terms[i];
        if (term.is_constant()) {
          match = (term.constant() == row[i]);
        } else {
          const VarId var = term.var();
          if (binding.emplace(var, row[i])) {
            trail.push_back(var);
          } else {
            match = (binding.at(var) == row[i]);
          }
        }
        if (!match) break;
      }
      bool stop = match && self(self, depth + 1);
      while (trail.size() > mark) {
        binding.erase(trail.back());
        trail.pop_back();
      }
      return stop;
    };

    const std::vector<RowId>* candidates =
        Candidates(relation, atom, binding);
    if (candidates == nullptr) {
      for (RowView row : relation.rows()) {
        if (try_row(row)) return true;
      }
    } else {
      for (RowId id : *candidates) {
        if (try_row(relation.row(id))) return true;
      }
    }
    return false;
  };
  recurse(recurse, 0);
  db_->stats().rows_matched += rows_matched;
}

std::optional<Binding> Evaluator::FindOne(const std::vector<Atom>& body,
                                          const Binding& initial) const {
  ++db_->stats().conjunctive_queries;
  std::optional<Binding> result;
  Search(body, initial, [&](Binding& solution) {
    // Steal the witness: the search stops here, and its unwinding
    // erases against the (empty) moved-from binding, which is a no-op.
    result = std::move(solution);
    return true;  // stop at the first witness (choose-1 semantics)
  });
  return result;
}

bool Evaluator::Satisfiable(const std::vector<Atom>& body,
                            const Binding& initial) const {
  return FindOne(body, initial).has_value();
}

std::vector<std::vector<Value>> Evaluator::EnumerateDistinct(
    const std::vector<Atom>& body, const std::vector<VarId>& projection,
    const Binding& initial) const {
  ++db_->stats().enumerate_queries;
  std::vector<std::vector<Value>> result;
  std::unordered_set<std::vector<Value>, VectorHash> seen;
  Search(body, initial, [&](const Binding& solution) {
    std::vector<Value> key;
    key.reserve(projection.size());
    for (VarId var : projection) {
      const Value* value = solution.Find(var);
      ENTANGLED_CHECK(value != nullptr)
          << "projection variable ?" << var << " does not occur in the body";
      key.push_back(*value);
    }
    if (seen.insert(key).second) result.push_back(std::move(key));
    return false;  // keep enumerating
  });
  return result;
}

uint64_t Evaluator::CountSolutions(const std::vector<Atom>& body,
                                   const Binding& initial) const {
  ++db_->stats().enumerate_queries;
  uint64_t count = 0;
  Search(body, initial, [&](const Binding&) {
    ++count;
    return false;
  });
  return count;
}

}  // namespace entangled
