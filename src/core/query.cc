#include "core/query.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <string_view>
#include <unordered_set>

#include "common/logging.h"

namespace entangled {

std::vector<VarId> EntangledQuery::Variables() const {
  std::vector<VarId> vars;
  std::unordered_set<VarId> seen;
  auto collect = [&](const std::vector<Atom>& atoms) {
    for (const Atom& atom : atoms) {
      for (const Term& term : atom.terms) {
        if (term.is_variable() && seen.insert(term.var()).second) {
          vars.push_back(term.var());
        }
      }
    }
  };
  collect(postconditions);
  collect(head);
  collect(body);
  return vars;
}

VarId QuerySet::NewVar(std::string name) {
  var_names_.push_back(std::move(name));
  return static_cast<VarId>(var_names_.size() - 1);
}

const std::string& QuerySet::var_name(VarId v) const {
  ENTANGLED_CHECK(v >= 0 && static_cast<size_t>(v) < var_names_.size())
      << "unknown variable " << v;
  return var_names_[static_cast<size_t>(v)];
}

QueryId QuerySet::AddQuery(EntangledQuery query) {
  query.id = static_cast<QueryId>(queries_.size());
  // Every variable mentioned must have been allocated by this set.
  for (const std::vector<Atom>* atoms :
       {&query.postconditions, &query.head, &query.body}) {
    for (const Atom& atom : *atoms) {
      for (const Term& term : atom.terms) {
        if (term.is_constant()) continue;
        const VarId v = term.var();
        ENTANGLED_CHECK(v >= 0 &&
                        static_cast<size_t>(v) < var_names_.size())
            << "query " << query.name << " uses foreign variable " << v;
      }
    }
  }
  queries_by_name_.emplace(query.name, query.id);  // first added wins
  queries_.push_back(std::move(query));
  return queries_.back().id;
}

const EntangledQuery& QuerySet::query(QueryId id) const {
  ENTANGLED_CHECK(id >= 0 && static_cast<size_t>(id) < queries_.size())
      << "unknown query " << id;
  return queries_[static_cast<size_t>(id)];
}

EntangledQuery& QuerySet::mutable_query(QueryId id) {
  ENTANGLED_CHECK(id >= 0 && static_cast<size_t>(id) < queries_.size())
      << "unknown query " << id;
  return queries_[static_cast<size_t>(id)];
}

QueryId QuerySet::FindByName(const std::string& name) const {
  auto it = queries_by_name_.find(name);
  return it == queries_by_name_.end() ? -1 : it->second;
}

QuerySet QuerySet::Subset(const std::vector<QueryId>& ids,
                          std::vector<QueryId>* original_ids,
                          std::vector<VarId>* original_vars) const {
  return Subset(ids.data(), ids.size(), original_ids, original_vars);
}

QuerySet QuerySet::Subset(const QueryId* ids, size_t count,
                          std::vector<QueryId>* original_ids,
                          std::vector<VarId>* original_vars) const {
  QuerySet subset;
  if (original_ids != nullptr) original_ids->clear();
  if (original_vars != nullptr) original_vars->clear();
  // Dense remap, allocated per first occurrence: touches only the
  // variables the chosen queries actually use — never the full
  // variable table, whose size grows with the whole engine.
  std::unordered_map<VarId, VarId> remap;
  auto remap_term = [&](const Term& term) {
    if (term.is_constant()) return term;
    const VarId v = term.var();
    auto [it, inserted] = remap.emplace(v, VarId{0});
    if (inserted) {
      it->second = subset.NewVar(var_name(v));
      if (original_vars != nullptr) original_vars->push_back(v);
    }
    return Term::Var(it->second);
  };
  auto remap_atoms = [&](std::vector<Atom>* atoms) {
    for (Atom& atom : *atoms) {
      for (Term& term : atom.terms) term = remap_term(term);
    }
  };
  for (size_t i = 0; i < count; ++i) {
    const QueryId id = ids[i];
    EntangledQuery copy = query(id);
    remap_atoms(&copy.postconditions);
    remap_atoms(&copy.head);
    remap_atoms(&copy.body);
    subset.AddQuery(std::move(copy));  // AddQuery renumbers
    if (original_ids != nullptr) original_ids->push_back(id);
  }
  return subset;
}

std::vector<QueryId> QuerySet::AdoptQueries(
    const QuerySet& src, const std::vector<QueryId>& ids,
    std::vector<std::pair<VarId, VarId>>* var_map) {
  ENTANGLED_CHECK(&src != this) << "cannot adopt queries from the same set";
  if (var_map != nullptr) var_map->clear();
  std::unordered_map<VarId, VarId> remap;
  auto remap_term = [&](const Term& term) {
    if (term.is_constant()) return term;
    const VarId v = term.var();
    auto [it, inserted] = remap.emplace(v, VarId{0});
    if (inserted) {
      it->second = NewVar(src.var_name(v));
      if (var_map != nullptr) var_map->emplace_back(v, it->second);
    }
    return Term::Var(it->second);
  };
  auto remap_atoms = [&](std::vector<Atom>* atoms) {
    for (Atom& atom : *atoms) {
      for (Term& term : atom.terms) term = remap_term(term);
    }
  };
  std::vector<QueryId> adopted;
  adopted.reserve(ids.size());
  for (QueryId id : ids) {
    EntangledQuery copy = src.query(id);
    // Postconditions, head, body: the first-occurrence order documented
    // in EntangledQuery::Variables (and followed by the parser).
    remap_atoms(&copy.postconditions);
    remap_atoms(&copy.head);
    remap_atoms(&copy.body);
    adopted.push_back(AddQuery(std::move(copy)));
  }
  return adopted;
}

QueryId QuerySet::MoveQuery(QuerySet* src, QueryId id) {
  ENTANGLED_CHECK(src != this) << "cannot move a query within one set";
  EntangledQuery& query = src->mutable_query(id);
  std::vector<Atom>* const lists[] = {&query.postconditions, &query.head,
                                      &query.body};
  // A dense table over the span of the query's variables renumbers them
  // in first-occurrence order without hashing.  A parsed query's
  // variables are contiguous, so the span is its own variable count.
  VarId lo = std::numeric_limits<VarId>::max();
  VarId hi = -1;
  for (const std::vector<Atom>* atoms : lists) {
    for (const Atom& atom : *atoms) {
      for (const Term& term : atom.terms) {
        if (!term.is_variable()) continue;
        lo = std::min(lo, term.var());
        hi = std::max(hi, term.var());
      }
    }
  }
  static thread_local std::vector<VarId> remap;
  remap.assign(hi >= lo ? static_cast<size_t>(hi - lo) + 1 : 0, VarId{-1});
  for (std::vector<Atom>* atoms : lists) {
    for (Atom& atom : *atoms) {
      for (Term& term : atom.terms) {
        if (!term.is_variable()) continue;
        VarId& moved = remap[static_cast<size_t>(term.var() - lo)];
        if (moved < 0) moved = NewVar(src->var_name(term.var()));
        term = Term::Var(moved);
      }
    }
  }
  return AddQuery(std::move(query));
}

namespace {

/// Appends QuerySet renderings to one string: a whole query costs one
/// buffer, with no streams and no per-atom or per-term temporaries.
class Renderer {
 public:
  Renderer(const QuerySet& set, std::string* out) : set_(set), out_(*out) {}

  void AppendTerm(const Term& term) {
    if (term.is_constant()) {
      const Value& value = term.constant();
      if (value.is_int()) {
        // A sign and up to 19 digits (INT64_MIN).
        char digits[std::numeric_limits<int64_t>::digits10 + 2];
        char* end = std::to_chars(digits, std::end(digits), value.AsInt()).ptr;
        out_.append(digits, end);
        return;
      }
      // The grammar has no escapes, so a string holding `'` (which then
      // cannot also hold `"`: no parsed value has both) takes `"`.
      const std::string& s = value.AsString();
      const char quote = s.find('\'') == std::string::npos ? '\'' : '"';
      out_ += quote;
      out_ += s;
      out_ += quote;
      return;
    }
    const std::string& name = set_.var_name(term.var());
    // The parser names each `_` wildcard `_0`, `_1`, ...; printed back
    // as `_N` it would re-parse as a string constant.  Each wildcard
    // occurs once, so a bare `_` (a fresh variable per occurrence)
    // round-trips.
    if (!name.empty() && name[0] == '_') {
      out_ += '_';
    } else {
      out_ += name;
    }
  }

  void AppendAtom(const Atom& atom) {
    out_ += atom.relation;
    out_ += '(';
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      if (i > 0) out_ += ", ";
      AppendTerm(atom.terms[i]);
    }
    out_ += ')';
  }

  void AppendAtomList(const std::vector<Atom>& atoms,
                      std::string_view empty) {
    if (atoms.empty()) {
      out_ += empty;
      return;
    }
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (i > 0) out_ += ", ";
      AppendAtom(atoms[i]);
    }
  }

  void AppendQuery(const EntangledQuery& q) {
    if (!q.name.empty()) {
      out_ += q.name;
      out_ += ": ";
    }
    out_ += '{';
    AppendAtomList(q.postconditions, "");
    out_ += "} ";
    AppendAtomList(q.head, "");
    out_ += " :- ";
    AppendAtomList(q.body, "");
    out_ += '.';
  }

 private:
  const QuerySet& set_;
  std::string& out_;
};

}  // namespace

std::string QuerySet::TermToString(const Term& term) const {
  std::string out;
  Renderer(*this, &out).AppendTerm(term);
  return out;
}

std::string QuerySet::AtomToString(const Atom& atom) const {
  std::string out;
  Renderer(*this, &out).AppendAtom(atom);
  return out;
}

std::string QuerySet::AtomListToString(const std::vector<Atom>& atoms,
                                       const std::string& empty) const {
  std::string out;
  Renderer(*this, &out).AppendAtomList(atoms, empty);
  return out;
}

std::string QuerySet::QueryToString(QueryId id) const {
  const EntangledQuery& q = query(id);
  // Room for the name and punctuation plus each atom at about 24 bytes
  // (a relation and a few short terms), so a typical query renders with
  // this one allocation; a longer one grows the buffer geometrically.
  constexpr size_t kAtomBytes = 24;
  std::string out;
  out.reserve(kAtomBytes * (1 + q.postconditions.size() + q.head.size() +
                            q.body.size()));
  Renderer(*this, &out).AppendQuery(q);
  return out;
}

std::string QuerySet::ToString() const {
  std::string out;
  Renderer renderer(*this, &out);
  for (const EntangledQuery& q : queries_) {
    renderer.AppendQuery(q);
    out += '\n';
  }
  return out;
}

Status QuerySet::CheckWellFormed(const Database& db) const {
  // Answer-relation arities must be consistent set-wide so that heads
  // and postconditions can unify.
  std::unordered_map<std::string, size_t> answer_arity;
  for (const EntangledQuery& q : queries_) {
    for (const Atom& atom : q.body) {
      const Relation* relation = db.Find(atom.relation);
      if (relation == nullptr) {
        return Status::InvalidArgument(
            "query ", q.name, ": body relation ", atom.relation,
            " is not in the database schema (property (i) of §2.1)");
      }
      if (relation->arity() != atom.arity()) {
        return Status::InvalidArgument(
            "query ", q.name, ": body atom ", atom.ToString(), " has arity ",
            atom.arity(), " but relation has arity ", relation->arity());
      }
    }
    auto check_answer = [&](const Atom& atom,
                            const char* where) -> Status {
      if (db.Contains(atom.relation)) {
        return Status::InvalidArgument(
            "query ", q.name, ": ", where, " relation ", atom.relation,
            " clashes with the database schema (property (ii) of §2.1)");
      }
      auto [it, inserted] = answer_arity.emplace(atom.relation, atom.arity());
      if (!inserted && it->second != atom.arity()) {
        return Status::InvalidArgument(
            "query ", q.name, ": answer relation ", atom.relation,
            " used with arities ", it->second, " and ", atom.arity());
      }
      return Status::OK();
    };
    for (const Atom& atom : q.postconditions) {
      ENTANGLED_RETURN_IF_ERROR(check_answer(atom, "postcondition"));
    }
    for (const Atom& atom : q.head) {
      ENTANGLED_RETURN_IF_ERROR(check_answer(atom, "head"));
    }
  }
  return Status::OK();
}

QueryBuilder::QueryBuilder(QuerySet* set, std::string name) : set_(set) {
  ENTANGLED_CHECK(set != nullptr);
  query_.name = std::move(name);
}

VarId QueryBuilder::Var(std::string name) {
  return set_->NewVar(std::move(name));
}

QueryBuilder& QueryBuilder::Post(std::string relation,
                                 std::vector<Term> terms) {
  query_.postconditions.emplace_back(std::move(relation), std::move(terms));
  return *this;
}

QueryBuilder& QueryBuilder::Head(std::string relation,
                                 std::vector<Term> terms) {
  query_.head.emplace_back(std::move(relation), std::move(terms));
  return *this;
}

QueryBuilder& QueryBuilder::Body(std::string relation,
                                 std::vector<Term> terms) {
  query_.body.emplace_back(std::move(relation), std::move(terms));
  return *this;
}

QueryId QueryBuilder::Build() {
  ENTANGLED_CHECK(!built_) << "QueryBuilder::Build called twice";
  built_ = true;
  return set_->AddQuery(std::move(query_));
}

}  // namespace entangled
