#ifndef ENTANGLED_CORE_QUERY_H_
#define ENTANGLED_CORE_QUERY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "db/atom.h"
#include "db/database.h"

namespace entangled {

/// \brief Identifier of an entangled query within a QuerySet.
using QueryId = int32_t;

/// \brief An entangled query {P} H :- B (paper §2.1): postconditions P
/// and head H over *answer* relations, body B over database relations.
///
/// A query is satisfied in a coordinating set S when its body grounds in
/// the database and each grounded postcondition atom equals a grounded
/// head atom of some query in S (Definition 1).
struct EntangledQuery {
  QueryId id = -1;
  std::string name;  ///< display name, e.g. "qC"

  std::vector<Atom> postconditions;
  std::vector<Atom> head;
  std::vector<Atom> body;

  /// All distinct variable ids, in first-occurrence order over
  /// (postconditions, head, body).
  std::vector<VarId> Variables() const;
};

/// \brief A set of entangled queries sharing one variable namespace.
///
/// Variable ids are unique across the whole set ("standardized apart"),
/// so atoms from different queries can be unified directly.  Queries are
/// built either programmatically through QueryBuilder or textually
/// through ParseQueries (core/parser.h).
class QuerySet {
 public:
  QuerySet() = default;

  /// Allocates a fresh variable with a display name (names need not be
  /// unique; ids are).
  VarId NewVar(std::string name);

  size_t num_vars() const { return var_names_.size(); }
  const std::string& var_name(VarId v) const;

  /// Adds a fully-formed query (id is overwritten); returns its id.
  QueryId AddQuery(EntangledQuery query);

  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }

  const EntangledQuery& query(QueryId id) const;
  /// Mutable access for editing a query in place.  Renaming through
  /// this accessor is not supported: FindByName resolves against the
  /// name the query was added under.
  EntangledQuery& mutable_query(QueryId id);
  const std::vector<EntangledQuery>& queries() const { return queries_; }

  /// Id of the query named `name`, or -1 (hash lookup keyed by the
  /// name at AddQuery time; the first query added under a name wins,
  /// matching the old linear scan).
  QueryId FindByName(const std::string& name) const;

  /// A new set containing copies of the given queries (renumbered
  /// 0..k-1, input order preserved) whose variables are remapped to a
  /// dense [0, k) id space in first-occurrence order.  The subset
  /// carries only its own variables, so downstream per-component work
  /// (Substitution tables, dense bindings) is O(component) instead of
  /// O(engine-wide variables).  `original_ids` (optional) receives the
  /// source id of each subset query; `original_vars` (optional)
  /// receives the source variable of each subset variable, i.e.
  /// (*original_vars)[subset_var] == original_var — use it to
  /// translate witnesses back into the parent set's variable space.
  QuerySet Subset(const std::vector<QueryId>& ids,
                  std::vector<QueryId>* original_ids = nullptr,
                  std::vector<VarId>* original_vars = nullptr) const;

  /// Pointer/length form of Subset, for callers whose id list lives in
  /// scratch storage other than a std::vector (e.g. a flush arena).
  QuerySet Subset(const QueryId* ids, size_t count,
                  std::vector<QueryId>* original_ids = nullptr,
                  std::vector<VarId>* original_vars = nullptr) const;

  /// Appends copies of `src`'s queries `ids` to this set (renumbered to
  /// fresh ids, input order preserved), allocating fresh variables here
  /// for every source variable in first-occurrence order over
  /// (postconditions, head, body) — the same traversal Subset and the
  /// parser use, so adopting a freshly parsed query reproduces the
  /// variable ids a direct parse into this set would have produced.
  /// Returns the new ids.  `var_map` (optional, cleared first) receives
  /// one (source variable, variable allocated here) pair per distinct
  /// source variable, in first-occurrence order — pairs rather than a
  /// dense table so the cost is O(adopted atoms), not O(src.num_vars()),
  /// no matter how large the source namespace is.  Together with Subset
  /// this is the migration round-trip: Subset detaches queries into a
  /// dense standalone set, AdoptQueries re-homes them in another set's
  /// namespace.
  std::vector<QueryId> AdoptQueries(
      const QuerySet& src, const std::vector<QueryId>& ids,
      std::vector<std::pair<VarId, VarId>>* var_map = nullptr);

  /// Move form of AdoptQueries for one query of a set the caller is
  /// done with (a parsed staging set, a migration extract): the query's
  /// atoms and strings move instead of being copied, and its variables
  /// are renumbered exactly as AdoptQueries({id}) would number them.
  /// Leaves query `id` of `*src` empty; `*src` must keep its queries
  /// standardized apart (no variable shared between two of them).
  /// Returns the new id.
  QueryId MoveQuery(QuerySet* src, QueryId id);

  /// Renders a term/atom/query with variable display names
  /// ("R('C', x1)" instead of "R('C', ?3)"); a variable whose name
  /// starts with `_` (the parser's wildcards) renders as `_`, so it
  /// re-parses as a fresh variable rather than a string constant.  A
  /// string constant is quoted with `'`, or with `"` when it holds a
  /// `'` ("it's"), so every parsed query re-parses to itself.
  std::string TermToString(const Term& term) const;
  std::string AtomToString(const Atom& atom) const;
  std::string AtomListToString(const std::vector<Atom>& atoms,
                               const std::string& empty = "{}") const;
  /// "qC: {P} H :- B."
  std::string QueryToString(QueryId id) const;
  /// All queries, one per line.
  std::string ToString() const;

  /// Checks the syntactic well-formedness conditions of §2.1 against a
  /// database: every body relation is in the schema, no head or
  /// postcondition relation is, and relation arities are consistent.
  Status CheckWellFormed(const Database& db) const;

 private:
  std::vector<EntangledQuery> queries_;
  std::vector<std::string> var_names_;
  // name -> id of the first query added under that name.
  std::unordered_map<std::string, QueryId> queries_by_name_;
};

/// \brief Fluent construction of one entangled query:
///
///     QueryBuilder b(&set, "qC");
///     VarId x1 = b.Var("x1"), x2 = b.Var("x2"), x = b.Var("x");
///     b.Post("R", {Term::Str("G"), Term::Var(x1)});
///     b.Head("R", {Term::Str("C"), Term::Var(x1)});
///     b.Body("F", {Term::Var(x1), Term::Var(x)});
///     QueryId qc = b.Build();
class QueryBuilder {
 public:
  QueryBuilder(QuerySet* set, std::string name);

  /// Fresh variable scoped to the enclosing set.
  VarId Var(std::string name);

  QueryBuilder& Post(std::string relation, std::vector<Term> terms);
  QueryBuilder& Head(std::string relation, std::vector<Term> terms);
  QueryBuilder& Body(std::string relation, std::vector<Term> terms);

  /// Adds the query to the set and returns its id.  The builder must not
  /// be reused afterwards.
  QueryId Build();

 private:
  QuerySet* set_;
  EntangledQuery query_;
  bool built_ = false;
};

}  // namespace entangled

#endif  // ENTANGLED_CORE_QUERY_H_
