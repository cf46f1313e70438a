#include "algo/scc_coordination.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "common/timer.h"
#include "core/coordination_graph.h"
#include "core/unify.h"
#include "db/evaluator.h"
#include "graph/condensation.h"
#include "graph/scc.h"
#include "graph/topological.h"

namespace entangled {

CoordinationScore MaxSizeScore() {
  return [](const QuerySet&, const std::vector<QueryId>& queries) {
    return static_cast<double>(queries.size());
  };
}

CoordinationScore VipScore(QueryId vip) {
  return [vip](const QuerySet&, const std::vector<QueryId>& queries) {
    double score = static_cast<double>(queries.size());
    for (QueryId q : queries) {
      if (q == vip) {
        // Dominates any size difference: |Q| is bounded by the score of
        // the instance, so 1e9 outranks every VIP-less set.
        score += 1e9;
      }
    }
    return score;
  };
}

CoordinationScore WeightedScore(std::vector<double> weights,
                                double default_weight) {
  return [weights = std::move(weights), default_weight](
             const QuerySet&, const std::vector<QueryId>& queries) {
    double score = 0;
    for (QueryId q : queries) {
      score += static_cast<size_t>(q) < weights.size()
                   ? weights[static_cast<size_t>(q)]
                   : default_weight;
    }
    return score;
  };
}

SccCoordinator::SccCoordinator(const Database* db, SccOptions options)
    : db_(db), options_(options) {
  ENTANGLED_CHECK(db != nullptr);
}

Result<CoordinationSolution> SccCoordinator::Solve(const QuerySet& set) {
  WallTimer total_timer;
  WallTimer graph_timer;
  stats_.Reset();
  successful_sets_.clear();
  if (set.empty()) {
    return Status::NotFound("no coordinating set: the query set is empty");
  }
  // ---- Graph construction (measured for Figure 6) ----
  ExtendedCoordinationGraph ecg(set);
  return SolveWithEdges(set, ecg.edges(), total_timer, graph_timer);
}

Result<CoordinationSolution> SccCoordinator::Solve(
    const QuerySet& set, const std::vector<ExtendedEdge>& edges,
    EvalMemo* memo) {
  WallTimer total_timer;
  WallTimer graph_timer;
  stats_.Reset();
  successful_sets_.clear();
  if (set.empty()) {
    return Status::NotFound("no coordinating set: the query set is empty");
  }
  return SolveWithEdges(set, edges, total_timer, graph_timer, memo);
}

namespace {

/// Whether every relation stamp in `entry` still matches the live
/// database.  A (nullptr, v) stamp means "this body named a relation
/// absent from the catalog at compute time" and pins the catalog-wide
/// version instead, so a later CreateRelation invalidates the entry.
bool StampsCurrent(const EvalMemo::Entry& entry, const Database& db) {
  for (const auto& [relation, version] : entry.stamps) {
    const uint64_t now = relation != nullptr ? relation->version()
                                             : db.version();
    if (now != version) return false;
  }
  return true;
}

}  // namespace

Result<CoordinationSolution> SccCoordinator::SolveWithEdges(
    const QuerySet& set, const std::vector<ExtendedEdge>& edges,
    const WallTimer& total_timer, const WallTimer& graph_timer,
    EvalMemo* memo) {
  // The memo's soundness contract (see EvalMemo) leans on safety (each
  // postcondition has at most one target overall) and pre-cleaning (each
  // live postcondition has exactly one live target, necessarily inside
  // R(c)); without both, an identical R(c) key no longer implies an
  // identical unifier, so the memo disarms itself.
  const bool use_memo = memo != nullptr && options_.check_safety &&
                        options_.prune_postconditions;
  const QueryId n = static_cast<QueryId>(set.size());

  // Per-postcondition target lists, and pre-cleaning: a query whose
  // postcondition has no live target head can never be satisfied; its
  // removal can orphan further queries, so iterate to a fixpoint.
  std::vector<std::vector<std::vector<QueryId>>> post_targets(
      static_cast<size_t>(n));
  for (QueryId q = 0; q < n; ++q) {
    const EntangledQuery& query = set.query(q);
    post_targets[static_cast<size_t>(q)].resize(query.postconditions.size());
  }
  for (const ExtendedEdge& edge : edges) {
    post_targets[static_cast<size_t>(edge.from)][edge.post_index].push_back(
        edge.to);
  }
  if (options_.check_safety) {
    // Definition 2 straight off the edge multiplicities: a postcondition
    // unifying with more than one head in the set breaks safety.
    for (QueryId q = 0; q < n; ++q) {
      for (const auto& targets : post_targets[static_cast<size_t>(q)]) {
        if (targets.size() > 1) {
          return Status::FailedPrecondition(
              "the query set is not safe (Definition 2); use GenericSolver "
              "or ConsistentCoordinator for unsafe sets");
        }
      }
    }
  }
  std::vector<bool> alive(static_cast<size_t>(n), true);
  if (options_.prune_postconditions) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (QueryId q = 0; q < n; ++q) {
        if (!alive[static_cast<size_t>(q)]) continue;
        for (const auto& targets : post_targets[static_cast<size_t>(q)]) {
          bool satisfiable = false;
          for (QueryId t : targets) {
            if (alive[static_cast<size_t>(t)]) {
              satisfiable = true;
              break;
            }
          }
          if (!satisfiable) {
            alive[static_cast<size_t>(q)] = false;
            changed = true;
            break;
          }
        }
      }
    }
  }

  // Coordination graph restricted to live queries (dead queries stay as
  // isolated vertices and their singleton components are skipped below).
  Digraph graph(n);
  for (const ExtendedEdge& edge : edges) {
    if (alive[static_cast<size_t>(edge.from)] &&
        alive[static_cast<size_t>(edge.to)]) {
      graph.AddEdgeUnique(edge.from, edge.to);
    }
  }
  SccResult scc = TarjanScc(graph);
  Digraph components = Condense(graph, scc);
  stats_.graph_nodes = static_cast<uint64_t>(graph.num_nodes());
  stats_.graph_edges = static_cast<uint64_t>(graph.num_edges());
  stats_.num_sccs = static_cast<uint64_t>(scc.num_components());
  stats_.graph_seconds = graph_timer.ElapsedSeconds();

  // ---- Reverse-topological sweep over the components DAG ----
  auto order = ReverseTopologicalOrder(components);
  ENTANGLED_CHECK(order.ok()) << "condensation must be acyclic: "
                              << order.status().ToString();

  const NodeId num_components = scc.num_components();
  std::vector<bool> failed(static_cast<size_t>(num_components), false);
  // R(c): queries of c plus everything reachable — the candidate
  // coordinating set of component c (sorted ascending).
  std::vector<std::vector<QueryId>> reach(
      static_cast<size_t>(num_components));

  // Database round-trips are tallied locally (not by diffing the shared
  // Database counters) so concurrent Solve calls — the engine's parallel
  // Flush() evaluates disjoint components on worker threads — attribute
  // their own work exactly.
  Evaluator evaluator(db_);

  struct Best {
    std::vector<QueryId> queries;
    Substitution subst;
    Binding witness;
    double score;
  };
  std::optional<Best> best;
  const CoordinationScore score =
      options_.score ? options_.score : MaxSizeScore();

  for (NodeId c : *order) {
    const std::vector<QueryId>& members = scc.members[static_cast<size_t>(c)];
    // Dead queries cannot participate in any coordinating set.
    bool any_dead = false;
    for (QueryId q : members) {
      if (!alive[static_cast<size_t>(q)]) any_dead = true;
    }
    if (any_dead) {
      failed[static_cast<size_t>(c)] = true;
      continue;
    }
    // A failed successor dooms every component that depends on it.
    bool successor_failed = false;
    for (NodeId s : components.Successors(c)) {
      if (failed[static_cast<size_t>(s)]) successor_failed = true;
    }
    if (successor_failed) {
      failed[static_cast<size_t>(c)] = true;
      continue;
    }
    // R(c) = members(c)  ∪  ⋃ R(successors).
    std::vector<QueryId>& r = reach[static_cast<size_t>(c)];
    r = members;
    for (NodeId s : components.Successors(c)) {
      const auto& rs = reach[static_cast<size_t>(s)];
      r.insert(r.end(), rs.begin(), rs.end());
    }
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());

    // Memoized verdict for this exact R(c) with current relation
    // stamps: replay it instead of re-unifying and re-grounding.
    if (use_memo) {
      auto it = memo->entries.find(r);
      if (it != memo->entries.end() && StampsCurrent(it->second, *db_)) {
        ++stats_.memo_hits;
        const EvalMemo::Entry& entry = it->second;
        if (!entry.unified || !entry.grounded) {
          failed[static_cast<size_t>(c)] = true;
          continue;
        }
        successful_sets_.push_back(r);
        double r_score = score(set, r);
        if (!best.has_value() || r_score > best->score) {
          // Copies: CompleteAssignment path-compresses the winning
          // substitution, and the entry must stay pristine.
          best = Best{r, entry.subst, entry.witness, r_score};
        }
        continue;
      }
    }

    // Unify every postcondition in R(c) with its (unique, by safety)
    // live target head.
    Substitution subst(set.num_vars());
    bool unified = true;
    for (QueryId q : r) {
      const EntangledQuery& query = set.query(q);
      for (size_t pi = 0; pi < query.postconditions.size() && unified;
           ++pi) {
        const Atom& post = query.postconditions[pi];
        // The live target; safety guarantees at most one candidate
        // overall.  With pre-cleaning enabled a live target always
        // exists; without it, a targetless postcondition simply fails
        // the component here.
        QueryId target = -1;
        for (QueryId t : post_targets[static_cast<size_t>(q)][pi]) {
          if (alive[static_cast<size_t>(t)]) {
            target = t;
            break;
          }
        }
        if (target < 0) {
          unified = false;
          break;
        }
        // Recover which head atom the edge points at.
        bool matched = false;
        for (const Atom& head : set.query(target).head) {
          if (!PositionwiseUnifiable(post, head)) continue;
          ++stats_.unifications;
          if (subst.UnifyAtoms(post, head)) matched = true;
          break;  // safety: a postcondition has at most one such head
        }
        if (!matched) unified = false;
      }
      if (!unified) break;
    }
    if (!unified) {
      if (use_memo) {
        // A failed unifier is database-independent: valid (no stamps)
        // for as long as the key matches.
        memo->entries[r] = EvalMemo::Entry{};
      }
      failed[static_cast<size_t>(c)] = true;
      continue;
    }

    // Combined conjunctive query: all bodies of R(c) under the unifier,
    // with exact duplicates dropped (overlapping successor sets).
    const std::vector<Atom> body = CombinedBody(set, r, &subst);
    ++stats_.db_queries;
    std::optional<Binding> witness = evaluator.FindOne(body);
    if (use_memo) {
      EvalMemo::Entry entry;
      entry.unified = true;
      entry.grounded = witness.has_value();
      entry.subst = subst;
      if (witness.has_value()) entry.witness = *witness;
      std::unordered_set<const Relation*> stamped;
      for (const Atom& atom : body) {
        const Relation* relation = db_->Find(atom.relation);
        if (!stamped.insert(relation).second) continue;
        entry.stamps.emplace_back(
            relation, relation != nullptr ? relation->version()
                                          : db_->version());
      }
      memo->entries[r] = std::move(entry);
    }
    if (!witness.has_value()) {
      failed[static_cast<size_t>(c)] = true;
      continue;
    }
    successful_sets_.push_back(r);
    double r_score = score(set, r);
    if (!best.has_value() || r_score > best->score) {
      best = Best{r, subst, std::move(*witness), r_score};
    }
  }

  stats_.total_seconds = total_timer.ElapsedSeconds();

  if (!best.has_value()) {
    return Status::NotFound("no coordinating set exists for this instance");
  }
  CoordinationSolution solution;
  solution.queries = best->queries;
  std::optional<Binding> assignment = CompleteAssignment(
      *db_, set, best->queries, &best->subst, best->witness);
  if (!assignment.has_value()) {
    return Status::NotFound(
        "no coordinating set: the database domain is empty, so head-only "
        "variables cannot be assigned (Definition 1, condition (1))");
  }
  solution.assignment = std::move(*assignment);
  return solution;
}

}  // namespace entangled
