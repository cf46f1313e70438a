#include "algo/gupta_baseline.h"

#include <optional>

#include "common/logging.h"
#include "common/timer.h"
#include "core/coordination_graph.h"
#include "core/properties.h"
#include "core/unify.h"
#include "db/evaluator.h"
#include "graph/reachability.h"

namespace entangled {

GuptaBaseline::GuptaBaseline(const Database* db) : db_(db) {
  ENTANGLED_CHECK(db != nullptr);
}

Result<CoordinationSolution> GuptaBaseline::Solve(const QuerySet& set) {
  stats_.Reset();
  if (set.empty()) {
    return Status::NotFound("no coordinating set: the query set is empty");
  }
  WallTimer total_timer;
  WallTimer graph_timer;
  ExtendedCoordinationGraph ecg(set);
  if (!IsSafeSet(set, ecg)) {
    return Status::FailedPrecondition(
        "Gupta et al.'s algorithm requires a safe set (Definition 2)");
  }
  Digraph graph = ecg.Collapse();
  if (!IsStronglyConnected(graph)) {
    return Status::FailedPrecondition(
        "Gupta et al.'s algorithm requires a unique set (Definition 3)");
  }
  stats_.graph_nodes = static_cast<uint64_t>(graph.num_nodes());
  stats_.graph_edges = static_cast<uint64_t>(graph.num_edges());
  stats_.num_sccs = 1;
  stats_.graph_seconds = graph_timer.ElapsedSeconds();

  // MGU across every (postcondition, head) pair of the extended graph.
  Substitution subst(set.num_vars());
  for (const ExtendedEdge& edge : ecg.edges()) {
    const Atom& post = set.query(edge.from).postconditions[edge.post_index];
    const Atom& head = set.query(edge.to).head[edge.head_index];
    ++stats_.unifications;
    if (!subst.UnifyAtoms(post, head)) {
      stats_.total_seconds = total_timer.ElapsedSeconds();
      return Status::NotFound("no coordinating set: unification failed");
    }
  }

  // One combined query over all bodies.
  std::vector<QueryId> all;
  for (const EntangledQuery& query : set.queries()) all.push_back(query.id);
  const std::vector<Atom> body = CombinedBody(set, all, &subst);
  Evaluator evaluator(db_);
  const uint64_t before = db_->stats().conjunctive_queries;
  std::optional<Binding> witness = evaluator.FindOne(body);
  stats_.db_queries = db_->stats().conjunctive_queries - before;
  if (!witness.has_value()) {
    stats_.total_seconds = total_timer.ElapsedSeconds();
    return Status::NotFound(
        "no coordinating set: the combined query has no witness");
  }
  CoordinationSolution solution;
  solution.queries = all;
  std::optional<Binding> assignment =
      CompleteAssignment(*db_, set, all, &subst, *witness);
  stats_.total_seconds = total_timer.ElapsedSeconds();
  if (!assignment.has_value()) {
    return Status::NotFound(
        "no coordinating set: the database domain is empty");
  }
  solution.assignment = std::move(*assignment);
  return solution;
}

}  // namespace entangled
