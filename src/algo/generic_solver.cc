#include "algo/generic_solver.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"
#include "common/timer.h"
#include "core/coordination_graph.h"
#include "core/unify.h"
#include "db/evaluator.h"

namespace entangled {
namespace {

struct PendingPost {
  QueryId query;
  size_t post_index;
};

/// Search state shared across the recursion.
struct SearchContext {
  const QuerySet* set;
  const ExtendedCoordinationGraph* ecg;
  const Evaluator* evaluator;
  const Database* db;
  uint64_t budget;
  uint64_t expansions = 0;
  uint64_t unifications = 0;
  bool budget_hit = false;

  std::vector<bool> in_set;
  std::vector<QueryId> chosen;  // insertion order, for rollback
  std::vector<PendingPost> pending;

  std::optional<CoordinationSolution> solution;
};

bool SolveRec(SearchContext* ctx, size_t pending_index,
              const Substitution& subst) {
  if (++ctx->expansions > ctx->budget) {
    ctx->budget_hit = true;
    return false;
  }
  const QuerySet& set = *ctx->set;
  if (pending_index == ctx->pending.size()) {
    // Every postcondition is matched: try to ground the combined body.
    Substitution leaf = subst;
    const std::vector<Atom> body = CombinedBody(set, ctx->chosen, &leaf);
    std::optional<Binding> witness = ctx->evaluator->FindOne(body);
    if (!witness.has_value()) return false;
    std::vector<QueryId> queries = ctx->chosen;
    std::sort(queries.begin(), queries.end());
    std::optional<Binding> assignment =
        CompleteAssignment(*ctx->db, set, queries, &leaf, *witness);
    if (!assignment.has_value()) return false;
    ctx->solution = CoordinationSolution{std::move(queries),
                                         std::move(*assignment)};
    return true;
  }

  const PendingPost item = ctx->pending[pending_index];
  const Atom& post =
      set.query(item.query).postconditions[item.post_index];
  for (size_t e :
       ctx->ecg->EdgesOfPostcondition(item.query, item.post_index)) {
    const ExtendedEdge& edge = ctx->ecg->edges()[e];
    const Atom& head = set.query(edge.to).head[edge.head_index];
    ++ctx->unifications;
    Substitution branch = subst;  // copy-on-branch keeps backtracking safe
    if (!branch.UnifyAtoms(post, head)) continue;
    // Pull the head's owner into the candidate set if new; its own
    // postconditions must then be satisfied too.
    bool added = false;
    size_t pending_before = ctx->pending.size();
    if (!ctx->in_set[static_cast<size_t>(edge.to)]) {
      ctx->in_set[static_cast<size_t>(edge.to)] = true;
      ctx->chosen.push_back(edge.to);
      const EntangledQuery& target = set.query(edge.to);
      for (size_t pi = 0; pi < target.postconditions.size(); ++pi) {
        ctx->pending.push_back({edge.to, pi});
      }
      added = true;
    }
    if (SolveRec(ctx, pending_index + 1, branch)) return true;
    if (added) {
      ctx->pending.resize(pending_before);
      ctx->chosen.pop_back();
      ctx->in_set[static_cast<size_t>(edge.to)] = false;
    }
    if (ctx->budget_hit) return false;
  }
  return false;
}

}  // namespace

GenericSolver::GenericSolver(const Database* db,
                             GenericSolverOptions options)
    : db_(db), options_(options) {
  ENTANGLED_CHECK(db != nullptr);
}

Result<CoordinationSolution> GenericSolver::FindContaining(
    const QuerySet& set, QueryId seed) {
  stats_.Reset();
  if (seed < 0 || static_cast<size_t>(seed) >= set.size()) {
    return Status::InvalidArgument("unknown seed query ", seed);
  }
  WallTimer timer;
  ExtendedCoordinationGraph ecg(set);
  Evaluator evaluator(db_);
  const uint64_t db_before = db_->stats().conjunctive_queries;

  SearchContext ctx;
  ctx.set = &set;
  ctx.ecg = &ecg;
  ctx.evaluator = &evaluator;
  ctx.db = db_;
  ctx.budget = options_.max_expansions;
  ctx.in_set.assign(set.size(), false);
  ctx.in_set[static_cast<size_t>(seed)] = true;
  ctx.chosen.push_back(seed);
  const EntangledQuery& query = set.query(seed);
  for (size_t pi = 0; pi < query.postconditions.size(); ++pi) {
    ctx.pending.push_back({seed, pi});
  }
  bool found = SolveRec(&ctx, 0, Substitution(set.num_vars()));

  stats_.unifications = ctx.unifications;
  stats_.db_queries = db_->stats().conjunctive_queries - db_before;
  stats_.graph_nodes = set.size();
  stats_.graph_edges = ecg.edges().size();
  stats_.total_seconds = timer.ElapsedSeconds();
  if (found) return std::move(*ctx.solution);
  if (ctx.budget_hit) {
    return Status::OutOfRange("search budget of ", options_.max_expansions,
                              " expansions exhausted");
  }
  return Status::NotFound("no coordinating set contains query ",
                          set.query(seed).name);
}

Result<CoordinationSolution> GenericSolver::FindAny(const QuerySet& set) {
  if (set.empty()) {
    return Status::NotFound("no coordinating set: the query set is empty");
  }
  SolverStats accumulated;
  WallTimer timer;
  for (QueryId seed = 0; seed < static_cast<QueryId>(set.size()); ++seed) {
    auto result = FindContaining(set, seed);
    accumulated.db_queries += stats_.db_queries;
    accumulated.unifications += stats_.unifications;
    if (result.ok() || !result.status().IsNotFound()) {
      accumulated.graph_nodes = stats_.graph_nodes;
      accumulated.graph_edges = stats_.graph_edges;
      accumulated.total_seconds = timer.ElapsedSeconds();
      stats_ = accumulated;
      return result;
    }
  }
  accumulated.total_seconds = timer.ElapsedSeconds();
  stats_ = accumulated;
  return Status::NotFound("no coordinating set exists for this instance");
}

}  // namespace entangled
