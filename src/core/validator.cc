#include "core/validator.h"

#include <algorithm>
#include <unordered_set>

#include "common/logging.h"
#include "core/unify.h"
#include "db/evaluator.h"

namespace entangled {

Status ValidateSolution(const Database& db, const QuerySet& set,
                        const CoordinationSolution& solution) {
  if (solution.queries.empty()) {
    return Status::InvalidArgument("a coordinating set must be non-empty");
  }
  std::vector<QueryId> sorted = solution.queries;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument("duplicate query in solution");
  }
  for (QueryId q : sorted) {
    if (q < 0 || static_cast<size_t>(q) >= set.size()) {
      return Status::InvalidArgument("unknown query id ", q);
    }
  }

  // Condition (1): every variable is assigned.
  for (QueryId q : sorted) {
    for (VarId v : set.query(q).Variables()) {
      if (!solution.assignment.contains(v)) {
        return Status::FailedPrecondition(
            "condition (1) violated: variable ", set.var_name(v),
            " of query ", set.query(q).name, " is unassigned");
      }
    }
  }

  // Condition (2): grounded body atoms appear in the database instance.
  for (QueryId q : sorted) {
    for (const Atom& atom : set.query(q).body) {
      Atom ground = GroundAtom(atom, solution.assignment);
      const Relation* relation = db.Find(ground.relation);
      if (relation == nullptr) {
        return Status::FailedPrecondition(
            "condition (2) violated: unknown relation ", ground.relation);
      }
      std::vector<std::optional<Value>> pattern;
      pattern.reserve(ground.terms.size());
      for (const Term& term : ground.terms) {
        pattern.emplace_back(term.constant());
      }
      if (!relation->AnyMatch(pattern)) {
        return Status::FailedPrecondition(
            "condition (2) violated: grounded body atom ",
            set.AtomToString(ground), " of query ", set.query(q).name,
            " is not in the database");
      }
    }
  }

  // Condition (3): grounded postconditions  ⊆  grounded heads.
  std::unordered_set<Atom, AtomHash> heads;
  for (QueryId q : sorted) {
    for (const Atom& atom : set.query(q).head) {
      heads.insert(GroundAtom(atom, solution.assignment));
    }
  }
  for (QueryId q : sorted) {
    for (const Atom& atom : set.query(q).postconditions) {
      Atom ground = GroundAtom(atom, solution.assignment);
      if (heads.find(ground) == heads.end()) {
        return Status::FailedPrecondition(
            "condition (3) violated: grounded postcondition ",
            set.AtomToString(ground), " of query ", set.query(q).name,
            " matches no grounded head in the set");
      }
    }
  }
  return Status::OK();
}

namespace {

struct PostRef {
  QueryId query;
  size_t index;
};

struct HeadRef {
  QueryId query;
  size_t index;
};

}  // namespace

std::optional<Binding> FindCoordinatingWitness(
    const Database& db, const QuerySet& set,
    const std::vector<QueryId>& subset) {
  if (subset.empty()) return std::nullopt;
  std::vector<PostRef> posts;
  std::vector<HeadRef> heads;
  std::vector<Atom> combined_body;
  for (QueryId q : subset) {
    const EntangledQuery& query = set.query(q);
    for (size_t i = 0; i < query.postconditions.size(); ++i) {
      posts.push_back({q, i});
    }
    for (size_t i = 0; i < query.head.size(); ++i) heads.push_back({q, i});
    combined_body.insert(combined_body.end(), query.body.begin(),
                         query.body.end());
  }

  // Enumerate postcondition -> head matchings with an explicit stack;
  // for each complete, consistent matching try to ground the combined
  // body (an unsatisfiable body under one matching must not end the
  // search).  Substitutions are copied per branch — subsets handed to
  // the validator are small (tests, reductions), and copies keep
  // backtracking trivially correct.
  struct Frame {
    size_t head_cursor = 0;
    Substitution subst;
    explicit Frame(Substitution s) : subst(std::move(s)) {}
  };
  std::vector<Frame> frames;
  frames.emplace_back(Substitution(set.num_vars()));
  Evaluator evaluator(&db);

  while (!frames.empty()) {
    size_t depth = frames.size() - 1;
    if (depth == posts.size()) {
      // Complete matching: ground the combined body.
      Substitution& subst = frames.back().subst;
      std::vector<Atom> body = subst.ApplyAll(combined_body);
      std::optional<Binding> witness = evaluator.FindOne(body);
      if (witness.has_value()) {
        std::optional<Binding> assignment =
            CompleteAssignment(db, set, subset, &subst, *witness);
        if (assignment.has_value()) return assignment;
      }
      frames.pop_back();
      continue;
    }
    Frame& frame = frames.back();
    const Atom& post = set.query(posts[depth].query)
                           .postconditions[posts[depth].index];
    bool advanced = false;
    while (frame.head_cursor < heads.size()) {
      const HeadRef& href = heads[frame.head_cursor++];
      const Atom& head = set.query(href.query).head[href.index];
      if (!PositionwiseUnifiable(post, head)) continue;
      Substitution branch = frame.subst;
      if (!branch.UnifyAtoms(post, head)) continue;
      frames.emplace_back(std::move(branch));
      advanced = true;
      break;
    }
    if (!advanced) frames.pop_back();
  }
  return std::nullopt;
}

}  // namespace entangled
