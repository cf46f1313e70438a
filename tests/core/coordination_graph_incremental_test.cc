// The incremental half of ExtendedCoordinationGraph: AddQuery must
// agree edge-for-edge with the batch constructor, and RetireQueries
// must unlink retired queries from the edge lists and the unification
// index (so later arrivals no longer match them).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/coordination_graph.h"
#include "core/parser.h"

namespace entangled {
namespace {

/// Canonical edge list of the live graph, via the per-query accessors
/// (exact regardless of retirement).
std::vector<ExtendedEdge> LiveEdges(const ExtendedCoordinationGraph& graph) {
  std::vector<ExtendedEdge> edges;
  for (QueryId q = 0; q < static_cast<QueryId>(graph.num_queries()); ++q) {
    if (!graph.IsLive(q)) continue;
    for (size_t e : graph.OutEdges(q)) edges.push_back(graph.edge(e));
  }
  std::sort(edges.begin(), edges.end(),
            [](const ExtendedEdge& a, const ExtendedEdge& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.post_index != b.post_index)
                return a.post_index < b.post_index;
              if (a.to != b.to) return a.to < b.to;
              return a.head_index < b.head_index;
            });
  return edges;
}

QuerySet ParseAll(const std::vector<std::string>& texts) {
  QuerySet set;
  for (const std::string& text : texts) {
    auto id = ParseQuery(text, &set);
    EXPECT_TRUE(id.ok()) << text << ": " << id.status();
  }
  return set;
}

/// An answer atom over R0..R1 of arity 1-3.  Its first argument is a
/// string constant, an integer constant that prints the same (`'1'`
/// against `1`: they never unify), or a variable, so the unification
/// index holds keyed, unkeyed and kind-mismatched entries.
std::string RandomAtom(Rng* rng) {
  std::string atom = "R" + std::to_string(rng->NextBounded(2)) + "(";
  const std::string digit = std::to_string(rng->NextBounded(3));
  switch (rng->NextBounded(3)) {
    case 0:
      atom += "'" + digit + "'";
      break;
    case 1:
      atom += digit;
      break;
    default:
      atom += "x";
      break;
  }
  const size_t arity = 1 + rng->NextBounded(3);
  for (size_t i = 1; i < arity; ++i) {
    atom += rng->NextBool(0.5) ? ", y" : ", 'c'";
  }
  return atom + ")";
}

std::vector<std::string> RandomWorkload(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  size_t n = 4 + rng.NextBounded(16);
  for (size_t i = 0; i < n; ++i) {
    std::string posts = RandomAtom(&rng);
    if (rng.NextBool(0.3)) posts += ", " + RandomAtom(&rng);
    std::string heads = RandomAtom(&rng);
    if (rng.NextBool(0.3)) heads += ", " + RandomAtom(&rng);
    texts.push_back("q" + std::to_string(i) + ": { " + posts + " } " + heads +
                    " :- Users(x, y).");
  }
  return texts;
}

/// How the first arguments of a (postcondition, head) pair compare.
enum class FirstArgs { kVariable, kSameConstant, kOtherConstant, kOtherKind };

FirstArgs CompareFirstArgs(const Atom& post, const Atom& head) {
  const Term& a = post.terms[0];
  const Term& b = head.terms[0];
  if (a.is_variable() || b.is_variable()) return FirstArgs::kVariable;
  if (a.constant() == b.constant()) return FirstArgs::kSameConstant;
  return a.constant().ToString() == b.constant().ToString()
             ? FirstArgs::kOtherKind
             : FirstArgs::kOtherConstant;
}

/// The (postcondition, head) pairs of a set that share a relation, per
/// FirstArgs case: `bucket_mates` counts them all (the index scans each
/// once), `decided_first` only those that would unify but for their
/// first arguments.
struct PairCounts {
  std::vector<size_t> bucket_mates = std::vector<size_t>(4, 0);
  std::vector<size_t> decided_first = std::vector<size_t>(4, 0);
};

PairCounts CountPairs(const QuerySet& set) {
  PairCounts counts;
  for (QueryId from = 0; from < static_cast<QueryId>(set.size()); ++from) {
    for (const Atom& post : set.query(from).postconditions) {
      for (QueryId to = 0; to < static_cast<QueryId>(set.size()); ++to) {
        for (const Atom& head : set.query(to).head) {
          if (post.relation != head.relation) continue;
          const size_t kind = static_cast<size_t>(CompareFirstArgs(post, head));
          ++counts.bucket_mates[kind];
          Atom unkeyed = post;
          unkeyed.terms[0] = head.terms[0];
          if (PositionwiseUnifiable(unkeyed, head)) {
            ++counts.decided_first[kind];
          }
        }
      }
    }
  }
  return counts;
}

TEST(IncrementalCoordinationGraphTest, AddQueryMatchesBatchBuild) {
  std::vector<size_t> covered(4, 0);
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    QuerySet set = ParseAll(RandomWorkload(seed * 71));
    ExtendedCoordinationGraph batch(set);
    ExtendedCoordinationGraph incremental;
    for (QueryId q = 0; q < static_cast<QueryId>(set.size()); ++q) {
      incremental.AddQuery(set, q);
    }
    EXPECT_EQ(LiveEdges(incremental), LiveEdges(batch)) << "seed " << seed;
    EXPECT_EQ(incremental.num_live(), set.size());
    const PairCounts counts = CountPairs(set);
    for (size_t kind = 0; kind < covered.size(); ++kind) {
      covered[kind] += counts.decided_first[kind];
    }
    // A candidate whose first argument is a variable or an equal
    // constant is tested; distinct constants, of either kind, are not.
    EXPECT_EQ(incremental.positionwise_tests(),
              counts.bucket_mates[static_cast<size_t>(FirstArgs::kVariable)] +
                  counts.bucket_mates[static_cast<size_t>(
                      FirstArgs::kSameConstant)])
        << "seed " << seed;
  }
  // In every case some pair is decided by its first arguments alone.
  for (size_t kind = 0; kind < covered.size(); ++kind) {
    EXPECT_GT(covered[kind], 0u) << "first-argument case " << kind;
  }
}

TEST(IncrementalCoordinationGraphTest, RetireMatchesBatchOverSurvivors) {
  // Retiring queries from the incremental graph must leave exactly the
  // edges a batch build over the surviving queries would produce
  // (modulo the retired ids, which simply vanish).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::vector<std::string> texts = RandomWorkload(seed * 193);
    QuerySet set = ParseAll(texts);
    ExtendedCoordinationGraph graph;
    for (QueryId q = 0; q < static_cast<QueryId>(set.size()); ++q) {
      graph.AddQuery(set, q);
    }
    Rng rng(seed);
    std::vector<QueryId> retired;
    for (QueryId q = 0; q < static_cast<QueryId>(set.size()); ++q) {
      if (rng.NextBool(0.4)) retired.push_back(q);
    }
    if (retired.empty()) retired.push_back(0);
    graph.RetireQueries(retired);
    EXPECT_EQ(graph.num_live(), set.size() - retired.size());

    std::vector<ExtendedEdge> expected;
    {
      ExtendedCoordinationGraph batch(set);
      for (const ExtendedEdge& e : LiveEdges(batch)) {
        bool touches_retired =
            std::find(retired.begin(), retired.end(), e.from) !=
                retired.end() ||
            std::find(retired.begin(), retired.end(), e.to) != retired.end();
        if (!touches_retired) expected.push_back(e);
      }
    }
    EXPECT_EQ(LiveEdges(graph), expected) << "seed " << seed;
    for (QueryId q : retired) {
      EXPECT_FALSE(graph.IsLive(q));
      EXPECT_TRUE(graph.OutEdges(q).empty());
      EXPECT_TRUE(graph.InEdges(q).empty());
    }
  }
}

TEST(IncrementalCoordinationGraphTest, RetiredHeadsLeaveTheIndex) {
  QuerySet set = ParseAll({
      "a: { R('B', x) } R('A', x) :- Users(x, 'u').",
      "b: { R('A', y) } R('B', y) :- Users(y, 'u').",
  });
  ExtendedCoordinationGraph graph;
  graph.AddQuery(set, 0);
  graph.AddQuery(set, 1);
  ASSERT_EQ(LiveEdges(graph).size(), 2u);
  graph.RetireQueries({0, 1});
  EXPECT_EQ(graph.num_live(), 0u);

  // A newcomer identical to `a` finds no live partner: the retired
  // atoms are really gone from the unification buckets.
  auto c = ParseQuery("c: { R('A', z) } R('B', z) :- Users(z, 'u').", &set);
  ASSERT_TRUE(c.ok());
  graph.AddQuery(set, *c);
  EXPECT_TRUE(LiveEdges(graph).empty());

  // And a fresh matching partner re-links (freed edge slots recycle).
  auto d = ParseQuery("d: { R('B', w) } R('A', w) :- Users(w, 'u').", &set);
  ASSERT_TRUE(d.ok());
  graph.AddQuery(set, *d);
  std::vector<ExtendedEdge> edges = LiveEdges(graph);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].from, *c);
  EXPECT_EQ(edges[0].to, *d);
  EXPECT_EQ(edges[1].from, *d);
  EXPECT_EQ(edges[1].to, *c);
}

TEST(IncrementalCoordinationGraphTest, SelfLoopSurvivesRoundTrip) {
  QuerySet set = ParseAll({
      "loop: { R('A', x) } R('A', x) :- Users(x, 'u').",
  });
  ExtendedCoordinationGraph graph;
  graph.AddQuery(set, 0);
  ASSERT_EQ(LiveEdges(graph).size(), 1u);
  EXPECT_EQ(graph.edge(graph.OutEdges(0)[0]).from, 0);
  EXPECT_EQ(graph.edge(graph.OutEdges(0)[0]).to, 0);
  graph.RetireQueries({0});
  EXPECT_TRUE(LiveEdges(graph).empty());
  EXPECT_EQ(graph.num_live(), 0u);
}

}  // namespace
}  // namespace entangled
