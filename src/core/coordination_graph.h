#ifndef ENTANGLED_CORE_COORDINATION_GRAPH_H_
#define ENTANGLED_CORE_COORDINATION_GRAPH_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "graph/digraph.h"

namespace entangled {

/// \brief One edge of the extended coordination graph (§2.3): the
/// postcondition atom `postconditions[post_index]` of query `from`
/// unifies (positionwise) with the head atom `head[head_index]` of query
/// `to` — i.e. `from` potentially needs `to`'s head to be satisfied.
struct ExtendedEdge {
  QueryId from;
  size_t post_index;
  QueryId to;
  size_t head_index;

  friend bool operator==(const ExtendedEdge& a, const ExtendedEdge& b) {
    return a.from == b.from && a.post_index == b.post_index &&
           a.to == b.to && a.head_index == b.head_index;
  }
};

/// \brief The extended coordination graph: a directed multigraph over
/// the query set, with one edge per unifiable (postcondition, head)
/// pair.
///
/// Two construction modes share one representation:
///
///  * **Batch** (the paper's §2.3 definition): the one-argument
///    constructor builds the graph over every query of a set at once.
///  * **Incremental** (the streaming engine, §6.1): default-construct,
///    then AddQuery() per arrival and RetireQueries() per delivered
///    coordinating set.  A per-relation unification index buckets live
///    head and postcondition atoms by relation name, and each entry
///    carries its atom's first-argument constant.  Admitting a query
///    scans only the buckets of its relations and skips every entry
///    whose first argument is a different constant, so near O(degree)
///    for realistic workloads instead of rescanning every pending atom.
///    A probe whose first argument is a variable scans its whole bucket.
///
/// After a retirement the edge *array* keeps freed slots for reuse, so
/// edges() is only meaningful for never-retired graphs (the batch use);
/// incremental consumers walk OutEdges()/InEdges() + edge(), which are
/// always exact.
class ExtendedCoordinationGraph {
 public:
  /// An empty incremental graph; grow it with AddQuery().
  ExtendedCoordinationGraph() = default;
  // Move only: indexed_buckets_ points into the bucket maps, which a
  // move carries along and a copy would not.
  ExtendedCoordinationGraph(ExtendedCoordinationGraph&&) = default;
  ExtendedCoordinationGraph& operator=(ExtendedCoordinationGraph&&) = default;

  /// Batch mode: builds the graph over all queries of `set` (quadratic
  /// in the number of atoms; in realistic workloads the graph is very
  /// sparse, §4).
  explicit ExtendedCoordinationGraph(const QuerySet& set);

  // ------------------------------------------------------------------
  // Incremental API
  // ------------------------------------------------------------------

  /// Admits query `q` of `set` (not currently live here): unifies its
  /// postconditions against the live head buckets and its heads against
  /// the live postcondition buckets, adding one edge per match
  /// (self-edges included).  Afterwards OutEdges(q)/InEdges(q) are
  /// exactly q's incident edges.  An entry whose first argument is a
  /// constant other than the probe's is skipped unread; the rest go to
  /// PositionwiseUnifiable.  Cost: O(atoms sharing a relation name and
  /// not a distinct first-argument constant), the whole bucket when
  /// either side's first argument is a variable.
  void AddQuery(const QuerySet& set, QueryId q);

  /// Removes the given live queries and every edge incident to them;
  /// their atoms leave the unification index.  Freed edge slots are
  /// reused by later AddQuery calls.
  void RetireQueries(const std::vector<QueryId>& ids);

  /// Candidates AddQuery has handed to PositionwiseUnifiable so far (a
  /// hardware-independent cost of admission; compare with the edges).
  uint64_t positionwise_tests() const { return positionwise_tests_; }

  /// Whether q has been added and not retired.
  bool IsLive(QueryId q) const {
    return q >= 0 && static_cast<size_t>(q) < live_.size() &&
           live_[static_cast<size_t>(q)];
  }

  /// Number of live (added, not retired) queries.
  size_t num_live() const { return num_live_; }

  /// The edge stored in slot e (slots come from OutEdges/InEdges).
  const ExtendedEdge& edge(size_t e) const { return edges_[e]; }

  /// Edge slots leaving query q (one per matching (post, head) pair).
  const std::vector<size_t>& OutEdges(QueryId q) const;

  /// Edge slots entering query q.
  const std::vector<size_t>& InEdges(QueryId q) const;

  // ------------------------------------------------------------------
  // Batch accessors
  // ------------------------------------------------------------------

  /// All edge slots in creation order.  Exact for graphs that never
  /// retired a query; after retirement freed slots may hold stale
  /// entries — use OutEdges()/InEdges() + edge() instead.
  const std::vector<ExtendedEdge>& edges() const { return edges_; }

  size_t num_queries() const { return out_.size(); }

  /// Edge slots leaving the specific postcondition `post_index` of
  /// query q; the paper's safety condition is |this| <= 1 for every
  /// postcondition (Definition 2).
  std::vector<size_t> EdgesOfPostcondition(QueryId q,
                                           size_t post_index) const;

  /// The (collapsed) coordination graph: one node per query, an edge
  /// (q, q') when some postcondition of q unifies with some head of q'.
  /// Self-loops are kept (they collapse inside SCCs anyway).  Retired
  /// queries remain as isolated vertices.
  Digraph Collapse() const;

  std::string ToString(const QuerySet& set) const;

 private:
  /// A live head or postcondition atom: query + index within its list,
  /// and its first argument (a variable at arity 0), so that AddQuery
  /// can skip a distinct constant without reading the atom.
  struct AtomRef {
    QueryId query;
    uint32_t index;
    Term first;
  };
  using Bucket = std::vector<AtomRef>;

  /// Stores the edge (reusing a freed slot when available) and links it
  /// into both endpoint lists; returns the slot.
  size_t AddEdgeSlot(QueryId from, size_t post_index, QueryId to,
                     size_t head_index);

  /// Grows the per-query tables to cover ids 0..n-1.
  void EnsureCapacity(size_t n);

  /// Registers q's atoms in the unification index.
  void IndexAtoms(const QuerySet& set, QueryId q);

  std::vector<ExtendedEdge> edges_;
  std::vector<bool> edge_live_;       // parallel to edges_
  std::vector<size_t> free_slots_;    // dead entries of edges_
  std::vector<std::vector<size_t>> out_;  // per query, edge slots
  std::vector<std::vector<size_t>> in_;   // per query, edge slots
  std::vector<bool> live_;
  size_t num_live_ = 0;
  uint64_t positionwise_tests_ = 0;

  // The unification index: live atoms bucketed by relation name (arity
  // mismatches are rejected by PositionwiseUnifiable during the scan).
  // Buckets hold queries in admission order and are never erased, so
  // indexed_buckets_ can remember, per query, the buckets its atoms
  // entered: retirement scrubs only those instead of the whole index.
  std::unordered_map<std::string, Bucket> head_buckets_;
  std::unordered_map<std::string, Bucket> post_buckets_;
  std::vector<std::vector<Bucket*>> indexed_buckets_;  // per query
};

/// \brief Convenience: the collapsed coordination graph of a query set.
Digraph BuildCoordinationGraph(const QuerySet& set);

}  // namespace entangled

#endif  // ENTANGLED_CORE_COORDINATION_GRAPH_H_
