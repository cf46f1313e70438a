#include "core/coordination_graph.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace entangled {
namespace {

// An atom's first argument as the unification index keys it.
Term FirstArg(const Atom& atom) {
  return atom.terms.empty() ? Term() : atom.terms[0];
}

// Whether two first arguments are distinct constants, which
// PositionwiseUnifiable rejects at position 0.
bool Clash(const Term& a, const Term& b) {
  return a.is_constant() && b.is_constant() && a != b;
}

}  // namespace

void ExtendedCoordinationGraph::EnsureCapacity(size_t n) {
  if (out_.size() < n) {
    out_.resize(n);
    in_.resize(n);
    live_.resize(n, false);
    indexed_buckets_.resize(n);
  }
}

void ExtendedCoordinationGraph::IndexAtoms(const QuerySet& set, QueryId q) {
  const EntangledQuery& query = set.query(q);
  auto& entered = indexed_buckets_[static_cast<size_t>(q)];
  auto index = [&](std::unordered_map<std::string, Bucket>* buckets,
                   const std::vector<Atom>& atoms) {
    for (size_t i = 0; i < atoms.size(); ++i) {
      Bucket* bucket = &(*buckets)[atoms[i].relation];
      bucket->push_back(
          AtomRef{q, static_cast<uint32_t>(i), FirstArg(atoms[i])});
      entered.push_back(bucket);
    }
  };
  index(&post_buckets_, query.postconditions);
  index(&head_buckets_, query.head);
}

size_t ExtendedCoordinationGraph::AddEdgeSlot(QueryId from, size_t post_index,
                                              QueryId to, size_t head_index) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    edges_[slot] = ExtendedEdge{from, post_index, to, head_index};
    edge_live_[slot] = true;
  } else {
    slot = edges_.size();
    edges_.push_back(ExtendedEdge{from, post_index, to, head_index});
    edge_live_.push_back(true);
  }
  out_[static_cast<size_t>(from)].push_back(slot);
  in_[static_cast<size_t>(to)].push_back(slot);
  return slot;
}

ExtendedCoordinationGraph::ExtendedCoordinationGraph(const QuerySet& set) {
  // Batch mode: index every query first, then emit edges in the
  // canonical (from, post_index, to, head_index) lexicographic order the
  // batch algorithms and their tests rely on.
  const size_t n = set.size();
  EnsureCapacity(n);
  for (QueryId q = 0; q < static_cast<QueryId>(n); ++q) {
    live_[static_cast<size_t>(q)] = true;
    IndexAtoms(set, q);
  }
  num_live_ = n;
  for (QueryId from = 0; from < static_cast<QueryId>(n); ++from) {
    const EntangledQuery& q = set.query(from);
    for (size_t pi = 0; pi < q.postconditions.size(); ++pi) {
      const Atom& post = q.postconditions[pi];
      for (QueryId to = 0; to < static_cast<QueryId>(n); ++to) {
        const EntangledQuery& target = set.query(to);
        for (size_t hi = 0; hi < target.head.size(); ++hi) {
          if (!PositionwiseUnifiable(post, target.head[hi])) continue;
          AddEdgeSlot(from, pi, to, hi);
        }
      }
    }
  }
}

void ExtendedCoordinationGraph::AddQuery(const QuerySet& set, QueryId q) {
  ENTANGLED_CHECK(q >= 0 && static_cast<size_t>(q) < set.size())
      << "query " << q << " is not in the set";
  EnsureCapacity(set.size());
  ENTANGLED_CHECK(!live_[static_cast<size_t>(q)])
      << "query " << q << " is already live";
  live_[static_cast<size_t>(q)] = true;
  ++num_live_;
  IndexAtoms(set, q);

  const EntangledQuery& query = set.query(q);
  // q's postconditions against every live head sharing a relation name
  // (q's own heads included — they were indexed just above).  An entry
  // whose first argument clashes is skipped before its atom is read.
  for (size_t pi = 0; pi < query.postconditions.size(); ++pi) {
    const Atom& post = query.postconditions[pi];
    auto bucket = head_buckets_.find(post.relation);
    if (bucket == head_buckets_.end()) continue;
    const Term first = FirstArg(post);
    for (const AtomRef& ref : bucket->second) {
      if (Clash(first, ref.first)) continue;
      ++positionwise_tests_;
      const Atom& head = set.query(ref.query).head[ref.index];
      if (!PositionwiseUnifiable(post, head)) continue;
      AddEdgeSlot(q, pi, ref.query, ref.index);
    }
  }
  // Live postconditions of *other* queries against q's heads (q's own
  // postconditions were fully handled above).
  for (size_t hi = 0; hi < query.head.size(); ++hi) {
    const Atom& head = query.head[hi];
    auto bucket = post_buckets_.find(head.relation);
    if (bucket == post_buckets_.end()) continue;
    const Term first = FirstArg(head);
    for (const AtomRef& ref : bucket->second) {
      if (ref.query == q || Clash(first, ref.first)) continue;
      ++positionwise_tests_;
      const Atom& post = set.query(ref.query).postconditions[ref.index];
      if (!PositionwiseUnifiable(post, head)) continue;
      AddEdgeSlot(ref.query, ref.index, q, hi);
    }
  }
}

void ExtendedCoordinationGraph::RetireQueries(
    const std::vector<QueryId>& ids) {
  // Clear liveness first: the passes below tell retiring queries from
  // survivors by it.
  for (QueryId q : ids) {
    ENTANGLED_CHECK(IsLive(q)) << "query " << q << " is not live";
    live_[static_cast<size_t>(q)] = false;
    --num_live_;
  }
  // Free each incident edge slot once: edge_live_ marks the slots already
  // freed (a self-loop sits in both of its query's lists, an edge
  // between two retiring queries in both of theirs), and only survivors'
  // lists need unlinking.
  auto unlink = [](std::vector<size_t>* slots, size_t e) {
    auto it = std::find(slots->begin(), slots->end(), e);
    ENTANGLED_CHECK(it != slots->end());
    *it = slots->back();
    slots->pop_back();
  };
  std::vector<Bucket*> buckets;
  for (QueryId q : ids) {
    for (std::vector<size_t>* slots :
         {&out_[static_cast<size_t>(q)], &in_[static_cast<size_t>(q)]}) {
      for (size_t e : *slots) {
        if (!edge_live_[e]) continue;
        const ExtendedEdge& edge = edges_[e];
        if (IsLive(edge.from)) unlink(&out_[static_cast<size_t>(edge.from)], e);
        if (IsLive(edge.to)) unlink(&in_[static_cast<size_t>(edge.to)], e);
        edge_live_[e] = false;
        free_slots_.push_back(e);
      }
      slots->clear();
    }
    auto& entered = indexed_buckets_[static_cast<size_t>(q)];
    buckets.insert(buckets.end(), entered.begin(), entered.end());
    entered.clear();
    entered.shrink_to_fit();
  }
  // Scrub each bucket the retired atoms entered once — not the whole
  // index — so retirement stays proportional to their footprint.
  std::sort(buckets.begin(), buckets.end());
  buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
  for (Bucket* bucket : buckets) {
    bucket->erase(std::remove_if(bucket->begin(), bucket->end(),
                                 [this](const AtomRef& ref) {
                                   return !IsLive(ref.query);
                                 }),
                  bucket->end());
  }
}

const std::vector<size_t>& ExtendedCoordinationGraph::OutEdges(
    QueryId q) const {
  ENTANGLED_CHECK(q >= 0 && static_cast<size_t>(q) < out_.size());
  return out_[static_cast<size_t>(q)];
}

const std::vector<size_t>& ExtendedCoordinationGraph::InEdges(
    QueryId q) const {
  ENTANGLED_CHECK(q >= 0 && static_cast<size_t>(q) < in_.size());
  return in_[static_cast<size_t>(q)];
}

std::vector<size_t> ExtendedCoordinationGraph::EdgesOfPostcondition(
    QueryId q, size_t post_index) const {
  std::vector<size_t> result;
  for (size_t e : OutEdges(q)) {
    if (edges_[e].post_index == post_index) result.push_back(e);
  }
  return result;
}

Digraph ExtendedCoordinationGraph::Collapse() const {
  Digraph graph(static_cast<NodeId>(out_.size()));
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (!edge_live_[e]) continue;
    graph.AddEdgeUnique(edges_[e].from, edges_[e].to);
  }
  return graph;
}

std::string ExtendedCoordinationGraph::ToString(const QuerySet& set) const {
  std::ostringstream out;
  out << "ExtendedCoordinationGraph(" << edges_.size() - free_slots_.size()
      << " edges)";
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (!edge_live_[e]) continue;
    const ExtendedEdge& edge = edges_[e];
    const EntangledQuery& from = set.query(edge.from);
    const EntangledQuery& to = set.query(edge.to);
    out << "\n  (" << from.name << ", "
        << set.AtomToString(from.postconditions[edge.post_index]) << ") -> ("
        << to.name << ", " << set.AtomToString(to.head[edge.head_index])
        << ")";
  }
  return out.str();
}

Digraph BuildCoordinationGraph(const QuerySet& set) {
  return ExtendedCoordinationGraph(set).Collapse();
}

}  // namespace entangled
