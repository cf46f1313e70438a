#include "testing/reference_coordinator.h"

#include <algorithm>
#include <deque>

#include "algo/scc_coordination.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/coordination_graph.h"
#include "core/parser.h"

namespace entangled {

ReferenceCoordinator::ReferenceCoordinator(const Database* db) : db_(db) {
  ENTANGLED_CHECK(db != nullptr);
}

void ReferenceCoordinator::CheckNotReentrant(const char* entry_point) const {
  ENTANGLED_CHECK(!in_callback_)
      << entry_point
      << " called from inside a delivery callback: callbacks must not "
         "re-enter the ReferenceCoordinator";
}

void ReferenceCoordinator::Admit(QueryId id) {
  pending_.resize(all_.size(), false);
  pending_[static_cast<size_t>(id)] = true;
  ++num_pending_;
  ++stats_.submitted;
}

Result<QueryId> ReferenceCoordinator::Submit(const std::string& query_text) {
  CheckNotReentrant("Submit");
  auto id = ParseQuery(query_text, &all_);
  if (!id.ok()) {
    ++stats_.rejected;
    return id.status();
  }
  Admit(*id);
  if (evaluate_every_ > 0 && ++since_last_eval_ >= evaluate_every_) {
    since_last_eval_ = 0;
    Evaluate(ComponentOf(*id));
  }
  return id;
}

Result<std::vector<QueryId>> ReferenceCoordinator::SubmitBatch(
    const std::vector<std::string>& query_texts) {
  CheckNotReentrant("SubmitBatch");
  // All-or-nothing: parse the whole batch before admitting any of it.
  QuerySet staging;
  for (const std::string& text : query_texts) {
    auto id = ParseQuery(text, &staging);
    if (!id.ok()) {
      ++stats_.rejected;
      return id.status();
    }
  }
  std::vector<QueryId> ids;
  for (QueryId q = 0; q < static_cast<QueryId>(staging.size()); ++q) {
    ids.push_back(all_.MoveQuery(&staging, q));
  }
  for (QueryId id : ids) Admit(id);
  // Batch members do not tick the per-arrival cadence; one flush
  // evaluates the whole batch instead.
  if (evaluate_every_ > 0) {
    since_last_eval_ = 0;
    Flush();
  }
  return ids;
}

bool ReferenceCoordinator::Cancel(QueryId id) {
  CheckNotReentrant("Cancel");
  if (!IsPending(id)) return false;
  pending_[static_cast<size_t>(id)] = false;
  --num_pending_;
  ++stats_.cancelled;
  return true;
}

size_t ReferenceCoordinator::Flush() {
  CheckNotReentrant("Flush");
  // Components in ascending smallest-id order.  A delivery changes the
  // partition (its fragments may now coordinate on their own), so
  // re-partition and rescan from the start until a full pass delivers
  // nothing.
  size_t delivered = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const std::vector<QueryId>& component : Components()) {
      if (Evaluate(component)) {
        ++delivered;
        progress = true;
        break;
      }
    }
  }
  return delivered;
}

std::vector<QueryId> ReferenceCoordinator::PendingQueries() const {
  std::vector<QueryId> pending;
  pending.reserve(num_pending_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i]) pending.push_back(static_cast<QueryId>(i));
  }
  return pending;
}

bool ReferenceCoordinator::IsPending(QueryId id) const {
  return id >= 0 && static_cast<size_t>(id) < pending_.size() &&
         pending_[static_cast<size_t>(id)];
}

std::vector<std::vector<QueryId>> ReferenceCoordinator::Components() const {
  // Node i of the rebuilt graph is pending[i] (Subset keeps input order).
  const std::vector<QueryId> pending = PendingQueries();
  const Digraph graph = BuildCoordinationGraph(all_.Subset(pending));
  std::vector<bool> visited(pending.size(), false);
  std::vector<std::vector<QueryId>> components;
  for (NodeId root = 0; root < graph.num_nodes(); ++root) {
    if (visited[static_cast<size_t>(root)]) continue;
    std::vector<QueryId> component;
    std::deque<NodeId> queue{root};
    visited[static_cast<size_t>(root)] = true;
    while (!queue.empty()) {
      const NodeId u = queue.front();
      queue.pop_front();
      component.push_back(pending[static_cast<size_t>(u)]);
      for (const auto* neighbours : {&graph.Successors(u),
                                     &graph.Predecessors(u)}) {
        for (NodeId v : *neighbours) {
          if (visited[static_cast<size_t>(v)]) continue;
          visited[static_cast<size_t>(v)] = true;
          queue.push_back(v);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

std::vector<QueryId> ReferenceCoordinator::ComponentOf(QueryId id) const {
  if (!IsPending(id)) return {};
  std::vector<std::vector<QueryId>> components = Components();
  auto it = std::find_if(components.begin(), components.end(),
                         [id](const std::vector<QueryId>& component) {
                           return std::binary_search(component.begin(),
                                                     component.end(), id);
                         });
  return std::move(*it);
}

bool ReferenceCoordinator::Evaluate(const std::vector<QueryId>& component) {
  std::vector<QueryId> original;
  std::vector<VarId> original_vars;
  const QuerySet subset = all_.Subset(component, &original, &original_vars);
  SccCoordinator coordinator(db_);
  ++stats_.evaluations;
  WallTimer timer;
  auto result = coordinator.Solve(subset);
  stats_.eval_latency.Record(timer.ElapsedNanos());
  stats_.db_queries += coordinator.stats().db_queries;
  if (!result.ok()) {
    if (result.status().IsFailedPrecondition()) ++stats_.unsafe_components;
    return false;
  }
  // Translate subset ids — queries and witness variables — back and
  // retire the winners.
  CoordinationSolution solution;
  result->assignment.ForEach([&](VarId local, const Value& value) {
    solution.assignment.emplace(original_vars[static_cast<size_t>(local)],
                                value);
  });
  for (QueryId local : result->queries) {
    const QueryId id = original[static_cast<size_t>(local)];
    solution.queries.push_back(id);
    pending_[static_cast<size_t>(id)] = false;
    --num_pending_;
  }
  std::sort(solution.queries.begin(), solution.queries.end());
  stats_.coordinated_queries += solution.queries.size();
  ++stats_.coordinating_sets;
  const uint64_t sequence = next_delivery_sequence_++;
  if (callback_) {
    const Delivery delivery = MakeDelivery(all_, solution, sequence);
    in_callback_ = true;
    callback_(delivery);
    in_callback_ = false;
  }
  return true;
}

}  // namespace entangled
