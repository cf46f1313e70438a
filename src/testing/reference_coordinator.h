#ifndef ENTANGLED_TESTING_REFERENCE_COORDINATOR_H_
#define ENTANGLED_TESTING_REFERENCE_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/query.h"
#include "db/database.h"
#include "system/engine.h"

namespace entangled {

/// \brief The from-scratch coordination oracle: the §6.1 coordination
/// module with no incremental state at all.
///
/// Every evaluation rebuilds the coordination graph over the whole
/// pending set with the all-pairs batch constructor
/// (BuildCoordinationGraph), finds components by BFS, and hands the
/// evaluated component to SccCoordinator::Solve(subset), which derives
/// its own edges.  There is no unification index, component union-find,
/// dirty worklist, memo, schedule key or intake queue, so the oracle
/// shares none of the production engines' maintenance code.
///
/// Admission and cadence match the production engine: per-arrival
/// evaluation of the arrival's component every `evaluate_every`
/// submissions, all-or-nothing batches evaluated by one Flush(), and
/// Flush() evaluating components in ascending smallest-id order,
/// rescanning after every delivery.  The stress harness holds every
/// engine variant to this coordinator's deliveries, witnesses and
/// component partition; bench_incremental_stream uses it as baseline.
///
/// Single-threaded; callbacks must not re-enter (Submit/Cancel/Flush
/// CHECK-fail when called from inside one).
class ReferenceCoordinator : public CoordinationService {
 public:
  explicit ReferenceCoordinator(const Database* db);

  void set_delivery_callback(DeliveryCallback callback) override {
    callback_ = std::move(callback);
  }
  void set_evaluate_every(size_t evaluate_every) override {
    evaluate_every_ = evaluate_every;
  }

  Result<QueryId> Submit(const std::string& query_text) override;
  Result<std::vector<QueryId>> SubmitBatch(
      const std::vector<std::string>& query_texts) override;
  bool Cancel(QueryId id) override;
  size_t Flush() override;

  std::vector<QueryId> PendingQueries() const override;
  bool IsPending(QueryId id) const override;
  size_t num_pending() const override { return num_pending_; }
  std::vector<QueryId> ComponentOf(QueryId id) const override;

  /// The weakly connected components of the pending queries, from one
  /// graph rebuild and one BFS per component: members ascending,
  /// components in ascending order of their smallest member.
  std::vector<std::vector<QueryId>> Components() const;

  EngineStats StatsSnapshot() const override { return stats_; }

  /// Every query ever submitted; retired ones keep their slots.
  const QuerySet& queries() const { return all_; }

 private:
  void CheckNotReentrant(const char* entry_point) const;
  void Admit(QueryId id);
  /// Solves `component` (ascending ids); on success retires and
  /// delivers the coordinating set.  Returns whether it delivered.
  bool Evaluate(const std::vector<QueryId>& component);

  const Database* db_;
  QuerySet all_;
  std::vector<bool> pending_;  // per query id in all_
  size_t num_pending_ = 0;
  size_t evaluate_every_ = 1;
  size_t since_last_eval_ = 0;
  DeliveryCallback callback_;
  bool in_callback_ = false;
  uint64_t next_delivery_sequence_ = 0;
  EngineStats stats_;
};

}  // namespace entangled

#endif  // ENTANGLED_TESTING_REFERENCE_COORDINATOR_H_
