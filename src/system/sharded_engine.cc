#include "system/sharded_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "core/parser.h"

namespace entangled {

ShardedCoordinationEngine::ShardedCoordinationEngine(
    const Database* db, ShardedEngineOptions options)
    : db_(db), options_(std::move(options)) {
  ENTANGLED_CHECK(db != nullptr);
  // One scheduler for the whole front door: shard fan-out (Submit/Wait)
  // and every inner engine's chunked component evaluation share these
  // workers instead of spawning a pool per shard.  Created eagerly —
  // idle workers just park on the queue's condition variable.
  const size_t width =
      std::max(options_.shard_threads, options_.engine.flush_threads);
  if (width > 1) pool_ = std::make_unique<ThreadPool>(width);
  // Inner engines are driven synchronously on the routing thread (and
  // on pool workers during Flush); deferred admission belongs to the
  // front door, never to a shard.
  options_.engine.intake_capacity = 0;
  options_.engine.shared_pool = pool_.get();
}

void ShardedCoordinationEngine::CheckNotReentrant(
    const char* entry_point) const {
  ENTANGLED_CHECK(!in_callback_)
      << entry_point
      << " called from inside a delivery callback: callbacks must not "
         "re-enter the ShardedCoordinationEngine; defer the follow-up "
         "until the delivering call returns";
}

// ---------------------------------------------------------------------------
// Submission & routing
// ---------------------------------------------------------------------------

Result<QueryId> ShardedCoordinationEngine::Submit(
    const std::string& query_text) {
  QuerySet parsed;
  if (auto id = ParseQuery(query_text, &parsed); !id.ok()) {
    ++front_stats_.rejected;
    return id.status();
  }
  return SubmitParsed(query_text, std::move(parsed));
}

Result<std::vector<QueryId>> ShardedCoordinationEngine::SubmitBatch(
    const std::vector<std::string>& query_texts) {
  // All-or-nothing admission, exactly like CoordinationEngine: parse the
  // whole batch into one staging set before admitting anything.
  QuerySet parsed;
  for (const std::string& text : query_texts) {
    if (auto id = ParseQuery(text, &parsed); !id.ok()) {
      ++front_stats_.rejected;
      return id.status();
    }
  }
  return SubmitBatchParsed(query_texts, std::move(parsed));
}

Result<QueryId> ShardedCoordinationEngine::SubmitParsed(
    const std::string& query_text, QuerySet parsed) {
  (void)query_text;
  ENTANGLED_CHECK_EQ(parsed.size(), size_t{1})
      << "SubmitParsed takes the parse of exactly one text";
  CheckNotReentrant("Submit");
  const QueryId id = next_id_++;
  const size_t slot = RouteAndAdmit(&parsed, 0, id);
  ++front_stats_.submitted;

  if (options_.engine.evaluate_every > 0 &&
      ++since_last_eval_ >= options_.engine.evaluate_every) {
    since_last_eval_ = 0;
    // The §6.1 per-arrival step: evaluate exactly the arrival's
    // component, in its shard; nothing else is examined.
    shards_[slot].engine->EvaluateNow(id);
    DrainDeliveries({slot});
    MaybeGcShards({slot});
  }
  return id;
}

Result<std::vector<QueryId>> ShardedCoordinationEngine::SubmitBatchParsed(
    const std::vector<std::string>& query_texts, QuerySet parsed) {
  ENTANGLED_CHECK_EQ(parsed.size(), query_texts.size())
      << "SubmitBatchParsed takes one parsed query per text";
  CheckNotReentrant("SubmitBatch");
  std::vector<QueryId> ids;
  ids.reserve(parsed.size());
  for (QueryId sid = 0; sid < static_cast<QueryId>(parsed.size()); ++sid) {
    ids.push_back(next_id_++);
    RouteAndAdmit(&parsed, sid, ids.back());
    ++front_stats_.submitted;
  }
  // The whole batch landed before any evaluation; now flush once, as a
  // single engine would.
  if (options_.engine.evaluate_every > 0) {
    since_last_eval_ = 0;
    Flush();
  }
  return ids;
}

size_t ShardedCoordinationEngine::RouteAndAdmit(QuerySet* staging,
                                                QueryId index, QueryId id) {
  const EntangledQuery& query = staging->query(index);
  const auto footprint = {&query.postconditions, &query.head};
  // Live shards owning the footprint's relations, in slot order.
  std::vector<size_t> involved;
  for (const auto* atoms : footprint) {
    for (const Atom& atom : *atoms) {
      auto it = relation_shard_.find(atom.relation);
      if (it != relation_shard_.end()) involved.push_back(it->second);
    }
  }
  std::sort(involved.begin(), involved.end());
  involved.erase(std::unique(involved.begin(), involved.end()),
                 involved.end());

  size_t slot;
  if (involved.empty()) {
    slot = CreateShard();
  } else if (involved.size() == 1) {
    slot = involved.front();
  } else {
    ++sharded_stats_.group_merges;
    slot = MergeShards(involved);
  }
  for (const auto* atoms : footprint) {
    for (const Atom& atom : *atoms) {
      if (relation_shard_.try_emplace(atom.relation, slot).second) {
        shards_[slot].relations.push_back(atom.relation);
      }
    }
  }

  // The id is unique across shards and monotone in submission order,
  // which is all the inner engines need to reproduce a single engine's
  // tie-breaks.
  shards_[slot].engine->AdoptPending(staging, index, id);
  pending_.emplace(id, slot);
  flush_candidates_.insert(slot);
  return slot;
}

size_t ShardedCoordinationEngine::CreateShard() {
  EngineOptions inner = options_.engine;
  inner.evaluate_every = 0;  // the front door drives the cadence
  size_t slot;
  if (!free_slots_.empty()) {
    // Reuse a retired slot so the shard table stays proportional to
    // the number of *live* shards under create/GC churn.
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    shards_.emplace_back();
    slot = shards_.size() - 1;
  }
  shards_[slot].engine = std::make_unique<CoordinationEngine>(db_, inner);
  // Capture the slot index, not the Shard: shards_ may reallocate as
  // new shards are created (never during a flush).  The *internal*
  // solution hook hands us the shard's solution; the front door has it
  // materialized and fires it only after the cross-shard merge.
  shards_[slot].engine->set_internal_solution_callback(
      [this, slot](const CoordinationSolution& solution) {
        OnShardDelivery(slot, solution);
      });
  ++num_live_shards_;
  ++sharded_stats_.shards_created;
  return slot;
}

size_t ShardedCoordinationEngine::MergeShards(
    const std::vector<size_t>& slots) {
  // Small-into-large: the slot with the most pending queries survives
  // with its engine and memoized component state untouched; every other
  // slot is drained and bulk-adopted into it — O(sum of smaller sides)
  // per merge, not O(union).  The survivor's admission slots stop being
  // monotone in ids, which is fine: the inner engine breaks every tie
  // on ids.
  ++sharded_stats_.merge_events;
  size_t survivor = slots.front();
  for (size_t s : slots) {
    const size_t p = shards_[s].engine->num_pending();
    const size_t best = shards_[survivor].engine->num_pending();
    if (p > best || (p == best && s < survivor)) survivor = s;
  }
  sharded_stats_.queries_retained += shards_[survivor].engine->num_pending();

  uint64_t moved = 0;
  std::vector<std::string>& survivor_relations = shards_[survivor].relations;
  for (size_t s : slots) {
    if (s == survivor) continue;
    ENTANGLED_CHECK(shards_[s].deliveries.empty());
    CoordinationEngine::PendingExtract extract =
        shards_[s].engine->ExtractPending();
    moved += AdoptExtractIntoShard(survivor, &extract);
    for (std::string& relation : shards_[s].relations) {
      relation_shard_.at(relation) = survivor;
      survivor_relations.push_back(std::move(relation));
    }
    RetireShard(s, /*absorbed=*/true);
    flush_candidates_.erase(s);
  }
  sharded_stats_.queries_migrated += moved;
  sharded_stats_.merge_migrated_max =
      std::max(sharded_stats_.merge_migrated_max, moved);
  flush_candidates_.insert(survivor);
  return survivor;
}

uint64_t ShardedCoordinationEngine::AdoptExtractIntoShard(
    size_t into_slot, CoordinationEngine::PendingExtract* extract) {
  shards_[into_slot].engine->AdoptPending(extract);
  for (QueryId id : extract->ids) pending_.at(id) = into_slot;
  return static_cast<uint64_t>(extract->ids.size());
}

void ShardedCoordinationEngine::RetireShard(size_t slot, bool absorbed) {
  Shard& shard = shards_[slot];
  ENTANGLED_CHECK(shard.engine != nullptr);
  ENTANGLED_CHECK(shard.deliveries.empty());
  retired_stats_ += shard.engine->stats();
  shard.engine.reset();
  shard.relations.clear();
  free_slots_.push_back(slot);
  --num_live_shards_;
  if (absorbed) {
    ++sharded_stats_.shards_absorbed;
  } else {
    ++sharded_stats_.shards_gced;
  }
}

// ---------------------------------------------------------------------------
// Cancellation & lookups
// ---------------------------------------------------------------------------

bool ShardedCoordinationEngine::Cancel(QueryId id) {
  CheckNotReentrant("Cancel");
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  const size_t slot = it->second;
  const bool cancelled = shards_[slot].engine->Cancel(id);
  ENTANGLED_CHECK(cancelled) << "shard disagreed about pending query " << id;
  pending_.erase(it);
  // Shrinking a component can make it coordinable; the shard now holds
  // dirty fragments.
  flush_candidates_.insert(slot);
  MaybeGcShards({slot});
  return true;
}

bool ShardedCoordinationEngine::IsPending(QueryId id) const {
  return pending_.count(id) != 0;
}

std::vector<QueryId> ShardedCoordinationEngine::PendingQueries() const {
  std::vector<QueryId> pending;
  pending.reserve(pending_.size());
  for (const auto& [id, slot] : pending_) pending.push_back(id);
  std::sort(pending.begin(), pending.end());
  return pending;
}

std::vector<QueryId> ShardedCoordinationEngine::ComponentOf(
    QueryId id) const {
  auto it = pending_.find(id);
  if (it == pending_.end()) return {};
  return shards_[it->second].engine->ComponentOf(id);
}

bool ShardedCoordinationEngine::SameShard(QueryId a, QueryId b) const {
  ENTANGLED_CHECK(IsPending(a)) << "query " << a << " is not pending";
  ENTANGLED_CHECK(IsPending(b)) << "query " << b << " is not pending";
  return pending_.at(a) == pending_.at(b);
}

EngineStats ShardedCoordinationEngine::StatsSnapshot() const {
  EngineStats stats = front_stats_;
  stats += retired_stats_;
  for (const Shard& shard : shards_) {
    if (shard.engine != nullptr) stats += shard.engine->stats();
  }
  return stats;
}

ServiceGauges ShardedCoordinationEngine::GaugesSnapshot() const {
  ServiceGauges gauges;
  gauges.pending = pending_.size();
  gauges.live_shards = num_live_shards_;
  gauges.group_merges = sharded_stats_.group_merges;
  gauges.queries_migrated = sharded_stats_.queries_migrated;
  gauges.queries_retained = sharded_stats_.queries_retained;
  gauges.merge_events = sharded_stats_.merge_events;
  gauges.merge_migrated_max = sharded_stats_.merge_migrated_max;
  gauges.shards.reserve(num_live_shards_);
  for (size_t slot = 0; slot < shards_.size(); ++slot) {
    const Shard& shard = shards_[slot];
    if (shard.engine == nullptr) continue;
    ShardGauge row;
    row.slot = static_cast<int64_t>(slot);
    row.pending = shard.engine->num_pending();
    row.evaluations = shard.engine->stats().evaluations;
    gauges.shards.push_back(row);
  }
  return gauges;
}

// ---------------------------------------------------------------------------
// Flushing & delivery
// ---------------------------------------------------------------------------

void ShardedCoordinationEngine::OnShardDelivery(
    size_t slot, const CoordinationSolution& solution) {
  // Runs on whichever thread is flushing this shard; touches only the
  // shard's own engine and buffer, so concurrent shard flushes never
  // share state.
  Shard& shard = shards_[slot];
  BufferedDelivery buffered;
  buffered.key = shard.engine->last_delivery_schedule_key();
  // Materialize only when somebody listens, as a single engine does.
  buffered.delivery = shard.engine->MakeIdDelivery(
      solution, /*sequence=*/0, /*materialize=*/callback_ != nullptr);
  shard.deliveries.push_back(std::move(buffered));
}

size_t ShardedCoordinationEngine::DrainDeliveries(
    const std::vector<size_t>& slots) {
  // Merge-by-smallest-id: every shard's buffer is already in
  // nondecreasing key order (inner flushes apply deliveries that way),
  // keys collide only within one shard (a fragment reusing its parent
  // component's smallest id), and the gather preserves buffer order —
  // so a stable sort on the key reconstructs exactly the delivery
  // order a single engine over the union would have produced.
  std::vector<BufferedDelivery> merged;
  for (size_t s : slots) {
    Shard& shard = shards_[s];
    for (BufferedDelivery& d : shard.deliveries) {
      merged.push_back(std::move(d));
    }
    shard.deliveries.clear();
  }
  if (merged.empty()) return 0;
  std::stable_sort(merged.begin(), merged.end(),
                   [](const BufferedDelivery& a, const BufferedDelivery& b) {
                     return a.key < b.key;
                   });
  for (BufferedDelivery& buffered : merged) {
    Delivery& delivery = buffered.delivery;
    for (const DeliveredQuery& q : delivery.queries) {
      const size_t erased = pending_.erase(q.id);
      ENTANGLED_CHECK_EQ(erased, 1u) << "query " << q.id << " delivered twice";
    }
    delivery.sequence = next_delivery_sequence_++;
    if (callback_) {
      in_callback_ = true;
      callback_(delivery);
      in_callback_ = false;
    }
  }
  return merged.size();
}

void ShardedCoordinationEngine::ResumeNumbering(QueryId next_id,
                                                uint64_t next_sequence) {
  CheckNotReentrant("ResumeNumbering");
  ENTANGLED_CHECK_GE(next_id, next_id_) << "ids only move forward";
  next_id_ = next_id;
  next_delivery_sequence_ = next_sequence;
}

size_t ShardedCoordinationEngine::Flush() {
  CheckNotReentrant("Flush");
  // Only shards touched since their last flush can hold dirty
  // components; visit those, not every slot ever created.
  std::vector<size_t> slots;
  slots.reserve(flush_candidates_.size());
  for (size_t s : flush_candidates_) {
    if (shards_[s].engine != nullptr) slots.push_back(s);
  }
  flush_candidates_.clear();
  std::sort(slots.begin(), slots.end());

  if (slots.size() > 1 && options_.shard_threads > 1 && pool_ != nullptr) {
    // Each shard is flushed by exactly one thread (its delivery buffer
    // is single-writer); inner engines may additionally fan their own
    // component waves out on the same pool via RunChunked, whose
    // caller-participation guarantees progress even when every worker
    // here is occupied by a shard task.
    for (size_t s : slots) {
      pool_->Submit([this, s] { shards_[s].engine->Flush(); });
    }
    pool_->Wait();
  } else {
    for (size_t s : slots) shards_[s].engine->Flush();
  }

  const size_t delivered = DrainDeliveries(slots);
  MaybeGcShards(slots);
  return delivered;
}

void ShardedCoordinationEngine::MaybeGcShards(
    const std::vector<size_t>& slots) {
  for (size_t s : slots) {
    Shard& shard = shards_[s];
    if (shard.engine == nullptr || shard.engine->num_pending() != 0) {
      continue;
    }
    // Drained: no pending query anywhere names this shard's relations
    // (the sharding invariant), so they unroute and re-bridge along
    // future traffic.
    for (const std::string& relation : shard.relations) {
      relation_shard_.erase(relation);
    }
    RetireShard(s, /*absorbed=*/false);
    flush_candidates_.erase(s);
  }
}

}  // namespace entangled
