// Deferred admission through the engine's intake queue.  Arming
// `EngineOptions::intake_capacity` must not change a single delivered
// byte: submissions are validated and ticketed on the calling thread,
// queued, and admitted at the next flush/read boundary in ticket order,
// with ids identical to what the inline path would have assigned.  The
// concurrency tests additionally pin down the one multi-threaded
// guarantee the intake adds: a producer thread submitting while the
// owner reads never tears the pending set — every snapshot is a
// contiguous prefix of the eventual id sequence.

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
#include "common/rng.h"
#include "core/parser.h"
#include "system/engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// A query whose postcondition nobody ever answers: it stays pending
/// through any number of evaluations, which makes pending-set shapes
/// deterministic under concurrency.
std::string StuckQuery(int i) {
  const std::string rel = "Stuck" + std::to_string(i);
  return rel + ": { Nobody" + rel + "(m) } " + rel +
         "(s) :- Users(s, 'user1').";
}

/// A pool mixing loners (coordinate alone), stuck queries, and
/// mutually-entangled pairs, for the deferred-vs-inline differential.
std::vector<std::string> MakePool(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  int group = 0;
  const size_t num_groups = 8 + rng.NextBounded(5);
  for (size_t g = 0; g < num_groups; ++g) {
    const std::string rel = "G" + std::to_string(group++);
    const std::string handle =
        "'user" + std::to_string(rng.NextBounded(8)) + "'";
    switch (rng.NextBounded(3)) {
      case 0:  // loner
        texts.push_back(rel + "solo: { } " + rel + "(s) :- Users(s, " +
                        handle + ").");
        break;
      case 1:  // stuck
        texts.push_back(rel + "stuck: { Nobody" + rel + "(m) } " + rel +
                        "(s) :- Users(s, " + handle + ").");
        break;
      default:  // pair
        texts.push_back(rel + "a: { " + rel + "(B, x) } " + rel +
                        "(A, x) :- Users(x, " + handle + ").");
        texts.push_back(rel + "b: { " + rel + "(A, y) } " + rel +
                        "(B, y) :- Users(y, " + handle + ").");
        break;
    }
  }
  return texts;
}

struct LoggedDelivery {
  std::vector<QueryId> queries;
  /// Each participant's witness, in participant order.
  std::vector<std::vector<std::pair<std::string, Value>>> witnesses;

  static LoggedDelivery Of(const Delivery& delivery) {
    LoggedDelivery logged{delivery.QueryIds(), {}};
    for (const DeliveredQuery& q : delivery.queries) {
      logged.witnesses.push_back(q.witness);
    }
    return logged;
  }

  friend bool operator==(const LoggedDelivery& a, const LoggedDelivery& b) {
    return a.queries == b.queries && a.witnesses == b.witnesses;
  }
};

struct RunResult {
  std::vector<LoggedDelivery> log;
  std::vector<QueryId> final_pending;
  std::vector<QueryId> submitted_ids;
  uint64_t submitted = 0;
  uint64_t cancelled = 0;
};

/// Single-threaded randomized interleaving of submit / cancel / flush /
/// set_evaluate_every, identical across engine configurations.
RunResult RunInterleaving(const Database& db, EngineOptions options,
                          const std::vector<std::string>& texts,
                          uint64_t op_seed) {
  CoordinationEngine engine(&db, options);
  RunResult run;
  engine.set_delivery_callback([&](const Delivery& delivery) {
    run.log.push_back(LoggedDelivery::Of(delivery));
  });
  Rng rng(op_seed);
  size_t next_text = 0;
  while (next_text < texts.size()) {
    const uint64_t draw = rng.NextBounded(12);
    if (draw < 7) {
      auto id = engine.Submit(texts[next_text++]);
      EXPECT_TRUE(id.ok()) << id.status();
      if (!id.ok()) break;
      run.submitted_ids.push_back(*id);
    } else if (draw < 9) {
      std::vector<QueryId> pending = engine.PendingQueries();
      if (!pending.empty()) {
        engine.Cancel(pending[rng.NextBounded(64) % pending.size()]);
      }
    } else if (draw < 10) {
      engine.set_evaluate_every(rng.NextBounded(3));
    } else {
      engine.Flush();
    }
  }
  engine.Flush();
  run.final_pending = engine.PendingQueries();
  run.submitted = engine.stats().submitted;
  run.cancelled = engine.stats().cancelled;
  return run;
}

class EngineIntakeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }
  Database db_;
};

// Arming the intake (any capacity) must reproduce the inline path's
// exact ids, delivery log, witnesses, and pending set.
TEST_F(EngineIntakeTest, DeferredMatchesInlineByteForByte) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::string> texts = MakePool(seed * 977);
    EngineOptions inline_path;
    inline_path.evaluate_every = 1;
    RunResult base = RunInterleaving(db_, inline_path, texts, seed * 131);
    for (size_t capacity : {size_t{4}, size_t{64}}) {
      EngineOptions deferred = inline_path;
      deferred.intake_capacity = capacity;
      RunResult run = RunInterleaving(db_, deferred, texts, seed * 131);
      EXPECT_EQ(base.submitted_ids, run.submitted_ids)
          << "seed=" << seed << " capacity=" << capacity;
      EXPECT_EQ(base.log, run.log)
          << "seed=" << seed << " capacity=" << capacity;
      EXPECT_EQ(base.final_pending, run.final_pending)
          << "seed=" << seed << " capacity=" << capacity;
      EXPECT_EQ(base.submitted, run.submitted);
      EXPECT_EQ(base.cancelled, run.cancelled);
    }
  }
}

// A queued (not yet drained) submission is visible to every read and
// cancellable exactly like an admitted one.
TEST_F(EngineIntakeTest, QueuedSubmissionIsPendingAndCancellable) {
  EngineOptions options;
  options.evaluate_every = 0;
  options.intake_capacity = 8;
  CoordinationEngine engine(&db_, options);
  auto a = engine.Submit(StuckQuery(0));
  auto b = engine.Submit(StuckQuery(1));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 0);
  EXPECT_EQ(*b, 1);
  EXPECT_TRUE(engine.IsPending(0));
  EXPECT_TRUE(engine.IsPending(1));
  EXPECT_TRUE(engine.Cancel(0));
  EXPECT_FALSE(engine.Cancel(0));  // already cancelled
  EXPECT_EQ(engine.num_pending(), 1u);
  EXPECT_EQ(engine.PendingQueries(), std::vector<QueryId>{1});
  EXPECT_EQ(engine.stats().submitted, 2u);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

// The torn-pending-set test: a producer thread submits stuck queries
// while the owner thread reads and flushes.  Ids are ticketed at
// enqueue, drains admit in ticket order, and nothing ever delivers —
// so every owner-side snapshot must be exactly [0, k) for some k, and
// the producer must observe the ticketed ids in submission order.
TEST_F(EngineIntakeTest, ConcurrentSubmitNeverTearsThePendingSet) {
  constexpr int kQueries = 400;
  EngineOptions options;
  options.evaluate_every = 0;
  options.intake_capacity = 32;  // small ring: forces wraparound + spins
  CoordinationEngine engine(&db_, options);

  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < kQueries; ++i) {
      auto id = engine.Submit(StuckQuery(i));
      EXPECT_TRUE(id.ok()) << id.status();
      if (!id.ok()) break;
      // Ticket order == submission order for a single producer.
      EXPECT_EQ(*id, static_cast<QueryId>(i));
    }
    done.store(true, std::memory_order_release);
  });

  // Each PendingQueries() drains whatever is queued at that instant;
  // since nothing ever delivers, every snapshot must be exactly [0, k).
  // (Two consecutive reads may legitimately see different k — the
  // producer keeps racing in between — so only the prefix shape of one
  // snapshot is checked, never cross-call agreement.)
  int reads = 0;
  bool torn = false;
  while (!done.load(std::memory_order_acquire) && !torn) {
    std::vector<QueryId> snapshot = engine.PendingQueries();
    for (size_t i = 0; i < snapshot.size(); ++i) {
      if (snapshot[i] != static_cast<QueryId>(i)) {
        torn = true;
        break;
      }
    }
    if (++reads % 7 == 0) engine.Flush();  // drains must interleave too
  }
  // Keep draining until the producer finishes (it may be spinning on a
  // full ring), then join before asserting.
  while (!done.load(std::memory_order_acquire)) engine.num_pending();
  producer.join();
  EXPECT_FALSE(torn) << "pending snapshot was not a contiguous id prefix";

  std::vector<QueryId> final_pending = engine.PendingQueries();
  ASSERT_EQ(final_pending.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(final_pending[static_cast<size_t>(i)],
              static_cast<QueryId>(i));
  }
  EXPECT_EQ(engine.stats().submitted, static_cast<uint64_t>(kQueries));
}

// Two producers race into the same intake: the union of returned ids
// must be exactly [0, 2M) with each producer's own ids strictly
// increasing, and the engine must admit all of them.
TEST_F(EngineIntakeTest, TwoProducersGetDisjointTicketedIds) {
  constexpr int kPerProducer = 200;
  EngineOptions options;
  options.evaluate_every = 0;
  options.intake_capacity = 64;
  CoordinationEngine engine(&db_, options);

  std::vector<std::vector<QueryId>> ids(2);
  std::atomic<int> running{2};
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto id = engine.Submit(StuckQuery(p * kPerProducer + i));
        EXPECT_TRUE(id.ok()) << id.status();
        if (!id.ok()) break;
        ids[static_cast<size_t>(p)].push_back(*id);
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  // Keep draining so producers never wedge on a full ring.
  while (running.load(std::memory_order_acquire) != 0) {
    engine.num_pending();
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();

  std::vector<QueryId> all;
  for (const auto& own : ids) {
    for (size_t i = 1; i < own.size(); ++i) {
      EXPECT_LT(own[i - 1], own[i]) << "producer ids not increasing";
    }
    all.insert(all.end(), own.begin(), own.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(2 * kPerProducer));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i], static_cast<QueryId>(i));
  }
  EXPECT_EQ(engine.num_pending(), static_cast<size_t>(2 * kPerProducer));
}

// Four producers hand the intake their own parses (SubmitParsed and
// SubmitBatchParsed) while the owner drains.  The ids fix the arrival
// order; admitting the same texts inline in that order must give the
// same query set byte for byte, the same deliveries and the same
// pending set.  No text is parsed twice: the engine moves each parse.
TEST_F(EngineIntakeTest, ParsedProducersMatchInlineAdmission) {
  constexpr size_t kProducers = 4;
  std::vector<std::string> texts;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::string& text : MakePool(seed * 31)) {
      texts.push_back(std::move(text));
    }
  }
  EngineOptions options;
  options.evaluate_every = 0;  // the drain admits; one Flush evaluates
  options.intake_capacity = 16;
  CoordinationEngine engine(&db_, options);
  std::vector<LoggedDelivery> log;
  engine.set_delivery_callback([&](const Delivery& delivery) {
    log.push_back(LoggedDelivery::Of(delivery));
  });

  // Producer p owns texts p, p + 4, ...; odd producers submit them in
  // batches of up to three.
  std::vector<std::vector<std::pair<QueryId, size_t>>> admitted(kProducers);
  std::atomic<size_t> running{kProducers};
  const uint64_t parses_before = ParseCount();
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<size_t> mine;
      for (size_t i = p; i < texts.size(); i += kProducers) mine.push_back(i);
      for (size_t k = 0; k < mine.size();) {
        const size_t n = p % 2 == 0 ? 1 : std::min<size_t>(3, mine.size() - k);
        std::vector<std::string> batch;
        QuerySet parsed;
        for (size_t j = k; j < k + n; ++j) {
          batch.push_back(texts[mine[j]]);
          EXPECT_TRUE(ParseQuery(batch.back(), &parsed).ok());
        }
        if (n == 1) {
          auto id = engine.SubmitParsed(batch.front(), std::move(parsed));
          EXPECT_TRUE(id.ok()) << id.status();
          if (id.ok()) admitted[p].emplace_back(*id, mine[k]);
        } else {
          auto ids = engine.SubmitBatchParsed(batch, std::move(parsed));
          EXPECT_TRUE(ids.ok()) << ids.status();
          if (!ids.ok()) break;
          for (size_t j = 0; j < n; ++j) {
            admitted[p].emplace_back((*ids)[j], mine[k + j]);
          }
        }
        k += n;
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  while (running.load(std::memory_order_acquire) != 0) {
    engine.num_pending();
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(ParseCount() - parses_before, texts.size());
  engine.Flush();

  // Arrival order by id; ids are exactly [0, n).
  std::vector<size_t> arrival(texts.size(), texts.size());
  for (const auto& own : admitted) {
    for (const auto& [id, text] : own) {
      ASSERT_GE(id, 0);
      ASSERT_LT(static_cast<size_t>(id), texts.size());
      arrival[static_cast<size_t>(id)] = text;
    }
  }
  EngineOptions inline_options;
  inline_options.evaluate_every = 0;
  CoordinationEngine inline_engine(&db_, inline_options);
  std::vector<LoggedDelivery> expected;
  inline_engine.set_delivery_callback([&](const Delivery& delivery) {
    expected.push_back(LoggedDelivery::Of(delivery));
  });
  for (size_t i = 0; i < arrival.size(); ++i) {
    ASSERT_LT(arrival[i], texts.size()) << "no query admitted as id " << i;
    auto id = inline_engine.Submit(texts[arrival[i]]);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<QueryId>(i));
  }
  inline_engine.Flush();

  EXPECT_EQ(engine.queries().ToString(), inline_engine.queries().ToString());
  EXPECT_EQ(engine.queries().num_vars(), inline_engine.queries().num_vars());
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(log, expected);
  EXPECT_EQ(engine.PendingQueries(), inline_engine.PendingQueries());
  EXPECT_EQ(engine.stats().submitted, texts.size());
}

}  // namespace
}  // namespace entangled
