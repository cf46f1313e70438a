// Differential test of the incremental coordination core: across
// randomized submit / cancel / flush interleavings, the incremental
// engine (persistent graph index + union-find components + dirty-set
// scheduling) must deliver byte-identical output — the same
// coordinating sets, in the same retirement order, with the same
// witnessing assignments — as the from-scratch ReferenceCoordinator
// that rebuilds the coordination graph for every evaluation.  A second
// differential axis checks that the parallel Flush() is
// thread-count-invariant.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/validator.h"
#include "system/engine.h"
#include "testing/reference_coordinator.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// One recorded delivery: engine ids plus the full witness assignment,
/// keyed by the engine's own variables (SolutionFromDelivery).
struct LoggedDelivery {
  std::vector<QueryId> queries;
  Binding assignment;

  friend bool operator==(const LoggedDelivery& a, const LoggedDelivery& b) {
    return a.queries == b.queries && a.assignment == b.assignment;
  }
};

std::string DeliveryLogToString(const std::vector<LoggedDelivery>& log) {
  std::ostringstream out;
  for (const LoggedDelivery& d : log) {
    out << "{";
    for (QueryId q : d.queries) out << q << ",";
    out << "} ";
  }
  return out.str();
}

/// A pool of query texts covering the interesting component shapes:
/// loners, stuck queries, mutually-entangled pairs and triangles, a
/// star (several queries waiting on one hub), and *unsafe* triples (two
/// queries whose heads both unify with a third's postcondition) that
/// can only coordinate after a cancellation makes them safe again.
std::vector<std::string> MakeQueryPool(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  int group = 0;
  size_t num_groups = 6 + rng.NextBounded(5);
  for (size_t g = 0; g < num_groups; ++g) {
    const std::string rel = "G" + std::to_string(group++);
    const std::string handle =
        "'user" + std::to_string(rng.NextBounded(8)) + "'";
    switch (rng.NextBounded(6)) {
      case 0:  // loner
        texts.push_back(rel + "solo: { } " + rel + "(s) :- Users(s, " +
                        handle + ").");
        break;
      case 1:  // stuck: postcondition nobody answers
        texts.push_back(rel + "stuck: { Nobody" + rel + "(m) } " + rel +
                        "(s) :- Users(s, " + handle + ").");
        break;
      case 2:  // pair
        texts.push_back(rel + "a: { " + rel + "(B, x) } " + rel +
                        "(A, x) :- Users(x, " + handle + ").");
        texts.push_back(rel + "b: { " + rel + "(A, y) } " + rel +
                        "(B, y) :- Users(y, " + handle + ").");
        break;
      case 3:  // triangle
        texts.push_back(rel + "a: { " + rel + "(B, x) } " + rel +
                        "(A, x) :- Users(x, " + handle + ").");
        texts.push_back(rel + "b: { " + rel + "(Cc, y) } " + rel +
                        "(B, y) :- Users(y, " + handle + ").");
        texts.push_back(rel + "c: { " + rel + "(A, z) } " + rel +
                        "(Cc, z) :- Users(z, " + handle + ").");
        break;
      case 4:  // star: two spokes waiting on one hub
        texts.push_back(rel + "hub: { } " + rel + "(Hub, h) :- Users(h, " +
                        handle + ").");
        texts.push_back(rel + "s1: { " + rel + "(Hub, x) } " + rel +
                        "(S1, x) :- Users(x, " + handle + ").");
        texts.push_back(rel + "s2: { " + rel + "(Hub, y) } " + rel +
                        "(S2, y) :- Users(y, " + handle + ").");
        break;
      default:  // unsafe triple: post of `a` matches both heads
        texts.push_back(rel + "a: { " + rel + "(B, x) } " + rel +
                        "(A, x) :- Users(x, " + handle + ").");
        texts.push_back(rel + "b1: { " + rel + "(A, y) } " + rel +
                        "(B, y) :- Users(y, " + handle + ").");
        texts.push_back(rel + "b2: { " + rel + "(A, z) } " + rel +
                        "(B, z) :- Users(z, " + handle + ").");
        break;
    }
  }
  return texts;
}

/// The randomized interleaving, engine-agnostic: submit the next pooled
/// query, cancel a pending query (picked by rank so both engines cancel
/// the same id), or flush.
struct Op {
  enum Kind { kSubmit, kCancel, kFlush } kind;
  size_t rank = 0;  // kCancel: index into the sorted pending list
};

std::vector<Op> MakeOps(uint64_t seed, size_t num_submits) {
  Rng rng(seed);
  std::vector<Op> ops;
  size_t submitted = 0;
  while (submitted < num_submits) {
    uint64_t draw = rng.NextBounded(10);
    if (draw < 7) {
      ops.push_back({Op::kSubmit, 0});
      ++submitted;
    } else if (draw < 9) {
      ops.push_back({Op::kCancel, static_cast<size_t>(rng.NextBounded(64))});
    } else {
      ops.push_back({Op::kFlush, 0});
    }
  }
  ops.push_back({Op::kFlush, 0});
  return ops;
}

struct RunResult {
  std::vector<LoggedDelivery> log;
  std::vector<QueryId> final_pending;
  uint64_t coordinating_sets = 0;
  uint64_t cancelled = 0;
};

/// Replays `ops` on `engine`: a CoordinationEngine or the
/// ReferenceCoordinator (both expose the master query set deliveries
/// are validated against).
template <typename Engine>
RunResult RunInterleaving(const Database& db, Engine* engine,
                          const std::vector<std::string>& texts,
                          const std::vector<Op>& ops) {
  RunResult run;
  engine->set_delivery_callback([&](const Delivery& delivery) {
    // Every delivery must also be independently valid (Def. 1).
    auto solution = SolutionFromDelivery(engine->queries(), delivery);
    ASSERT_TRUE(solution.ok()) << solution.status();
    EXPECT_TRUE(ValidateSolution(db, engine->queries(), *solution).ok());
    run.log.push_back(LoggedDelivery{std::move(solution->queries),
                                     std::move(solution->assignment)});
  });
  size_t next_text = 0;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kSubmit: {
        auto id = engine->Submit(texts[next_text++]);
        EXPECT_TRUE(id.ok()) << id.status();
        break;
      }
      case Op::kCancel: {
        std::vector<QueryId> pending = engine->PendingQueries();
        if (pending.empty()) break;
        engine->Cancel(pending[op.rank % pending.size()]);
        break;
      }
      case Op::kFlush:
        engine->Flush();
        break;
    }
  }
  run.final_pending = engine->PendingQueries();
  run.coordinating_sets = engine->StatsSnapshot().coordinating_sets;
  run.cancelled = engine->StatsSnapshot().cancelled;
  return run;
}

class EngineDifferential : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }
  Database db_;
};

TEST_P(EngineDifferential, IncrementalMatchesFromScratchRebuild) {
  const uint64_t seed = GetParam();
  std::vector<std::string> texts = MakeQueryPool(seed * 977);
  std::vector<Op> ops = MakeOps(seed * 131, texts.size());

  for (size_t evaluate_every : {size_t{0}, size_t{1}, size_t{3}}) {
    EngineOptions options;
    options.evaluate_every = evaluate_every;
    CoordinationEngine incremental(&db_, options);
    ReferenceCoordinator rebuild(&db_);
    rebuild.set_evaluate_every(evaluate_every);

    RunResult a = RunInterleaving(db_, &incremental, texts, ops);
    RunResult b = RunInterleaving(db_, &rebuild, texts, ops);

    EXPECT_EQ(a.log.size(), b.log.size())
        << "evaluate_every=" << evaluate_every;
    EXPECT_EQ(a.log, b.log)
        << "evaluate_every=" << evaluate_every << "\nincremental: "
        << DeliveryLogToString(a.log)
        << "\nrebuild:     " << DeliveryLogToString(b.log);
    EXPECT_EQ(a.final_pending, b.final_pending)
        << "evaluate_every=" << evaluate_every;
    EXPECT_EQ(a.coordinating_sets, b.coordinating_sets);
    EXPECT_EQ(a.cancelled, b.cancelled);
  }
}

TEST_P(EngineDifferential, ParallelFlushIsThreadCountInvariant) {
  const uint64_t seed = GetParam();
  std::vector<std::string> texts = MakeQueryPool(seed * 977);
  std::vector<Op> ops = MakeOps(seed * 131, texts.size());

  EngineOptions serial;
  serial.evaluate_every = 0;  // exercise Flush() heavily
  serial.flush_threads = 1;
  EngineOptions pooled = serial;
  pooled.flush_threads = 4;

  CoordinationEngine serial_engine(&db_, serial);
  CoordinationEngine pooled_engine(&db_, pooled);
  RunResult a = RunInterleaving(db_, &serial_engine, texts, ops);
  RunResult b = RunInterleaving(db_, &pooled_engine, texts, ops);
  EXPECT_EQ(a.log, b.log) << "1 thread:  " << DeliveryLogToString(a.log)
                          << "\n4 threads: " << DeliveryLogToString(b.log);
  EXPECT_EQ(a.final_pending, b.final_pending);
}

INSTANTIATE_TEST_SUITE_P(RandomInterleavings, EngineDifferential,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// ---------------------------------------------------------------------------
// Directed coverage of the new entry points.
// ---------------------------------------------------------------------------

class EngineIncrementalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }
  Database db_;
};

TEST_F(EngineIncrementalTest, SubmitBatchDeliversOnce) {
  CoordinationEngine engine(&db_);
  size_t deliveries = 0;
  engine.set_delivery_callback([&](const Delivery&) { ++deliveries; });
  auto ids = engine.SubmitBatch({
      "a: { R(B, x) } R(A, x) :- Users(x, 'user1').",
      "b: { R(A, y) } R(B, y) :- Users(y, 'user1').",
      "solo: { } K(w) :- Users(w, 'user5').",
  });
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids->size(), 3u);
  // The pair and the loner both coordinate during the batch's flush.
  EXPECT_EQ(deliveries, 2u);
  EXPECT_TRUE(engine.PendingQueries().empty());
  EXPECT_EQ(engine.stats().submitted, 3u);
}

TEST_F(EngineIncrementalTest, SubmitBatchIsAllOrNothing) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  auto ids = engine.SubmitBatch({
      "a: { R(B, x) } R(A, x) :- Users(x, 'user1').",
      "this is not a query",
  });
  EXPECT_FALSE(ids.ok());
  // A mid-batch parse error admits nothing: no orphaned pending
  // queries whose ids the caller never received.
  EXPECT_TRUE(engine.PendingQueries().empty());
  EXPECT_EQ(engine.stats().submitted, 0u);
}

TEST_F(EngineIncrementalTest, SubmitRejectsMultiQueryTextAtomically) {
  CoordinationEngine engine(&db_);
  auto bad = engine.Submit(
      "a: { } K(x) :- Users(x, 'user1'). b: { } K(y) :- Users(y, 'user1').");
  EXPECT_FALSE(bad.ok());
  // Neither query of the rejected text leaked into the master set.
  EXPECT_EQ(engine.queries().size(), 0u);
  EXPECT_EQ(engine.stats().submitted, 0u);
}

TEST_F(EngineIncrementalTest, CallbackReentryIsRejected) {
  CoordinationEngine engine(&db_);
  engine.set_delivery_callback([&engine](const Delivery&) {
    engine.Flush();  // illegal: deliveries must not re-enter
  });
  EXPECT_DEATH(engine.Submit("solo: { } K(w) :- Users(w, 'user5')."),
               "must not re-enter");
}

TEST_F(EngineIncrementalTest, CancelUnblocksUnsafeComponent) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  size_t deliveries = 0;
  engine.set_delivery_callback([&](const Delivery&) { ++deliveries; });
  // a's postcondition unifies with both b1's and b2's head: unsafe.
  auto a = engine.Submit("a: { U(B, x) } U(A, x) :- Users(x, 'user1').");
  auto b1 = engine.Submit("b1: { U(A, y) } U(B, y) :- Users(y, 'user1').");
  auto b2 = engine.Submit("b2: { U(A, z) } U(B, z) :- Users(z, 'user1').");
  ASSERT_TRUE(a.ok() && b1.ok() && b2.ok());
  EXPECT_EQ(engine.Flush(), 0u);
  EXPECT_EQ(engine.stats().unsafe_components, 1u);
  EXPECT_EQ(engine.ComponentOf(*a).size(), 3u);

  // Withdrawing one of the clashing heads makes the component safe
  // again; the remaining pair coordinates on the next flush.
  EXPECT_TRUE(engine.Cancel(*b2));
  EXPECT_FALSE(engine.Cancel(*b2));  // already gone
  EXPECT_EQ(engine.Flush(), 1u);
  EXPECT_EQ(deliveries, 1u);
  EXPECT_FALSE(engine.IsPending(*a));
  EXPECT_FALSE(engine.IsPending(*b1));
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST_F(EngineIncrementalTest, ComponentOfIsMaintainedIncrementally) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  auto a = engine.Submit("a: { P(B, x) } P(A, x) :- Users(x, 'user1').");
  auto b = engine.Submit("b: { Q(D, y) } Q(C, y) :- Users(y, 'user1').");
  ASSERT_TRUE(a.ok() && b.ok());
  // Distinct answer relations: separate components.
  EXPECT_EQ(engine.ComponentOf(*a), (std::vector<QueryId>{*a}));
  EXPECT_EQ(engine.ComponentOf(*b), (std::vector<QueryId>{*b}));
  // A bridge entangled with both merges them.
  auto c = engine.Submit(
      "c: { P(A, z), Q(C, w) } P(B, z), Q(D, w) :- Users(z, 'user1'), "
      "Users(w, 'user1').");
  ASSERT_TRUE(c.ok()) << c.status();
  std::vector<QueryId> expected{*a, *b, *c};
  EXPECT_EQ(engine.ComponentOf(*a), expected);
  EXPECT_EQ(engine.ComponentOf(*b), expected);
  EXPECT_EQ(engine.ComponentOf(*c), expected);
}

TEST_F(EngineIncrementalTest, FlushSkipsCleanComponents) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  // A stuck query: evaluated once, then provably still stuck.
  ASSERT_TRUE(
      engine.Submit("stuck: { Nobody(m) } W(s) :- Users(s, 'user1').").ok());
  EXPECT_EQ(engine.Flush(), 0u);
  const uint64_t evals_after_first = engine.stats().evaluations;
  EXPECT_EQ(engine.Flush(), 0u);
  // Untouched component: the second flush re-examined nothing.
  EXPECT_EQ(engine.stats().evaluations, evals_after_first);
  // The from-scratch reference re-evaluates it every time.
  ReferenceCoordinator reference(&db_);
  reference.set_evaluate_every(0);
  ASSERT_TRUE(
      reference.Submit("stuck: { Nobody(m) } W(s) :- Users(s, 'user1').")
          .ok());
  reference.Flush();
  const uint64_t ref_evals = reference.StatsSnapshot().evaluations;
  reference.Flush();
  EXPECT_GT(reference.StatsSnapshot().evaluations, ref_evals);
}

}  // namespace
}  // namespace entangled
