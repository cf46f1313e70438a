#include <gtest/gtest.h>

#include "algo/consistent.h"
#include "algo/generic_solver.h"
#include "algo/scc_coordination.h"
#include "api/session.h"
#include "core/parser.h"
#include "core/properties.h"
#include "core/validator.h"
#include "system/engine.h"
#include "workload/consistent_workloads.h"
#include "workload/entangled_workloads.h"
#include "workload/scenarios.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// Text in, coordinated answers out: the full §6.1 pipeline through the
/// session front door with a realistic mixed arrival stream, consumed
/// through the pull-based PollEvents() drain.
TEST(EndToEndTest, SessionsProcessMixedArrivalStream) {
  Database db;
  ASSERT_TRUE(InstallSocialTable(&db, "Users", 64).ok());
  CoordinationEngine engine(&db);
  SessionManager manager(&engine);

  // A lone traveller, one mutually-entangled pair, one chain of three,
  // and a query that never coordinates — each from its own session.
  // Postconditions use fresh variables (p1, p2): each chain member asks
  // the next to coordinate without demanding the *same* tuple.
  const std::vector<std::string> arrivals = {
      "solo:  { }              K(s)       :- Users(s, 'user9').",
      "pairA: { R(PB, x) }     R(PA, x)   :- Users(x, 'user1').",
      "chain1: { S(C2, p1) }   S(C1, a)   :- Users(a, 'user2').",
      "pairB: { R(PA, y) }     R(PB, y)   :- Users(y, 'user1').",
      "chain2: { S(C3, p2) }   S(C2, b)   :- Users(b, 'user3').",
      "stuck: { Nothing(n) }   S(C9, n)   :- Users(n, 'user4').",
      "chain3: { }             S(C3, c)   :- Users(c, 'user4').",
  };
  std::vector<ClientSession*> users;
  for (const std::string& text : arrivals) {
    users.push_back(manager.Open());
    SubmitOutcome outcome = users.back()->Submit(text);
    ASSERT_TRUE(outcome.ok())
        << text << ": " << RejectReasonName(outcome.reason) << " "
        << outcome.message;
  }

  // solo retires alone; the pair on pairB's arrival; the chain when
  // chain3 lands; stuck stays pending forever.  Every owner of a
  // coordinating set is notified, so the pull streams tile the log.
  size_t events = 0;
  for (ClientSession* user : users) {
    for (const SessionEvent& event : user->PollEvents()) {
      ++events;
      // Each delivered event re-validates against Definition 1.
      auto solution = SolutionFromDelivery(engine.queries(), *event.delivery);
      ASSERT_TRUE(solution.ok()) << solution.status();
      ASSERT_TRUE(ValidateSolution(db, engine.queries(), *solution).ok());
      ASSERT_EQ(event.own_queries.size(), 1u);
    }
  }
  EXPECT_EQ(events, 6u);  // six queries coordinated, one owner each
  EXPECT_EQ(manager.StatsSnapshot().coordinated_queries, 6u);
  ASSERT_EQ(manager.PendingQueries().size(), 1u);
  const QueryId stuck = manager.PendingQueries()[0];
  EXPECT_EQ(engine.queries().query(stuck).name, "stuck");
  EXPECT_EQ(manager.OwnerOf(stuck), users[5]->id());
  EXPECT_EQ(users[5]->num_pending(), 1u);
}

/// The two headline algorithms composed: a batch solved by the SCC
/// algorithm, whose leftover (unsafe) queries are the consistent
/// algorithm's turf.
TEST(EndToEndTest, PaperNarrativePipeline) {
  // Act I — §4: the band books a vacation (safe, not unique).
  Database vacation_db;
  QuerySet vacation_queries;
  FlightHotelIds ids =
      BuildFlightHotelScenario(&vacation_db, &vacation_queries);
  SccCoordinator scc(&vacation_db);
  auto vacation = scc.Solve(vacation_queries);
  ASSERT_TRUE(vacation.ok()) << vacation.status();
  EXPECT_EQ(vacation->queries,
            (std::vector<QueryId>{ids.qc, ids.qg}));

  // Act II — §5: the band catches a movie (unsafe, consistent).
  Database movie_db;
  MovieScenario movies = BuildMovieScenario(&movie_db);
  QuerySet converted;
  ConsistentConversion conversion =
      ToEntangledQueries(movies.schema, movies.queries, &converted);
  EXPECT_FALSE(IsSafeSet(converted));
  // The SCC algorithm rightly refuses ...
  SccCoordinator strict(&movie_db);
  EXPECT_TRUE(strict.Solve(converted).status().IsFailedPrecondition());
  // ... and the consistent algorithm delivers.
  ConsistentCoordinator consistent(&movie_db, movies.schema);
  auto night_out = consistent.Solve(movies.queries);
  ASSERT_TRUE(night_out.ok()) << night_out.status();
  EXPECT_EQ(night_out->agreed_value,
            (std::vector<Value>{Value::Str("Regal")}));
  // Cross-validate through the generic machinery.
  CoordinationSolution translated = ToCoordinationSolution(
      movie_db, movies.schema, movies.queries, conversion, *night_out);
  EXPECT_TRUE(ValidateSolution(movie_db, converted, translated).ok());
  // The exponential solver agrees a coordinating set exists here.
  GenericSolver generic(&movie_db);
  EXPECT_TRUE(generic.FindAny(converted).ok());
}

/// Scale sanity: the full Figure-4 configuration (82,168-row table, 100
/// queries) runs end to end in test time.
TEST(EndToEndTest, PaperScaleListWorkload) {
  Database db;
  ASSERT_TRUE(InstallSocialTable(&db, "Users", kSlashdotTableSize).ok());
  QuerySet set;
  MakeListWorkload(100, "Users", &set);
  SccCoordinator coordinator(&db);
  auto result = coordinator.Solve(set);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->queries.size(), 100u);
  EXPECT_EQ(coordinator.stats().db_queries, 100u);
  EXPECT_TRUE(ValidateSolution(db, set, *result).ok());
}

/// Scale sanity for §6.2: Figure 7's largest configuration (50 queries,
/// 1000 distinct values, complete friendships).
TEST(EndToEndTest, PaperScaleConsistentWorkload) {
  Database db;
  ASSERT_TRUE(InstallDistinctFlightsTable(&db, "Flights", 1000).ok());
  auto users = MakeUserNames(50);
  ASSERT_TRUE(InstallCompleteFriends(&db, "Friends", users).ok());
  ConsistentCoordinator coordinator(
      &db, MakeFlightSchema("Flights", "Friends"));
  auto result = coordinator.Solve(MakeWorstCaseConsistentQueries(50, 4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 50u);
  EXPECT_EQ(coordinator.stats().candidate_values, 1000u);
}

/// The concert-tour example (Example 2) exercised through both the
/// structured solver and the generic validator.
TEST(EndToEndTest, ConcertTourValidatesEndToEnd) {
  Database db;
  Rng rng(2012);
  ConcertScenario concert = BuildConcertScenario(&db, 10, &rng);
  ConsistentCoordinator coordinator(&db, concert.schema);
  auto result = coordinator.Solve(concert.queries);
  ASSERT_TRUE(result.ok()) << result.status();
  QuerySet converted;
  ConsistentConversion conversion =
      ToEntangledQueries(concert.schema, concert.queries, &converted);
  CoordinationSolution translated = ToCoordinationSolution(
      db, concert.schema, concert.queries, conversion, *result);
  EXPECT_TRUE(ValidateSolution(db, converted, translated).ok());
}

}  // namespace
}  // namespace entangled
