#include <gtest/gtest.h>

#include "algo/brute_force.h"
#include "algo/consistent.h"
#include "algo/scc_coordination.h"
#include "common/rng.h"
#include "core/properties.h"
#include "core/validator.h"
#include "graph/generators.h"
#include "workload/consistent_workloads.h"
#include "workload/entangled_workloads.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

/// Property: on random *safe* instances (random coordination structure,
/// some bodies unsatisfiable, some through a print-twin atom), the SCC
/// Coordination Algorithm
///  (a) finds a coordinating set iff the brute-force oracle does,
///  (b) returns only valid solutions (independent Definition-1 check),
///  (c) never exceeds the oracle's maximum size.
class SccVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SccVsBruteForce, AgreesWithOracle) {
  Rng rng(GetParam());
  Database db;
  ASSERT_TRUE(InstallSocialTable(&db, "Users", 32).ok());

  const int n = 2 + static_cast<int>(rng.NextBounded(7));  // 2..8 queries
  Digraph structure = MakeErdosRenyi(n, rng.NextDouble() * 0.5, &rng);
  QuerySet set;
  std::vector<QueryId> ids = MakeStructuredWorkload(structure, "Users", &set);
  // Poison some bodies: the handle "ghost" matches no row.
  for (QueryId id : ids) {
    if (rng.NextBool(0.25)) {
      set.mutable_query(id).body[0].terms[1] = Term::Str("ghost");
    }
  }
  // Poison others with a print-twin of the body atom Users(x, handle):
  // Users('?N', handle), N being x's id, prints like it under
  // Atom::ToString but matches no row (ids are integers).  A solver
  // that drops body atoms by their printed text never checks it.
  for (QueryId id : ids) {
    if (rng.NextBool(0.25)) {
      std::vector<Atom>& body = set.mutable_query(id).body;
      Atom twin = body[0];
      twin.terms[0] = Term::Str("?" + std::to_string(twin.terms[0].var()));
      body.push_back(std::move(twin));
    }
  }
  ASSERT_TRUE(IsSafeSet(set));

  SccCoordinator scc(&db);
  auto scc_result = scc.Solve(set);
  BruteForceSolver brute(&db);
  auto oracle_any = brute.FindAny(set);
  auto oracle_max = brute.FindMaximum(set);

  EXPECT_EQ(scc_result.ok(), oracle_any.has_value())
      << "structure:\n" << structure.ToString() << "\nqueries:\n"
      << set.ToString() << "scc: " << scc_result.status();
  if (scc_result.ok()) {
    EXPECT_TRUE(ValidateSolution(db, set, *scc_result).ok())
        << set.ToString();
    ASSERT_TRUE(oracle_max.has_value());
    EXPECT_LE(scc_result->queries.size(), oracle_max->queries.size());
    // Every discovered reachable set must itself be a coordinating set.
    for (const auto& subset : scc.successful_sets()) {
      EXPECT_TRUE(FindCoordinatingWitness(db, set, subset).has_value())
          << set.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSafeInstances, SccVsBruteForce,
                         ::testing::Range(uint64_t{1}, uint64_t{31}));

/// Property: on random A-consistent instances, the Consistent
/// Coordination Algorithm finds a set iff the brute-force oracle finds
/// one on the converted general-form queries (Proposition 1), and its
/// translated solutions always validate.
class ConsistentVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConsistentVsBruteForce, AgreesWithOracle) {
  Rng rng(GetParam() * 7919);
  Database db;
  ConsistentSchema schema = MakeFlightSchema("Flights", "Friends");
  const std::vector<std::string> destinations = {"Paris", "Rome"};
  const std::vector<std::string> days = {"d1", "d2"};
  ASSERT_TRUE(InstallFlightsGrid(&db, "Flights", destinations, days, 1,
                                 {"NYC", "SFO"}, {"AirA"})
                  .ok());
  const size_t num_users = 2 + rng.NextBounded(3);  // 2..4 users
  auto users = MakeUserNames(num_users);

  // Random sparse friendships (directed).
  Relation* friends = *db.CreateRelation("Friends", {"user", "friend"});
  for (const std::string& a : users) {
    for (const std::string& b : users) {
      if (a != b && rng.NextBool(0.6)) {
        ASSERT_TRUE(friends->Insert({Value::Str(a), Value::Str(b)}).ok());
      }
    }
  }

  // Random queries: wildcard or pinned destination/day; partner is a
  // friend variable or a random named user.
  std::vector<ConsistentQuery> queries;
  for (size_t i = 0; i < num_users; ++i) {
    ConsistentQuery q;
    q.user = users[i];
    q.self_spec.assign(4, std::nullopt);
    if (rng.NextBool(0.4)) {
      q.self_spec[0] = Value::Str(destinations[rng.NextBounded(2)]);
    }
    if (rng.NextBool(0.3)) {
      q.self_spec[1] = Value::Str(days[rng.NextBounded(2)]);
    }
    if (rng.NextBool(0.7)) {
      q.partners.push_back(PartnerSpec::AnyFriend());
    } else {
      size_t j = rng.NextBounded(num_users);
      if (j != i) q.partners.push_back(PartnerSpec::User(users[j]));
    }
    queries.push_back(std::move(q));
  }

  ConsistentCoordinator coordinator(&db, schema);
  auto result = coordinator.Solve(queries);

  QuerySet converted_set;
  ConsistentConversion conversion =
      ToEntangledQueries(schema, queries, &converted_set);
  BruteForceSolver brute(&db);
  auto oracle = brute.FindAny(converted_set);

  EXPECT_EQ(result.ok(), oracle.has_value())
      << converted_set.ToString() << "consistent: " << result.status();
  if (result.ok()) {
    CoordinationSolution translated = ToCoordinationSolution(
        db, schema, queries, conversion, *result);
    EXPECT_TRUE(ValidateSolution(db, converted_set, translated).ok())
        << converted_set.ToString();
    // No coordinating set can beat the oracle's maximum.
    auto oracle_max = brute.FindMaximum(converted_set);
    ASSERT_TRUE(oracle_max.has_value());
    EXPECT_LE(result->size(), oracle_max->queries.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConsistentInstances, ConsistentVsBruteForce,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace entangled
