// Regressions: body atoms that print alike but differ.  The solvers used
// to drop duplicate atoms from a combined body by Atom::ToString, which
// prints values unquoted and variables as `?N`.  So `R(5, x)` and
// `R('5', x)` both printed as `R(5, ?0)`, `R(x, y)` and `R(x, '?1')`
// both as `R(?0, ?1)`, and the second atom of each pair was never
// checked.  Over a database without the second fact, every solver and
// every service then delivered a query whose body does not ground.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/generic_solver.h"
#include "algo/gupta_baseline.h"
#include "algo/scc_coordination.h"
#include "core/parser.h"
#include "core/validator.h"
#include "system/engine.h"
#include "system/sharded_engine.h"
#include "testing/reference_coordinator.h"

namespace entangled {
namespace {

/// `x` is variable 0 and `y` variable 1 in each query's own set, as in
/// the per-component subsets the engines solve.
const char* const kTwinQueries[] = {
    "q: {} A(x) :- R(5, x), R('5', x).",
    "q: {} A(x) :- R(x, y), R(x, '?1').",
};

class PrintTwinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto relation = db_.CreateRelation("R", {"a", "b"});
    ASSERT_TRUE(relation.ok()) << relation.status();
    ASSERT_TRUE((*relation)
                    ->InsertAll({{Value::Int(5), Value::Int(1)},
                                 {Value::Int(1), Value::Int(2)}})
                    .ok());
  }

  Database db_;
};

TEST_F(PrintTwinTest, SolversCheckBothAtoms) {
  for (const char* text : kTwinQueries) {
    QuerySet set;
    ASSERT_TRUE(ParseQueries(text, &set).ok()) << text;
    SccCoordinator scc(&db_);
    EXPECT_EQ(scc.Solve(set).status().code(), StatusCode::kNotFound) << text;
    GenericSolver generic(&db_);
    EXPECT_EQ(generic.FindAny(set).status().code(), StatusCode::kNotFound)
        << text;
    GuptaBaseline gupta(&db_);
    EXPECT_EQ(gupta.Solve(set).status().code(), StatusCode::kNotFound)
        << text;
  }
}

TEST_F(PrintTwinTest, StructurallyEqualAtomsStillCoordinate) {
  // The twin's satisfiable sibling: an exact duplicate is dropped, and
  // the query is delivered with x = 1.
  QuerySet set;
  ASSERT_TRUE(ParseQueries("q: {} A(x) :- R(5, x), R(5, x).", &set).ok());
  SccCoordinator scc(&db_);
  auto solution = scc.Solve(set);
  ASSERT_TRUE(solution.ok()) << solution.status();
  EXPECT_TRUE(ValidateSolution(db_, set, *solution).ok());
  EXPECT_EQ(solution->assignment.at(0), Value::Int(1));
}

TEST_F(PrintTwinTest, ServicesDeliverNothing) {
  for (const char* text : kTwinQueries) {
    CoordinationEngine engine(&db_);
    ShardedCoordinationEngine sharded(&db_);
    ReferenceCoordinator reference(&db_);
    const std::vector<CoordinationService*> services = {&engine, &sharded,
                                                        &reference};
    for (size_t i = 0; i < services.size(); ++i) {
      CoordinationService* service = services[i];
      std::vector<Delivery> delivered;
      service->set_delivery_callback(
          [&delivered](const Delivery& delivery) {
            delivered.push_back(delivery);
          });
      auto id = service->Submit(text);
      ASSERT_TRUE(id.ok()) << i << " " << text << ": " << id.status();
      service->Flush();
      EXPECT_TRUE(delivered.empty()) << i << " " << text;
      EXPECT_TRUE(service->IsPending(*id)) << i << " " << text;
    }
  }
}

}  // namespace
}  // namespace entangled
