#include "core/validator.h"

#include <gtest/gtest.h>

#include "core/parser.h"

namespace entangled {
namespace {

/// Gwyneth/Chris fixture (§2.1): two queries, Flights(101, Zurich).
class ValidatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* flights = *db_.CreateRelation("Flights", {"id", "dest"});
    ASSERT_TRUE(
        flights->Insert({Value::Int(101), Value::Str("Zurich")}).ok());
    ASSERT_TRUE(
        flights->Insert({Value::Int(102), Value::Str("Paris")}).ok());
    auto ids = ParseQueries(
        "q1: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich).\n"
        "q2: { } R(Chris, y) :- Flights(y, Zurich).",
        &set_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    q1_ = (*ids)[0];
    q2_ = (*ids)[1];
    x_ = set_.query(q1_).head[0].terms[1].var();
    y_ = set_.query(q2_).head[0].terms[1].var();
  }

  Database db_;
  QuerySet set_;
  QueryId q1_, q2_;
  VarId x_, y_;
};

TEST_F(ValidatorTest, PairWithSharedFlightIsValid) {
  CoordinationSolution solution;
  solution.queries = {q1_, q2_};
  solution.assignment.emplace(x_, Value::Int(101));
  solution.assignment.emplace(y_, Value::Int(101));
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).ok());
}

TEST_F(ValidatorTest, DifferentFlightsViolateCondition3) {
  // q1's postcondition R(Chris, 101) has no matching grounded head when
  // Chris flies 102... but 102 goes to Paris so condition 2 fires
  // first; use two Zurich flights to isolate condition 3.
  Relation* flights = db_.FindMutable("Flights");
  ASSERT_TRUE(flights->Insert({Value::Int(103), Value::Str("Zurich")}).ok());
  CoordinationSolution solution;
  solution.queries = {q1_, q2_};
  solution.assignment.emplace(x_, Value::Int(101));
  solution.assignment.emplace(y_, Value::Int(103));
  Status status = ValidateSolution(db_, set_, solution);
  ASSERT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("condition (3)"), std::string::npos);
}

TEST_F(ValidatorTest, BodyAtomNotInDatabaseViolatesCondition2) {
  CoordinationSolution solution;
  solution.queries = {q1_, q2_};
  solution.assignment.emplace(x_, Value::Int(102));  // Paris, not Zurich
  solution.assignment.emplace(y_, Value::Int(102));
  Status status = ValidateSolution(db_, set_, solution);
  ASSERT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("condition (2)"), std::string::npos);
}

TEST_F(ValidatorTest, MissingAssignmentViolatesCondition1) {
  CoordinationSolution solution;
  solution.queries = {q1_, q2_};
  solution.assignment.emplace(x_, Value::Int(101));
  Status status = ValidateSolution(db_, set_, solution);
  ASSERT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("condition (1)"), std::string::npos);
}

TEST_F(ValidatorTest, EmptySubsetRejected) {
  CoordinationSolution solution;
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).IsInvalidArgument());
}

TEST_F(ValidatorTest, DuplicateQueryRejected) {
  CoordinationSolution solution;
  solution.queries = {q2_, q2_};
  solution.assignment.emplace(y_, Value::Int(101));
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).IsInvalidArgument());
}

TEST_F(ValidatorTest, SingletonWithoutPostconditionsIsValid) {
  CoordinationSolution solution;
  solution.queries = {q2_};
  solution.assignment.emplace(y_, Value::Int(101));
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).ok());
}

TEST_F(ValidatorTest, SingletonWithUnmetPostconditionInvalid) {
  CoordinationSolution solution;
  solution.queries = {q1_};
  solution.assignment.emplace(x_, Value::Int(101));
  // R(Chris, 101) is not among q1's own heads.
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).IsFailedPrecondition());
}

TEST_F(ValidatorTest, WitnessSearchFindsThePair) {
  auto witness = FindCoordinatingWitness(db_, set_, {q1_, q2_});
  ASSERT_TRUE(witness.has_value());
  // Whatever flight was chosen, the full solution must validate.
  CoordinationSolution solution;
  solution.queries = {q1_, q2_};
  solution.assignment = *witness;
  EXPECT_TRUE(ValidateSolution(db_, set_, solution).ok());
  EXPECT_EQ(witness->at(x_), witness->at(y_));
}

TEST_F(ValidatorTest, WitnessSearchRejectsLoneQ1) {
  EXPECT_FALSE(FindCoordinatingWitness(db_, set_, {q1_}).has_value());
  EXPECT_TRUE(FindCoordinatingWitness(db_, set_, {q2_}).has_value());
}

TEST_F(ValidatorTest, WitnessSearchFailsWhenNoFlight) {
  Database empty_db;
  ASSERT_TRUE(empty_db.CreateRelation("Flights", {"id", "dest"}).ok());
  EXPECT_FALSE(
      FindCoordinatingWitness(empty_db, set_, {q1_, q2_}).has_value());
}

TEST_F(ValidatorTest, GroundedHeadsCarryTheAnswer) {
  auto witness = FindCoordinatingWitness(db_, set_, {q1_, q2_});
  ASSERT_TRUE(witness.has_value());
  CoordinationSolution solution{{q1_, q2_}, *witness};
  std::vector<Atom> heads = solution.GroundedHeads(set_, q1_);
  ASSERT_EQ(heads.size(), 1u);
  EXPECT_EQ(heads[0].relation, "R");
  EXPECT_EQ(heads[0].terms[0], Term::Str("Gwyneth"));
  EXPECT_EQ(heads[0].terms[1], Term::Int(101));
}

TEST_F(ValidatorTest, SolutionToStringMentionsQueriesAndValues) {
  auto witness = FindCoordinatingWitness(db_, set_, {q1_, q2_});
  ASSERT_TRUE(witness.has_value());
  CoordinationSolution solution{{q1_, q2_}, *witness};
  std::string rendered = SolutionToString(set_, solution);
  EXPECT_NE(rendered.find("q1"), std::string::npos);
  EXPECT_NE(rendered.find("101"), std::string::npos);
}

/// A postcondition can be satisfied by the query's own head.
TEST(ValidatorSelfTest, SelfSatisfiedPostcondition) {
  Database db;
  Relation* d = *db.CreateRelation("D", {"v"});
  ASSERT_TRUE(d->Insert({Value::Int(1)}).ok());
  QuerySet set;
  auto id = ParseQuery("q: { H(x) } H(x) :- D(x).", &set);
  ASSERT_TRUE(id.ok());
  auto witness = FindCoordinatingWitness(db, set, {*id});
  ASSERT_TRUE(witness.has_value());
  CoordinationSolution solution{{*id}, *witness};
  EXPECT_TRUE(ValidateSolution(db, set, solution).ok());
}

/// Head-only variables may take any domain value (condition (1)).
TEST(ValidatorSelfTest, UnconstrainedHeadVariableGetsDomainValue) {
  Database db;
  Relation* d = *db.CreateRelation("D", {"v"});
  ASSERT_TRUE(d->Insert({Value::Int(7)}).ok());
  QuerySet set;
  auto id = ParseQuery("q: { } H(z) :- .", &set);
  ASSERT_TRUE(id.ok());
  auto witness = FindCoordinatingWitness(db, set, {*id});
  ASSERT_TRUE(witness.has_value());
  VarId z = set.query(*id).head[0].terms[0].var();
  EXPECT_EQ(witness->at(z), Value::Int(7));
}

/// ... but an empty database has an empty domain: condition (1) is
/// unsatisfiable for a free variable.
TEST(ValidatorSelfTest, EmptyDomainMeansNoWitness) {
  Database db;
  QuerySet set;
  auto id = ParseQuery("q: { } H(z) :- .", &set);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(FindCoordinatingWitness(db, set, {*id}).has_value());
}

/// Ground atoms are compared by structure, not by a printed key: the
/// comma-joined key of A('a', "b','c") equalled that of A("a','b", 'c').
TEST(ValidatorSelfTest, HeadWithCommasInsideStringsMatchesNoPostcondition) {
  Database db;
  Relation* r = *db.CreateRelation("R", {"a", "b"});
  ASSERT_TRUE(r->Insert({Value::Int(5), Value::Int(1)}).ok());
  QuerySet set;
  auto ids = ParseQueries(
      "q1: { A('a', \"b','c\") } H(1) :- R(5, 1).\n"
      "q2: {} A(\"a','b\", 'c') :- R(5, 1).",
      &set);
  ASSERT_TRUE(ids.ok()) << ids.status();
  CoordinationSolution solution{*ids, Binding()};
  Status status = ValidateSolution(db, set, solution);
  ASSERT_TRUE(status.IsFailedPrecondition()) << status;
  EXPECT_NE(status.message().find("condition (3)"), std::string::npos);
}

/// The condition (2) message names the missing fact as it would be
/// written: R('5', 1), not R(5, 1), which is in the database.
TEST(ValidatorSelfTest, MissingBodyFactIsQuotedInTheMessage) {
  Database db;
  Relation* r = *db.CreateRelation("R", {"a", "b"});
  ASSERT_TRUE(r->Insert({Value::Int(5), Value::Int(1)}).ok());
  QuerySet set;
  auto id = ParseQuery("q: {} A(x) :- R(5, x), R('5', x).", &set);
  ASSERT_TRUE(id.ok()) << id.status();
  CoordinationSolution solution{{*id}, Binding()};
  solution.assignment.emplace(set.query(*id).head[0].terms[0].var(),
                              Value::Int(1));
  Status status = ValidateSolution(db, set, solution);
  ASSERT_TRUE(status.IsFailedPrecondition()) << status;
  EXPECT_NE(status.message().find("condition (2)"), std::string::npos);
  EXPECT_NE(status.message().find("R('5', 1)"), std::string::npos)
      << status.message();
}

}  // namespace
}  // namespace entangled
