#include "db/evaluator.h"

#include <gtest/gtest.h>

namespace entangled {
namespace {

/// Fixture with the flight/hotel data of §2.2.
class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Relation* flights = *db_.CreateRelation("F", {"id", "dest"});
    Relation* hotels = *db_.CreateRelation("H", {"id", "loc"});
    ASSERT_TRUE(flights->Insert({Value::Int(101), Value::Str("Paris")}).ok());
    ASSERT_TRUE(
        flights->Insert({Value::Int(102), Value::Str("Athens")}).ok());
    ASSERT_TRUE(
        flights->Insert({Value::Int(103), Value::Str("Zurich")}).ok());
    ASSERT_TRUE(hotels->Insert({Value::Int(201), Value::Str("Paris")}).ok());
    ASSERT_TRUE(
        hotels->Insert({Value::Int(202), Value::Str("Athens")}).ok());
  }

  Database db_;
};

TEST_F(EvaluatorTest, SingleAtomWithConstant) {
  Evaluator evaluator(&db_);
  // F(x, 'Paris')
  Atom atom("F", {Term::Var(0), Term::Str("Paris")});
  auto witness = evaluator.FindOne({atom});
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->at(0), Value::Int(101));
}

TEST_F(EvaluatorTest, UnsatisfiableConstant) {
  Evaluator evaluator(&db_);
  Atom atom("F", {Term::Var(0), Term::Str("Oslo")});
  EXPECT_FALSE(evaluator.FindOne({atom}).has_value());
  EXPECT_FALSE(evaluator.Satisfiable({atom}));
}

TEST_F(EvaluatorTest, JoinThroughSharedVariable) {
  Evaluator evaluator(&db_);
  // F(x, d), H(y, d): flight and hotel in the same city.
  std::vector<Atom> body = {
      Atom("F", {Term::Var(0), Term::Var(2)}),
      Atom("H", {Term::Var(1), Term::Var(2)}),
  };
  auto witness = evaluator.FindOne(body);
  ASSERT_TRUE(witness.has_value());
  // Whatever witness was chosen, it must satisfy the join.
  const Value& dest = witness->at(2);
  EXPECT_TRUE(dest == Value::Str("Paris") || dest == Value::Str("Athens"));
}

TEST_F(EvaluatorTest, JoinRespectsInitialBinding) {
  Evaluator evaluator(&db_);
  std::vector<Atom> body = {
      Atom("F", {Term::Var(0), Term::Var(2)}),
      Atom("H", {Term::Var(1), Term::Var(2)}),
  };
  Binding initial;
  initial.emplace(2, Value::Str("Athens"));
  auto witness = evaluator.FindOne(body, initial);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->at(0), Value::Int(102));
  EXPECT_EQ(witness->at(1), Value::Int(202));
}

TEST_F(EvaluatorTest, NoJoinPartner) {
  Evaluator evaluator(&db_);
  // Zurich has a flight but no hotel.
  std::vector<Atom> body = {
      Atom("F", {Term::Var(0), Term::Str("Zurich")}),
      Atom("H", {Term::Var(1), Term::Str("Zurich")}),
  };
  EXPECT_FALSE(evaluator.FindOne(body).has_value());
}

TEST_F(EvaluatorTest, RepeatedVariableWithinAtom) {
  Database db;
  Relation* r = *db.CreateRelation("R", {"a", "b"});
  ASSERT_TRUE(r->Insert({Value::Int(1), Value::Int(2)}).ok());
  ASSERT_TRUE(r->Insert({Value::Int(3), Value::Int(3)}).ok());
  Evaluator evaluator(&db);
  // R(x, x) must only match the (3, 3) row.
  Atom atom("R", {Term::Var(0), Term::Var(0)});
  auto witness = evaluator.FindOne({atom});
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->at(0), Value::Int(3));
}

TEST_F(EvaluatorTest, EmptyBodyIsTriviallySatisfiable) {
  Evaluator evaluator(&db_);
  auto witness = evaluator.FindOne({});
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->empty());
}

TEST_F(EvaluatorTest, GroundAtomLookup) {
  Evaluator evaluator(&db_);
  Atom present("F", {Term::Int(101), Term::Str("Paris")});
  Atom absent("F", {Term::Int(101), Term::Str("Athens")});
  EXPECT_TRUE(evaluator.Satisfiable({present}));
  EXPECT_FALSE(evaluator.Satisfiable({absent}));
}

TEST_F(EvaluatorTest, EnumerateDistinctProjectsAndDedupes) {
  Evaluator evaluator(&db_);
  // All destinations with a hotel: project the join onto d.
  std::vector<Atom> body = {
      Atom("F", {Term::Var(0), Term::Var(2)}),
      Atom("H", {Term::Var(1), Term::Var(2)}),
  };
  auto values = evaluator.EnumerateDistinct(body, {2});
  ASSERT_EQ(values.size(), 2u);
  // Distinct and complete.
  EXPECT_NE(values[0], values[1]);
}

TEST_F(EvaluatorTest, CountSolutions) {
  Evaluator evaluator(&db_);
  Atom any_flight("F", {Term::Var(0), Term::Var(1)});
  EXPECT_EQ(evaluator.CountSolutions({any_flight}), 3u);
  std::vector<Atom> cross = {
      Atom("F", {Term::Var(0), Term::Var(1)}),
      Atom("H", {Term::Var(2), Term::Var(3)}),
  };
  EXPECT_EQ(evaluator.CountSolutions(cross), 6u);
}

TEST_F(EvaluatorTest, ValidateCatchesUnknownRelationAndArity) {
  Evaluator evaluator(&db_);
  EXPECT_TRUE(evaluator.Validate({Atom("F", {Term::Var(0), Term::Var(1)})})
                  .ok());
  EXPECT_TRUE(evaluator.Validate({Atom("X", {Term::Var(0)})}).IsNotFound());
  EXPECT_TRUE(evaluator.Validate({Atom("F", {Term::Var(0)})})
                  .IsInvalidArgument());
}

// The bodies a client can submit without a schema check in front of
// the engine: `q: {} A(x) :- Nope(x).` (no relation Nope) and
// `q: {} A(x) :- F(x).` (F is binary).  Each atom matches no row, next
// to a satisfiable atom or alone, however the body is evaluated.
TEST_F(EvaluatorTest, UnknownRelationMatchesNoRow) {
  Evaluator evaluator(&db_);
  const Atom nope("Nope", {Term::Var(0)});
  const Atom flight("F", {Term::Var(0), Term::Var(1)});
  for (const std::vector<Atom>& body :
       {std::vector<Atom>{nope}, std::vector<Atom>{flight, nope},
        std::vector<Atom>{nope, flight}}) {
    EXPECT_FALSE(evaluator.FindOne(body).has_value());
    EXPECT_TRUE(evaluator.EnumerateDistinct(body, {0}).empty());
    EXPECT_EQ(evaluator.CountSolutions(body), 0u);
  }
}

TEST_F(EvaluatorTest, ArityMismatchMatchesNoRow) {
  Evaluator evaluator(&db_);
  const Atom narrow("F", {Term::Var(0)});
  const Atom wide("F", {Term::Var(0), Term::Var(1), Term::Var(2)});
  const Atom hotel("H", {Term::Var(0), Term::Var(1)});
  for (const std::vector<Atom>& body :
       {std::vector<Atom>{narrow}, std::vector<Atom>{wide},
        std::vector<Atom>{hotel, narrow}}) {
    EXPECT_FALSE(evaluator.FindOne(body).has_value());
    EXPECT_TRUE(evaluator.EnumerateDistinct(body, {0}).empty());
    EXPECT_EQ(evaluator.CountSolutions(body), 0u);
  }
  // A bound position must not probe a column the relation lacks.
  Binding bound;
  bound.emplace(2, Value::Str("Paris"));
  EXPECT_FALSE(evaluator.FindOne({wide}, bound).has_value());
}

TEST_F(EvaluatorTest, StatsCountQueries) {
  db_.stats().Reset();
  Evaluator evaluator(&db_);
  Atom atom("F", {Term::Var(0), Term::Str("Paris")});
  evaluator.FindOne({atom});
  evaluator.FindOne({atom});
  evaluator.EnumerateDistinct({atom}, {0});
  EXPECT_EQ(db_.stats().conjunctive_queries, 2u);
  EXPECT_EQ(db_.stats().enumerate_queries, 1u);
  EXPECT_EQ(db_.stats().total_queries(), 3u);
}

TEST_F(EvaluatorTest, DeterministicWitness) {
  Evaluator evaluator(&db_);
  Atom atom("F", {Term::Var(0), Term::Var(1)});
  auto first = evaluator.FindOne({atom});
  auto second = evaluator.FindOne({atom});
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->at(0), second->at(0));
}

/// The long-chain join the SCC algorithm produces for Figure 4: n
/// independent atoms over distinct variables must evaluate without
/// blowup thanks to index-backed candidate selection.
TEST_F(EvaluatorTest, ManyIndependentAtoms) {
  Database db;
  Relation* users = *db.CreateRelation("U", {"id", "handle"});
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(users
                    ->Insert({Value::Int(i),
                              Value::Str("u" + std::to_string(i))})
                    .ok());
  }
  Evaluator evaluator(&db);
  std::vector<Atom> body;
  for (int i = 0; i < 100; ++i) {
    body.emplace_back(
        "U", std::vector<Term>{Term::Var(i),
                               Term::Str("u" + std::to_string(i * 3))});
  }
  auto witness = evaluator.FindOne(body);
  ASSERT_TRUE(witness.has_value());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(witness->at(i), Value::Int(i * 3));
  }
}

}  // namespace
}  // namespace entangled
