// Content coverage for the self-contained Delivery event
// (api/delivery.h): names, re-rendered texts, grounded answers, each
// participant's witness, sequence numbering, the lookup helpers, and
// the Definition-1 re-validation view (SolutionFromDelivery).

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/delivery.h"
#include "core/parser.h"
#include "core/validator.h"
#include "system/engine.h"
#include "workload/social_data.h"

namespace entangled {
namespace {

class DeliveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallSocialTable(&db_, "Users", 16).ok());
  }
  Database db_;
};

TEST_F(DeliveryTest, MaterializesEverythingAClientNeeds) {
  CoordinationEngine engine(&db_);
  std::vector<Delivery> delivered;
  engine.set_delivery_callback(
      [&](const Delivery& d) { delivered.push_back(d); });
  auto a = engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, 'user1').");
  auto b = engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user1').");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(delivered.size(), 1u);

  const Delivery& d = delivered[0];
  EXPECT_EQ(d.sequence, 0u);
  ASSERT_EQ(d.queries.size(), 2u);
  EXPECT_EQ(d.queries[0].id, *a);
  EXPECT_EQ(d.queries[0].name, "a");
  EXPECT_EQ(d.queries[1].name, "b");
  EXPECT_EQ(d.QueryIds(), (std::vector<QueryId>{*a, *b}));
  EXPECT_EQ(d.Find(*b), &d.queries[1]);
  EXPECT_EQ(d.Find(999), nullptr);

  // The texts round-trip through the parser (quoted constants,
  // lowercase variable names).
  QuerySet reparsed;
  for (const DeliveredQuery& q : d.queries) {
    EXPECT_TRUE(ParseQuery(q.text, &reparsed).ok()) << q.text;
  }

  // Grounded answers: one head atom each, fully ground, on the answer
  // relation.
  for (const DeliveredQuery& q : d.queries) {
    ASSERT_EQ(q.answers.size(), 1u);
    EXPECT_EQ(q.answers[0].relation, "R");
    EXPECT_TRUE(q.answers[0].IsGround());
  }
  // Both queries coordinate on the same value: answer terms agree.
  EXPECT_EQ(d.queries[0].answers[0].terms[1],
            d.queries[1].answers[0].terms[1]);

  // Each participant's witness binds its own variable to the value its
  // answer carries.
  ASSERT_EQ(d.queries[0].witness.size(), 1u);
  ASSERT_EQ(d.queries[1].witness.size(), 1u);
  EXPECT_EQ(d.queries[0].witness[0].first, "x");
  EXPECT_EQ(d.queries[1].witness[0].first, "y");
  EXPECT_EQ(Term::Const(d.queries[0].witness[0].second),
            d.queries[0].answers[0].terms[1]);
  EXPECT_EQ(d.queries[0].witness[0].second, d.queries[1].witness[0].second);

  // Rendering mentions both participants and qualifies witness entries.
  const std::string rendered = d.ToString();
  EXPECT_NE(rendered.find("{a, b}"), std::string::npos);
  EXPECT_NE(rendered.find("witness: {a.x = "), std::string::npos);
  EXPECT_NE(rendered.find(", b.y = "), std::string::npos);
}

TEST_F(DeliveryTest, VariableFreeParticipantHasAnEmptyWitness) {
  CoordinationEngine engine(&db_);
  std::vector<Delivery> delivered;
  engine.set_delivery_callback(
      [&](const Delivery& d) { delivered.push_back(d); });
  ASSERT_TRUE(engine.Submit("g: { R(B, 1) } R(A, 1) :- Users(1, 'user1').")
                  .ok());
  ASSERT_TRUE(
      engine.Submit("h: { R(A, y) } R(B, y) :- Users(y, 'user1').").ok());
  ASSERT_EQ(delivered.size(), 1u);
  const Delivery& d = delivered[0];
  ASSERT_EQ(d.queries.size(), 2u);
  EXPECT_TRUE(d.queries[0].witness.empty());
  ASSERT_EQ(d.queries[1].witness.size(), 1u);
  EXPECT_EQ(d.queries[1].witness[0],
            std::make_pair(std::string("y"), Value::Int(1)));
}

TEST_F(DeliveryTest, WitnessFollowsFirstOccurrenceOrder) {
  // p occurs only in a's postcondition, so it comes before the head's x
  // even though b's body is what binds it; b lists its postcondition's
  // w before its head's v.
  CoordinationEngine engine(&db_);
  std::vector<Delivery> delivered;
  engine.set_delivery_callback(
      [&](const Delivery& d) { delivered.push_back(d); });
  ASSERT_TRUE(
      engine.Submit("a: { R(B, p) } R(A, x) :- Users(x, 'user1').").ok());
  ASSERT_TRUE(engine
                  .Submit("b: { R(A, w) } R(B, v) :- Users(w, 'user1'), "
                          "Users(v, 'user2').")
                  .ok());
  ASSERT_EQ(delivered.size(), 1u);
  const Delivery& d = delivered[0];
  ASSERT_EQ(d.queries.size(), 2u);
  using Entries = std::vector<std::pair<std::string, Value>>;
  EXPECT_EQ(d.queries[0].witness,
            (Entries{{"p", Value::Int(2)}, {"x", Value::Int(1)}}));
  EXPECT_EQ(d.queries[1].witness,
            (Entries{{"w", Value::Int(1)}, {"v", Value::Int(2)}}));
}

TEST_F(DeliveryTest, WildcardEntryCarriesItsParsedName) {
  CoordinationEngine engine(&db_);
  std::vector<Delivery> delivered;
  engine.set_delivery_callback(
      [&](const Delivery& d) { delivered.push_back(d); });
  ASSERT_TRUE(engine.Submit("a: { R(B, x) } R(A, x) :- Users(x, _).").ok());
  ASSERT_TRUE(
      engine.Submit("b: { R(A, y) } R(B, y) :- Users(y, 'user3').").ok());
  ASSERT_EQ(delivered.size(), 1u);
  const DeliveredQuery& a = delivered[0].queries[0];
  using Entries = std::vector<std::pair<std::string, Value>>;
  EXPECT_EQ(a.witness,
            (Entries{{"x", Value::Int(3)}, {"_0", Value::Str("user3")}}));
  // The text keeps the wildcard a wildcard.
  EXPECT_EQ(a.text, "a: {R('B', x)} R('A', x) :- Users(x, _).");
}

TEST_F(DeliveryTest, SolutionFromDeliveryInvertsMakeDelivery) {
  QuerySet set;
  ASSERT_TRUE(
      ParseQuery("a: { R(B, x) } R(A, x) :- Users(x, 'user1').", &set).ok());
  ASSERT_TRUE(ParseQuery("k: { } K(1) :- Users(1, 'user1').", &set).ok());
  ASSERT_TRUE(
      ParseQuery("b: { R(A, y) } R(B, y) :- Users(y, _).", &set).ok());
  CoordinationSolution solution;
  solution.queries = {0, 2};
  const std::vector<VarId> a_vars = set.query(0).Variables();
  const std::vector<VarId> b_vars = set.query(2).Variables();
  ASSERT_EQ(a_vars.size(), 1u);
  ASSERT_EQ(b_vars.size(), 2u);
  solution.assignment.emplace(a_vars[0], Value::Int(1));
  solution.assignment.emplace(b_vars[0], Value::Int(1));
  solution.assignment.emplace(b_vars[1], Value::Str("user1"));
  ASSERT_TRUE(ValidateSolution(db_, set, solution).ok());

  const Delivery delivery = MakeDelivery(set, solution, /*sequence=*/7);
  auto back = SolutionFromDelivery(set, delivery);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->queries, solution.queries);
  EXPECT_EQ(back->assignment, solution.assignment);
  EXPECT_TRUE(ValidateSolution(db_, set, *back).ok());

  // Unknown participants and miscounted witnesses are errors, not
  // aborts.
  for (QueryId unknown : {QueryId{3}, QueryId{-1}}) {
    Delivery bad = delivery;
    bad.queries[1].id = unknown;
    auto result = SolutionFromDelivery(set, bad);
    ASSERT_FALSE(result.ok()) << unknown;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << unknown;
  }
  Delivery short_witness = delivery;
  short_witness.queries[1].witness.pop_back();
  EXPECT_TRUE(
      SolutionFromDelivery(set, short_witness).status().IsInvalidArgument());
  Delivery long_witness = delivery;
  long_witness.queries[0].witness.emplace_back("extra", Value::Int(0));
  EXPECT_TRUE(
      SolutionFromDelivery(set, long_witness).status().IsInvalidArgument());
}

TEST_F(DeliveryTest, SequenceNumbersTheDeliveryStream) {
  EngineOptions options;
  options.evaluate_every = 0;
  CoordinationEngine engine(&db_, options);
  std::vector<uint64_t> sequences;
  engine.set_delivery_callback(
      [&](const Delivery& d) { sequences.push_back(d.sequence); });
  ASSERT_TRUE(engine.Submit("s1: { } K(w) :- Users(w, 'user5').").ok());
  ASSERT_TRUE(engine.Submit("s2: { } L(w) :- Users(w, 'user6').").ok());
  ASSERT_TRUE(engine.Submit("s3: { } M(w) :- Users(w, 'user7').").ok());
  EXPECT_EQ(engine.Flush(), 3u);
  EXPECT_EQ(sequences, (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(DeliveryTest, SequenceAdvancesEvenWithoutAListener) {
  CoordinationEngine engine(&db_);
  // First delivery happens unobserved...
  ASSERT_TRUE(engine.Submit("s1: { } K(w) :- Users(w, 'user5').").ok());
  // ...the next observer still sees the true stream position.
  std::vector<uint64_t> sequences;
  engine.set_delivery_callback(
      [&](const Delivery& d) { sequences.push_back(d.sequence); });
  ASSERT_TRUE(engine.Submit("s2: { } L(w) :- Users(w, 'user6').").ok());
  EXPECT_EQ(sequences, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace entangled
