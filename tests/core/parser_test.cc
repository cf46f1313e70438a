#include "core/parser.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace entangled {
namespace {

TEST(ParserTest, GwynethQueryFromThePaper) {
  QuerySet set;
  auto id = ParseQuery(
      "q1: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich).", &set);
  ASSERT_TRUE(id.ok()) << id.status();
  const EntangledQuery& q = set.query(*id);
  EXPECT_EQ(q.name, "q1");
  ASSERT_EQ(q.postconditions.size(), 1u);
  ASSERT_EQ(q.head.size(), 1u);
  ASSERT_EQ(q.body.size(), 1u);
  EXPECT_EQ(q.postconditions[0].relation, "R");
  EXPECT_EQ(q.postconditions[0].terms[0], Term::Str("Chris"));
  EXPECT_TRUE(q.postconditions[0].terms[1].is_variable());
  // The same variable x is shared between postcondition and head.
  EXPECT_EQ(q.postconditions[0].terms[1], q.head[0].terms[1]);
  EXPECT_EQ(q.body[0].relation, "Flights");
  EXPECT_EQ(q.body[0].terms[1], Term::Str("Zurich"));
}

TEST(ParserTest, EmptyPostconditionsAndBody) {
  QuerySet set;
  auto id = ParseQuery("{ } R(Chris, y) :- Flights(y, Zurich).", &set);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_TRUE(set.query(*id).postconditions.empty());

  auto id2 = ParseQuery("{C(1)} R(x) :- .", &set);
  ASSERT_TRUE(id2.ok()) << id2.status();
  EXPECT_TRUE(set.query(*id2).body.empty());
}

TEST(ParserTest, DefaultNameAssigned) {
  QuerySet set;
  auto id = ParseQuery("{ } H(x) :- D(x).", &set);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(set.query(*id).name, "q0");
}

TEST(ParserTest, NumbersAndQuotedStrings) {
  QuerySet set;
  auto id = ParseQuery(
      "q: { R(1) } H(-5, 'New York', \"a b\") :- D(0).", &set);
  ASSERT_TRUE(id.ok()) << id.status();
  const EntangledQuery& q = set.query(*id);
  EXPECT_EQ(q.postconditions[0].terms[0], Term::Int(1));
  EXPECT_EQ(q.head[0].terms[0], Term::Int(-5));
  EXPECT_EQ(q.head[0].terms[1], Term::Str("New York"));
  EXPECT_EQ(q.head[0].terms[2], Term::Str("a b"));
}

TEST(ParserTest, CaseDistinguishesVariablesFromConstants) {
  QuerySet set;
  auto id = ParseQuery("q: { } H(x, Xavier, yoga) :- .", &set);
  ASSERT_TRUE(id.ok());
  const Atom& head = set.query(*id).head[0];
  EXPECT_TRUE(head.terms[0].is_variable());
  EXPECT_EQ(head.terms[1], Term::Str("Xavier"));
  EXPECT_TRUE(head.terms[2].is_variable());
}

TEST(ParserTest, AnonymousVariablesAreFreshEachTime) {
  QuerySet set;
  auto id = ParseQuery("q: { } H(_, _) :- .", &set);
  ASSERT_TRUE(id.ok());
  const Atom& head = set.query(*id).head[0];
  ASSERT_TRUE(head.terms[0].is_variable());
  ASSERT_TRUE(head.terms[1].is_variable());
  EXPECT_NE(head.terms[0].var(), head.terms[1].var());
}

TEST(ParserTest, QueriesAreStandardizedApart) {
  QuerySet set;
  auto ids = ParseQueries(
      "a: { } H(x) :- D(x).\n"
      "b: { } H(x) :- D(x).",
      &set);
  ASSERT_TRUE(ids.ok());
  VarId xa = set.query((*ids)[0]).head[0].terms[0].var();
  VarId xb = set.query((*ids)[1]).head[0].terms[0].var();
  EXPECT_NE(xa, xb);
  EXPECT_EQ(set.var_name(xa), "x");
  EXPECT_EQ(set.var_name(xb), "x");
}

TEST(ParserTest, SameVariableSharedWithinQuery) {
  QuerySet set;
  auto id = ParseQuery("q: { } H(x, x) :- D(x).", &set);
  ASSERT_TRUE(id.ok());
  const EntangledQuery& q = set.query(*id);
  EXPECT_EQ(q.head[0].terms[0], q.head[0].terms[1]);
  EXPECT_EQ(q.head[0].terms[0], q.body[0].terms[0]);
}

TEST(ParserTest, CommentsAreSkipped) {
  QuerySet set;
  auto ids = ParseQueries(
      "% leading comment\n"
      "q: { } H(x) :- D(x). // trailing comment\n"
      "% another\n",
      &set);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids->size(), 1u);
}

TEST(ParserTest, MultipleQueriesInOrder) {
  QuerySet set;
  auto ids = ParseQueries(
      "one: { } A(x) :- D(x). two: { } B(y) :- D(y). three: {} C(z) :- .",
      &set);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 3u);
  EXPECT_EQ(set.query((*ids)[0]).name, "one");
  EXPECT_EQ(set.query((*ids)[2]).name, "three");
}

TEST(ParserTest, ZeroArityAtomAllowed) {
  QuerySet set;
  auto id = ParseQuery("q: { } H() :- .", &set);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(set.query(*id).head[0].arity(), 0u);
}

TEST(ParserTest, ErrorsCarryPositions) {
  QuerySet set;
  auto missing_dot = ParseQuery("q: { } H(x) :- D(x)", &set);
  ASSERT_FALSE(missing_dot.ok());
  EXPECT_NE(missing_dot.status().message().find("line 1"),
            std::string::npos);

  auto bad_char = ParseQuery("q: { } H(x) :- D(x) & E(x).", &set);
  ASSERT_FALSE(bad_char.ok());
  EXPECT_NE(bad_char.status().message().find("unexpected character"),
            std::string::npos);
}

TEST(ParserTest, OutOfRangeIntegerLiteralIsAnError) {
  QuerySet set;
  auto result = ParseQuery("q: { } H(99999999999999999999) :- .", &set);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
  EXPECT_EQ(result.status().message(),
            "line 1:10: integer literal out of the signed 64-bit range");
  EXPECT_TRUE(set.empty());

  auto below = ParseQuery("q: { } H(\n -9223372036854775809) :- .", &set);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.status().message(),
            "line 2:2: integer literal out of the signed 64-bit range");

  auto bounds = ParseQuery(
      "q: { } H(9223372036854775807, -9223372036854775808, -0, 007) :- .",
      &set);
  ASSERT_TRUE(bounds.ok()) << bounds.status();
  const Atom& head = set.query(*bounds).head[0];
  EXPECT_EQ(head.terms[0], Term::Int(INT64_MAX));
  EXPECT_EQ(head.terms[1], Term::Int(INT64_MIN));
  EXPECT_EQ(head.terms[2], Term::Int(0));
  EXPECT_EQ(head.terms[3], Term::Int(7));
}

TEST(ParserTest, ManyDistinctVariablesKeepOneIdPerName) {
  // Enough variables to move the per-query scope off its inline table
  // and enough tokens to spill the lexer's inline token storage.
  constexpr int kVars = 150;
  std::string head, body;
  for (int i = 0; i < kVars; ++i) {
    head += (i ? ", v" : "v") + std::to_string(i);
    body += (i ? ", v" : "v") + std::to_string(kVars - 1 - i);
  }
  QuerySet set;
  auto ids = ParseQueries(
      "big: { } H(" + head + ") :- D(" + body + ").\n"
      "next: { } H(v0, v1) :- D(v1, v0).",
      &set);
  ASSERT_TRUE(ids.ok()) << ids.status();
  const EntangledQuery& big = set.query((*ids)[0]);
  ASSERT_EQ(big.head[0].arity(), static_cast<size_t>(kVars));
  for (int i = 0; i < kVars; ++i) {
    const VarId v = big.head[0].terms[static_cast<size_t>(i)].var();
    EXPECT_EQ(v, i);
    EXPECT_EQ(set.var_name(v), "v" + std::to_string(i));
    EXPECT_EQ(big.body[0].terms[static_cast<size_t>(kVars - 1 - i)].var(), v);
  }
  // The next query starts a fresh scope: its v0 and v1 are new ids.
  const EntangledQuery& next = set.query((*ids)[1]);
  EXPECT_EQ(next.head[0].terms[0].var(), kVars);
  EXPECT_EQ(next.head[0].terms[1].var(), kVars + 1);
  EXPECT_EQ(next.body[0].terms[0], next.head[0].terms[1]);
  EXPECT_EQ(set.num_vars(), static_cast<size_t>(kVars + 2));
}

TEST(ParserTest, ErrorOnMissingBrace) {
  QuerySet set;
  EXPECT_FALSE(ParseQuery("q: R(x) :- D(x).", &set).ok());
}

TEST(ParserTest, ErrorOnUnterminatedString) {
  QuerySet set;
  auto result = ParseQuery("q: { } H('oops) :- .", &set);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("unterminated"),
            std::string::npos);
}

TEST(ParserTest, ParseQueryRejectsMultiple) {
  QuerySet set;
  auto result = ParseQuery("a: {} H(x) :- . b: {} H(y) :- .", &set);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(ParserTest, ParseQueryAllocatesWhatADirectParseWould) {
  // ParseQuery parses into a staging set and adopts the result; the
  // target must end up exactly as if each text were parsed into it.
  const std::vector<std::string> texts = {
      "a: { R(B, x) } R(A, x) :- F(x, y), G(y, _).",
      "b: { } H(_, z, z) :- D(w, z), E(_).",
      "c: { P(u), Q(v) } S(v, u) :- .",
  };
  QuerySet adopted;
  QuerySet direct;
  for (const std::string& text : texts) {
    auto id = ParseQuery(text, &adopted);
    ASSERT_TRUE(id.ok()) << id.status();
    auto ids = ParseQueries(text, &direct);
    ASSERT_TRUE(ids.ok()) << ids.status();
    EXPECT_EQ(*id, ids->front());
  }
  ASSERT_EQ(adopted.num_vars(), direct.num_vars());
  for (VarId v = 0; v < static_cast<VarId>(direct.num_vars()); ++v) {
    EXPECT_EQ(adopted.var_name(v), direct.var_name(v)) << v;
  }
  for (QueryId q = 0; q < static_cast<QueryId>(direct.size()); ++q) {
    EXPECT_EQ(adopted.query(q).name, direct.query(q).name);
    EXPECT_EQ(adopted.query(q).postconditions, direct.query(q).postconditions);
    EXPECT_EQ(adopted.query(q).head, direct.query(q).head);
    EXPECT_EQ(adopted.query(q).body, direct.query(q).body);
    EXPECT_EQ(adopted.FindByName(direct.query(q).name), q);
  }
  // A rejected text leaves the target untouched.
  EXPECT_FALSE(ParseQuery("d: { } H(x) :- D(x). e: { } H(y) :- .", &adopted)
                   .ok());
  EXPECT_EQ(adopted.size(), direct.size());
  EXPECT_EQ(adopted.num_vars(), direct.num_vars());
}

TEST(ParserTest, RoundTripThroughPrinter) {
  QuerySet set;
  const std::string text =
      "qG: {R('C', y1), Q('C', y2)} R('G', y1), Q('G', y2) :- "
      "F(y1, 'Paris'), H(y2, \"Zurich's\"), S(y2, 'say \"hi\"').";
  auto id = ParseQuery(text, &set);
  ASSERT_TRUE(id.ok()) << id.status();
  // A constant holding `'` prints in `"` (the grammar has no escapes).
  std::string printed = set.QueryToString(*id);
  EXPECT_EQ(printed, text);
  // Printing and re-parsing yields a structurally identical query.
  QuerySet set2;
  auto id2 = ParseQuery(printed, &set2);
  ASSERT_TRUE(id2.ok()) << id2.status() << " printed: " << printed;
  EXPECT_EQ(set2.query(*id2).body, set.query(*id).body);
  EXPECT_EQ(set2.QueryToString(*id2), printed);
}

}  // namespace
}  // namespace entangled
