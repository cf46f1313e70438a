// Robustness: the parser must return a Status — never crash, hang, or
// corrupt the query set — on arbitrary byte soup, on truncations of
// valid programs, and on random token streams.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/parser.h"

namespace entangled {
namespace {

const char kValidProgram[] =
    "qC: { R(G, x1) } R(C, x1), Q(C, x2) :- F(x1, x), H(x2, x).\n"
    "qG: { R(C, y1), Q(C, y2) } R(G, y1), Q(G, y2) :- F(y1, Paris).";

TEST(ParserFuzzTest, EveryPrefixOfAValidProgramIsHandled) {
  const std::string program = kValidProgram;
  for (size_t cut = 0; cut <= program.size(); ++cut) {
    QuerySet set;
    auto result = ParseQueries(program.substr(0, cut), &set);
    // Either parses (full statements only) or reports a clean error.
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsInvalidArgument()) << cut;
    }
  }
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(0xF00D);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup;
    size_t length = rng.NextBounded(80);
    for (size_t i = 0; i < length; ++i) {
      soup.push_back(static_cast<char>(32 + rng.NextBounded(95)));
    }
    QuerySet set;
    auto result = ParseQueries(soup, &set);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsInvalidArgument());
    }
  }
}

TEST(ParserFuzzTest, RandomTokenStreamsNeverCrash) {
  Rng rng(0xBEEF);
  const std::vector<std::string> tokens = {
      "{",  "}",    "(",     ")",     ",",   ":-",   ".",    ":",
      "R",  "x",    "Chris", "42",    "-7",  "'s'",  "_",    "q1",
      "%c", "\n",   "\"d\"", "Flights"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string program;
    size_t length = rng.NextBounded(30);
    for (size_t i = 0; i < length; ++i) {
      program += rng.Choice(tokens);
      program.push_back(' ');
    }
    QuerySet set;
    auto result = ParseQueries(program, &set);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsInvalidArgument());
    }
  }
}

// Whether a signed decimal digit run fits int64_t, decided on the digit
// string alone (an oracle independent of the parser's conversion).
bool FitsInt64(const std::string& run) {
  const bool negative = run[0] == '-';
  std::string digits = run.substr(negative ? 1 : 0);
  digits.erase(0, std::min(digits.find_first_not_of('0'), digits.size() - 1));
  const std::string limit =
      negative ? "9223372036854775808" : "9223372036854775807";
  return digits.size() < limit.size() ||
         (digits.size() == limit.size() && digits <= limit);
}

TEST(ParserFuzzTest, LongDigitRunsParseOrFailCleanly) {
  // Signed digit runs of up to 40 digits, spliced into valid texts:
  // one in range parses to its value, one beyond int64_t is an
  // InvalidArgument naming its position, and a run spliced at a random
  // byte offset never aborts.
  Rng rng(0xD161);
  for (int trial = 0; trial < 400; ++trial) {
    std::string run = rng.NextBool() ? "-" : "";
    const size_t length = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < length; ++i) {
      run.push_back(static_cast<char>('0' + rng.NextBounded(10)));
    }
    QuerySet set;
    auto result = ParseQuery("q: { R(G, x) } H(x, " + run + ") :- F(x).",
                             &set);
    if (FitsInt64(run)) {
      ASSERT_TRUE(result.ok()) << run << ": " << result.status();
      const Term& term = set.query(*result).head[0].terms[1];
      EXPECT_EQ(term.constant().AsInt(), std::stoll(run)) << run;
    } else {
      ASSERT_FALSE(result.ok()) << run;
      EXPECT_EQ(result.status().message(),
                "line 1:21: integer literal out of the signed 64-bit range")
          << run;
    }

    std::string spliced = kValidProgram;
    spliced.insert(rng.NextBounded(spliced.size() + 1), run);
    QuerySet scratch;
    auto any = ParseQueries(spliced, &scratch);
    if (!any.ok()) {
      EXPECT_TRUE(any.status().IsInvalidArgument()) << spliced;
    }
  }
}

TEST(ParserFuzzTest, DeeplyNestedInputStaysIterative) {
  // Long atom lists and long programs must not blow the stack.
  std::string long_list = "q: { } H(";
  for (int i = 0; i < 5000; ++i) long_list += "x" + std::to_string(i) + ",";
  long_list += "x) :- .";
  QuerySet set;
  EXPECT_TRUE(ParseQueries(long_list, &set).ok());

  std::string many_queries;
  for (int i = 0; i < 2000; ++i) {
    many_queries += "{ } H" + std::to_string(i) + "(x) :- .\n";
  }
  QuerySet set2;
  auto result = ParseQueries(many_queries, &set2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2000u);
}

}  // namespace
}  // namespace entangled
