// Robustness: the parser must return a Status — never crash, hang, or
// corrupt the query set — on arbitrary byte soup, on truncations of
// valid programs, on random token streams, and on mutations of the
// golden parse corpus.  The session front door's parse is the only
// parse a submitted text gets, so every text it accepts must also
// render (QuerySet::QueryToString) and re-parse to the same query.

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "../core/parse_golden.h"
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

/// Splits `text` into lexer-shaped pieces: identifier and digit runs,
/// quoted strings (to their closing quote or the end), `:-`, and single
/// bytes.  Token-level mutations drop or repeat whole pieces.
std::vector<std::string_view> Pieces(std::string_view text) {
  auto ident = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  std::vector<std::string_view> pieces;
  size_t i = 0;
  while (i < text.size()) {
    size_t end = i + 1;
    if (ident(text[i])) {
      while (end < text.size() && ident(text[end])) ++end;
    } else if (text[i] == '\'' || text[i] == '"') {
      while (end < text.size() && text[end] != text[i]) ++end;
      end = std::min(end + 1, text.size());
    } else if (text[i] == ':' && end < text.size() && text[end] == '-') {
      ++end;
    }
    pieces.push_back(text.substr(i, end - i));
    i = end;
  }
  return pieces;
}

/// One random mutation of `text`; `other` is a second corpus text for
/// splices.
std::string Mutate(Rng* rng, const std::string& text,
                   std::string_view other) {
  switch (rng->NextBounded(6)) {
    case 0: {  // byte flip: any byte value, ASCII or not
      std::string out = text;
      if (out.empty()) return out;
      out[rng->NextBounded(out.size())] =
          static_cast<char>(rng->NextBounded(256));
      return out;
    }
    case 1:    // token drop
    case 2: {  // token duplicate
      const bool drop = rng->NextBounded(2) == 0;
      const std::vector<std::string_view> pieces = Pieces(text);
      if (pieces.empty()) return text;
      const size_t at = rng->NextBounded(pieces.size());
      std::string out;
      for (size_t i = 0; i < pieces.size(); ++i) {
        if (i == at && drop) continue;
        out.append(pieces[i]);
        if (i == at) out.append(pieces[i]);
      }
      return out;
    }
    case 3:  // splice: a prefix of this text, a suffix of another
      return text.substr(0, rng->NextBounded(text.size() + 1)) +
             std::string(other.substr(rng->NextBounded(other.size() + 1)));
    case 4:  // truncation
      return text.substr(0, rng->NextBounded(text.size() + 1));
    default: {  // two texts run together (a multi-query program)
      return text + (rng->NextBool() ? "\n" : " ") + std::string(other);
    }
  }
}

/// Query `id` of `set` with its variables renumbered densely in
/// first-occurrence order and wildcard names folded to `_`: equal for
/// two parses of the same query, whichever set holds them.
std::string Canonical(const QuerySet& set, QueryId id) {
  const QuerySet alone = set.Subset({id});
  std::string out = alone.query(0).name + " vars";
  for (VarId v = 0; v < static_cast<VarId>(alone.num_vars()); ++v) {
    const std::string& name = alone.var_name(v);
    out += " " + (name[0] == '_' ? std::string("_") : name);
  }
  const EntangledQuery& q = alone.query(0);
  return out + golden::DumpAtoms("P", q.postconditions) +
         golden::DumpAtoms("H", q.head) + golden::DumpAtoms("B", q.body);
}

/// Parses `text` both ways the corpus does; a parse error must be a
/// clean InvalidArgument, and every parsed query must survive a
/// render-and-reparse round trip.  Returns the failures, one per line.
std::string CheckText(const std::string& text) {
  std::string failures;
  for (const char mode : {'M', 'Q'}) {
    QuerySet set;
    std::vector<QueryId> ids;
    const Status status = golden::ParseInMode(mode, text, &set, &ids);
    if (!status.ok()) {
      if (!status.IsInvalidArgument()) {
        failures += std::string("mode ") + mode + ": " + status.ToString() +
                    "\n";
      }
      continue;
    }
    for (QueryId id : ids) {
      const std::string rendered = set.QueryToString(id);
      QuerySet again;
      auto reparsed = ParseQuery(rendered, &again);
      if (!reparsed.ok()) {
        failures += std::string("mode ") + mode + ": rendered " + rendered +
                    " does not re-parse: " + reparsed.status().ToString() +
                    "\n";
      } else if (Canonical(again, *reparsed) != Canonical(set, id)) {
        failures += std::string("mode ") + mode + ": rendered " + rendered +
                    " re-parses as " + Canonical(again, *reparsed) +
                    ", not " + Canonical(set, id) + "\n";
      }
    }
  }
  return failures;
}

TEST(ParserFuzzTest, MutatedCorpusEntriesParseCleanlyAndRoundTrip) {
  // A fixed budget, seeded: the same texts on every run.
  constexpr int kIterations = 30000;
  Rng rng(0xC0A5);
  size_t parsed = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const golden::GoldenEntry& entry =
        golden::kCorpus[rng.NextBounded(std::size(golden::kCorpus))];
    const golden::GoldenEntry& other =
        golden::kCorpus[rng.NextBounded(std::size(golden::kCorpus))];
    std::string text(entry.text);
    const uint64_t mutations = 1 + rng.NextBounded(2);
    for (uint64_t m = 0; m < mutations; ++m) {
      text = Mutate(&rng, text, other.text);
    }
    const std::string failures = CheckText(text);
    ASSERT_TRUE(failures.empty())
        << "iteration " << iteration << ", text:\n" << text << "\n"
        << failures;
    QuerySet set;
    if (ParseQueries(text, &set).ok()) ++parsed;
  }
  // The mutations keep a good share of texts parseable, so the round
  // trip is exercised, not just the error paths.
  EXPECT_GT(parsed, static_cast<size_t>(kIterations / 20)) << parsed;
}

TEST(ParserFuzzTest, EveryCorpusEntryRoundTrips) {
  for (const golden::GoldenEntry& entry : golden::kCorpus) {
    EXPECT_EQ(CheckText(std::string(entry.text)), "") << entry.text;
  }
}

}  // namespace
}  // namespace entangled
