// Golden render corpus: QuerySet's renderer must reproduce, byte for
// byte, the text recorded with an earlier renderer for every parseable
// entry of parser_golden_corpus.inc (render_golden_corpus.inc) and for
// the corner cases below.  The engine and the differential oracle share
// the renderer, so the stress harness cannot notice a changed
// rendering; these goldens can.  Every rendering must also re-parse to
// its source's structural outcome: a parsed query re-parses to itself.
//
// A text parsed in mode 'M' renders through QuerySet::ToString, one
// parsed in mode 'Q' through QueryToString (parse_golden.h has the
// modes).

#include <climits>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "parse_golden.h"

namespace entangled {
namespace {

using namespace std::string_view_literals;
using golden::GoldenEntry;
using golden::kCorpus;
using golden::Outcome;

struct RenderEntry {
  size_t corpus_index;  ///< into kCorpus
  std::string_view render;
};

const RenderEntry kRenders[] = {
#include "render_golden_corpus.inc"
};

struct CornerCase {
  char mode;
  std::string_view text;
  std::string_view render;
};

const CornerCase kCornerCases[] = {
    {'M', "{ } H(-9223372036854775808, -5) :- R(-1, x), R(x, 0)."sv,
     "q0: {} H(-9223372036854775808, -5) :- R(-1, x), R(x, 0).\n"sv},
    {'M', "big: { } H(9223372036854775807) :- R(_, -9223372036854775808)."sv,
     "big: {} H(9223372036854775807) :- R(_, -9223372036854775808).\n"sv},
    {'M', "q: { A(\"it's\", x) } H('it', x) :- R(x, _), S(_, _)."sv,
     "q: {A(\"it's\", x)} H('it', x) :- R(x, _), S(_, _).\n"sv},
    {'M', "{} H(1) :- . {} G(2) :- D(_)."sv,
     "q0: {} H(1) :- .\nq1: {} G(2) :- D(_).\n"sv},
    {'Q', "{ P(y) } H(y, \"it's\") :- ."sv,
     "q0: {P(y)} H(y, \"it's\") :- ."sv},
    {'Q', "{ } H(_, -7) :- R(_, _)."sv,
     "q0: {} H(_, -7) :- R(_, _)."sv},
    {'M', "e: { } E() :- D()."sv,
     "e: {} E() :- D().\n"sv},
};

std::string Render(char mode, const std::string& text) {
  QuerySet set;
  std::vector<QueryId> ids;
  const Status status = golden::ParseInMode(mode, text, &set, &ids);
  EXPECT_TRUE(status.ok()) << text << ": " << status.ToString();
  if (!status.ok()) return "";
  return mode == 'M' ? set.ToString() : set.QueryToString(ids[0]);
}

TEST(RenderGoldenTest, CoversEveryParseableCorpusEntry) {
  std::vector<size_t> parseable;
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    if (kCorpus[i].outcome[0] != 'E') parseable.push_back(i);
  }
  std::vector<size_t> rendered;
  for (const RenderEntry& entry : kRenders) {
    rendered.push_back(entry.corpus_index);
  }
  EXPECT_EQ(rendered, parseable);
}

TEST(RenderGoldenTest, EveryParsedEntryRendersAsRecorded) {
  for (const RenderEntry& entry : kRenders) {
    const GoldenEntry& source = kCorpus[entry.corpus_index];
    EXPECT_EQ(Render(source.mode, std::string(source.text)), entry.render)
        << "corpus entry " << entry.corpus_index << ": " << source.text;
  }
}

TEST(RenderGoldenTest, EveryRenderingReparsesToTheCorpusOutcome) {
  for (const RenderEntry& entry : kRenders) {
    const GoldenEntry& source = kCorpus[entry.corpus_index];
    const std::string rendered = Render(source.mode, std::string(source.text));
    EXPECT_EQ(Outcome(source.mode, rendered), source.outcome)
        << "corpus entry " << entry.corpus_index << " rendered as "
        << rendered;
  }
}

TEST(RenderGoldenTest, CornerCasesRenderAsRecordedAndReparse) {
  for (const CornerCase& corner : kCornerCases) {
    const std::string text(corner.text);
    const std::string rendered = Render(corner.mode, text);
    EXPECT_EQ(rendered, corner.render) << text;
    EXPECT_EQ(Outcome(corner.mode, rendered), Outcome(corner.mode, text))
        << text;
  }
}

TEST(RenderGoldenTest, BuiltQueriesWithoutNamesOrAtoms) {
  QuerySet set;
  QueryBuilder b(&set, "");
  const VarId wildcard = b.Var("_7");
  const VarId x = b.Var("x");
  b.Post("P", {Term::Var(x), Term::Str("it's")});
  b.Head("H", {Term::Int(INT64_MIN), Term::Var(wildcard)});
  const QueryId id = b.Build();
  const QueryId empty = QueryBuilder(&set, "").Build();
  EXPECT_EQ(set.QueryToString(id),
            "{P(x, \"it's\")} H(-9223372036854775808, _) :- .");
  EXPECT_EQ(set.QueryToString(empty), "{}  :- .");
  EXPECT_EQ(set.ToString(),
            "{P(x, \"it's\")} H(-9223372036854775808, _) :- .\n{}  :- .\n");
  EXPECT_EQ(set.AtomListToString({}), "{}");
  EXPECT_EQ(set.AtomListToString({}, "none"), "none");
  EXPECT_EQ(set.TermToString(Term::Var(wildcard)), "_");
}

}  // namespace
}  // namespace entangled
