// Golden parse corpus: every entry of parser_golden_corpus.inc was
// recorded with an earlier parser, so a parser rewrite must reproduce
// each outcome byte for byte — query ids and names, variable ids and
// names (wildcards `_0`, `_1`, ... included), atoms, and the exact
// Status of a rejected text.
//
// Modes:
//   'M'  ParseQueries(text) into a fresh set.
//   'Q'  ParseQuery(text) into a set that already holds kPreloaded
//        (ParseQuery's adopt path, and its naming of unnamed queries).
//
// Outcomes are either "E<code> <message>" or a structural dump: the
// returned ids, the set's variable names in id order, then one line per
// query with its name and each atom as its relation plus typed terms
// (v<var>, i<int>, s<length>:<string>).  The dump never goes through
// QuerySet's renderer, so rendering changes leave it alone.

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/parser.h"

namespace entangled {
namespace {

using namespace std::string_view_literals;

struct GoldenEntry {
  char mode;
  std::string_view text;
  std::string_view outcome;
};

const GoldenEntry kCorpus[] = {
#include "parser_golden_corpus.inc"
};

const char kPreloaded[] = "pre: { P(a, _) } H(a, 3) :- D(a, 'b').";

std::string DumpTerm(const Term& term) {
  if (term.is_variable()) return "v" + std::to_string(term.var());
  const Value& value = term.constant();
  if (value.is_int()) return "i" + std::to_string(value.AsInt());
  const std::string& s = value.AsString();
  return "s" + std::to_string(s.size()) + ":" + s;
}

std::string DumpAtoms(const char* tag, const std::vector<Atom>& atoms) {
  std::string out = std::string(" ") + tag;
  for (const Atom& atom : atoms) {
    out += " " + atom.relation + "(";
    for (size_t i = 0; i < atom.terms.size(); ++i) {
      if (i > 0) out += ",";
      out += DumpTerm(atom.terms[i]);
    }
    out += ")";
  }
  return out;
}

std::string DumpSet(const QuerySet& set) {
  std::string out = "vars";
  for (VarId v = 0; v < static_cast<VarId>(set.num_vars()); ++v) {
    out += " " + set.var_name(v);
  }
  for (const EntangledQuery& q : set.queries()) {
    out += "\n" + std::to_string(q.id) + " " + q.name;
    out += DumpAtoms("P", q.postconditions);
    out += DumpAtoms("H", q.head);
    out += DumpAtoms("B", q.body);
  }
  return out;
}

std::string DumpStatus(const Status& status) {
  return "E" + std::to_string(static_cast<int>(status.code())) + " " +
         status.message();
}

std::string Outcome(char mode, const std::string& text) {
  QuerySet set;
  if (mode == 'M') {
    auto ids = ParseQueries(text, &set);
    if (!ids.ok()) return DumpStatus(ids.status());
    std::string line = "ids";
    for (QueryId id : *ids) line += " " + std::to_string(id);
    return line + "\n" + DumpSet(set);
  }
  EXPECT_TRUE(ParseQuery(kPreloaded, &set).ok());
  auto id = ParseQuery(text, &set);
  if (!id.ok()) return DumpStatus(id.status());
  return "id " + std::to_string(*id) + "\n" + DumpSet(set);
}

TEST(ParserGoldenTest, CorpusCoversBothOutcomesAndModes) {
  size_t errors = 0, parsed = 0, adopted = 0;
  for (const GoldenEntry& entry : kCorpus) {
    (entry.outcome[0] == 'E' ? errors : parsed) += 1;
    if (entry.mode == 'Q') ++adopted;
  }
  EXPECT_GE(errors + parsed, 800u);
  EXPECT_GE(errors, 300u);
  EXPECT_GE(parsed, 200u);
  EXPECT_GE(adopted, 150u);
}

TEST(ParserGoldenTest, EveryEntryMatches) {
  size_t index = 0;
  for (const GoldenEntry& entry : kCorpus) {
    ASSERT_TRUE(entry.mode == 'M' || entry.mode == 'Q') << index;
    EXPECT_EQ(Outcome(entry.mode, std::string(entry.text)), entry.outcome)
        << "corpus entry " << index << " (mode " << entry.mode
        << "): " << entry.text;
    ++index;
  }
}

}  // namespace
}  // namespace entangled
