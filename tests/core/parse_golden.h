// The golden parse corpus and its structural outcome format, shared by
// the parser and renderer golden tests.  Every entry of
// parser_golden_corpus.inc was recorded with an earlier parser.
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

#ifndef ENTANGLED_TESTS_CORE_PARSE_GOLDEN_H_
#define ENTANGLED_TESTS_CORE_PARSE_GOLDEN_H_

#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/parser.h"

namespace entangled {
namespace golden {

using namespace std::string_view_literals;

struct GoldenEntry {
  char mode;
  std::string_view text;
  std::string_view outcome;
};

inline const GoldenEntry kCorpus[] = {
#include "parser_golden_corpus.inc"
};

inline const char kPreloaded[] = "pre: { P(a, _) } H(a, 3) :- D(a, 'b').";

inline std::string DumpTerm(const Term& term) {
  if (term.is_variable()) return "v" + std::to_string(term.var());
  const Value& value = term.constant();
  if (value.is_int()) return "i" + std::to_string(value.AsInt());
  const std::string& s = value.AsString();
  return "s" + std::to_string(s.size()) + ":" + s;
}

inline std::string DumpAtoms(const char* tag, const std::vector<Atom>& atoms) {
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

inline std::string DumpSet(const QuerySet& set) {
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

inline std::string DumpStatus(const Status& status) {
  return "E" + std::to_string(static_cast<int>(status.code())) + " " +
         status.message();
}

/// Parses `text` in `mode` into `*set` (fresh for 'M', holding
/// kPreloaded for 'Q'); `*ids` receives the parsed ids.
inline Status ParseInMode(char mode, const std::string& text, QuerySet* set,
                          std::vector<QueryId>* ids) {
  if (mode == 'M') {
    auto parsed = ParseQueries(text, set);
    if (!parsed.ok()) return parsed.status();
    *ids = std::move(*parsed);
    return Status::OK();
  }
  EXPECT_TRUE(ParseQuery(kPreloaded, set).ok());
  auto id = ParseQuery(text, set);
  if (!id.ok()) return id.status();
  *ids = {*id};
  return Status::OK();
}

/// The recorded outcome format for parsing `text` in `mode`.
inline std::string Outcome(char mode, const std::string& text) {
  QuerySet set;
  std::vector<QueryId> ids;
  const Status status = ParseInMode(mode, text, &set, &ids);
  if (!status.ok()) return DumpStatus(status);
  std::string line = mode == 'M' ? "ids" : "id";
  for (QueryId id : ids) line += " " + std::to_string(id);
  return line + "\n" + DumpSet(set);
}

}  // namespace golden
}  // namespace entangled

#endif  // ENTANGLED_TESTS_CORE_PARSE_GOLDEN_H_
