#ifndef ENTANGLED_CORE_PARSER_H_
#define ENTANGLED_CORE_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/query.h"

namespace entangled {

/// \brief Parses entangled queries written in the paper's concrete
/// syntax:
///
///     q1: { R(Chris, x) } R(Gwyneth, x) :- Flights(x, Zurich).
///     q2: { } R(Chris, y) :- Flights(y, Zurich).
///
/// Lexical rules:
///  * `name:` before the opening brace names the query (optional).
///  * Identifiers starting with a lowercase letter are variables, scoped
///    to their query (queries are standardized apart automatically);
///    a bare `_` is a fresh anonymous variable at each occurrence.
///  * Identifiers starting with an uppercase letter are string
///    constants when they appear as terms (Chris, Zurich); quoted
///    strings ('LAX' or "LAX", no escapes) and integers are constants
///    too.  An integer outside int64_t is an error.
///  * The identifier before `(` is a relation name (any case).
///  * Postconditions `{...}` and body may be empty; the head may not.
///  * `%` and `//` start comments running to end of line.
///
/// Parsed queries are appended to `*set`; the returned ids are in input
/// order.  On error, nothing useful remains in `*set` — parse into a
/// scratch set when input is untrusted.  The whole text is lexed before
/// it is parsed, so a lexical error anywhere wins over a syntax error.
/// Tokens are views into `text`, so a parse allocates little beyond
/// what the parsed queries keep in `*set`.
Result<std::vector<QueryId>> ParseQueries(const std::string& text,
                                          QuerySet* set);

/// \brief Parses exactly one query.
Result<QueryId> ParseQuery(const std::string& text, QuerySet* set);

/// \brief Texts parsed so far by this process: one per ParseQueries or
/// ParseQuery call, whether or not it succeeded.  A relaxed counter for
/// tests and benches that check how often a layered stack parses each
/// admitted text.
uint64_t ParseCount();

}  // namespace entangled

#endif  // ENTANGLED_CORE_PARSER_H_
