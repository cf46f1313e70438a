#include "core/parser.h"

#include <cctype>
#include <unordered_map>

#include "common/strings.h"

namespace entangled {
namespace {

enum class TokenKind {
  kIdent,
  kNumber,
  kString,
  kLBrace,
  kRBrace,
  kLParen,
  kRParen,
  kComma,
  kColon,
  kColonDash,
  kDot,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  int line;
  int column;
};

const char* TokenKindName(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kComma: return "','";
    case TokenKind::kColon: return "':'";
    case TokenKind::kColonDash: return "':-'";
    case TokenKind::kDot: return "'.'";
    case TokenKind::kEnd: return "end of input";
  }
  return "?";
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      char c = text_[pos_];
      int line = line_, column = column_;
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        tokens.push_back({TokenKind::kIdent, LexIdent(), line, column});
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < text_.size() &&
                  std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        tokens.push_back({TokenKind::kNumber, LexNumber(), line, column});
      } else if (c == '\'' || c == '"') {
        auto text = LexString();
        if (!text.ok()) return text.status();
        tokens.push_back({TokenKind::kString, *text, line, column});
      } else if (c == ':' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '-') {
        Advance();
        Advance();
        tokens.push_back({TokenKind::kColonDash, ":-", line, column});
      } else {
        TokenKind kind;
        switch (c) {
          case '{': kind = TokenKind::kLBrace; break;
          case '}': kind = TokenKind::kRBrace; break;
          case '(': kind = TokenKind::kLParen; break;
          case ')': kind = TokenKind::kRParen; break;
          case ',': kind = TokenKind::kComma; break;
          case ':': kind = TokenKind::kColon; break;
          case '.': kind = TokenKind::kDot; break;
          default:
            return Status::InvalidArgument("line ", line_, ":", column_,
                                           ": unexpected character '", c,
                                           "'");
        }
        Advance();
        tokens.push_back({kind, std::string(1, c), line, column});
      }
    }
    tokens.push_back({TokenKind::kEnd, "", line_, column_});
    return tokens;
  }

 private:
  void Advance() {
    if (text_[pos_] == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    ++pos_;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '%' || (c == '/' && pos_ + 1 < text_.size() &&
                              text_[pos_ + 1] == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') Advance();
      } else {
        break;
      }
    }
  }

  std::string LexIdent() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      Advance();
    }
    return text_.substr(start, pos_ - start);
  }

  std::string LexNumber() {
    size_t start = pos_;
    if (text_[pos_] == '-') Advance();
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      Advance();
    }
    return text_.substr(start, pos_ - start);
  }

  Result<std::string> LexString() {
    char quote = text_[pos_];
    int line = line_, column = column_;
    Advance();
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      if (text_[pos_] == '\n') {
        return Status::InvalidArgument("line ", line, ":", column,
                                       ": unterminated string literal");
      }
      value.push_back(text_[pos_]);
      Advance();
    }
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("line ", line, ":", column,
                                     ": unterminated string literal");
    }
    Advance();  // closing quote
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, QuerySet* set)
      : tokens_(std::move(tokens)), set_(set) {}

  Result<std::vector<QueryId>> ParseProgram() {
    std::vector<QueryId> ids;
    while (Peek().kind != TokenKind::kEnd) {
      auto id = ParseOneQuery();
      if (!id.ok()) return id.status();
      ids.push_back(*id);
    }
    return ids;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    return index < tokens_.size() ? tokens_[index] : tokens_.back();
  }
  const Token& Next() {
    const Token& token = Peek();
    if (token.kind != TokenKind::kEnd) ++pos_;
    return token;
  }
  Status Expect(TokenKind kind, const char* context) {
    const Token& token = Peek();
    if (token.kind != kind) {
      return Status::InvalidArgument(
          "line ", token.line, ":", token.column, ": expected ",
          TokenKindName(kind), " ", context, ", found ",
          TokenKindName(token.kind),
          token.text.empty() ? "" : " '" + token.text + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Result<QueryId> ParseOneQuery() {
    EntangledQuery query;
    vars_.clear();
    // Optional "name:" prefix.
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kColon) {
      query.name = Next().text;
      Next();  // ':'
    }
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kLBrace, "to open the postcondition list"));
    if (Peek().kind != TokenKind::kRBrace) {
      ENTANGLED_RETURN_IF_ERROR(
          ParseAtomList(&query.postconditions));
    }
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kRBrace, "to close the postcondition list"));
    ENTANGLED_RETURN_IF_ERROR(ParseAtomList(&query.head));
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kColonDash, "between head and body"));
    if (Peek().kind != TokenKind::kDot) {
      ENTANGLED_RETURN_IF_ERROR(ParseAtomList(&query.body));
    }
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kDot, "to terminate the query"));
    if (query.name.empty()) {
      query.name = "q" + std::to_string(set_->size());
    }
    return set_->AddQuery(std::move(query));
  }

  Status ParseAtomList(std::vector<Atom>* atoms) {
    while (true) {
      ENTANGLED_RETURN_IF_ERROR(ParseAtom(atoms));
      if (Peek().kind != TokenKind::kComma) return Status::OK();
      ++pos_;  // ','
    }
  }

  Status ParseAtom(std::vector<Atom>* atoms) {
    const Token& name = Peek();
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kIdent, "as a relation name"));
    Atom atom;
    atom.relation = name.text;
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kLParen, "after the relation name"));
    if (Peek().kind != TokenKind::kRParen) {
      while (true) {
        auto term = ParseTerm();
        if (!term.ok()) return term.status();
        atom.terms.push_back(*term);
        if (Peek().kind != TokenKind::kComma) break;
        ++pos_;  // ','
      }
    }
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kRParen, "to close the atom"));
    atoms->push_back(std::move(atom));
    return Status::OK();
  }

  Result<Term> ParseTerm() {
    const Token& token = Next();
    switch (token.kind) {
      case TokenKind::kNumber:
        return Term::Int(std::stoll(token.text));
      case TokenKind::kString:
        return Term::Str(token.text);
      case TokenKind::kIdent: {
        if (token.text == "_") {
          // Fresh anonymous variable per occurrence.
          return Term::Var(set_->NewVar("_" + std::to_string(anon_++)));
        }
        char first = token.text[0];
        if (std::islower(static_cast<unsigned char>(first))) {
          auto [it, inserted] = vars_.try_emplace(token.text, 0);
          if (inserted) it->second = set_->NewVar(token.text);
          return Term::Var(it->second);
        }
        return Term::Str(token.text);
      }
      default:
        return Status::InvalidArgument(
            "line ", token.line, ":", token.column,
            ": expected a term, found ", TokenKindName(token.kind),
            token.text.empty() ? "" : " '" + token.text + "'");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  QuerySet* set_;
  std::unordered_map<std::string, VarId> vars_;  // per-query scope
  int anon_ = 0;
};

}  // namespace

Result<std::vector<QueryId>> ParseQueries(const std::string& text,
                                          QuerySet* set) {
  ENTANGLED_CHECK(set != nullptr);
  Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), set);
  return parser.ParseProgram();
}

Result<QueryId> ParseQuery(const std::string& text, QuerySet* set) {
  ENTANGLED_CHECK(set != nullptr);
  // Parse once into a staging set: a text holding zero or several
  // queries — or one that fails mid-parse after an earlier query
  // succeeded — must not leak partial parses into `set`.  Adopting the
  // validated query reproduces the ids a direct parse would allocate
  // (QuerySet::AdoptQueries), and an empty target takes the set whole.
  QuerySet staging;
  auto ids = ParseQueries(text, &staging);
  if (!ids.ok()) return ids.status();
  if (ids->size() != 1) {
    return Status::InvalidArgument("expected exactly one query, found ",
                                   ids->size());
  }
  if (set->empty() && set->num_vars() == 0) {
    *set = std::move(staging);
    return 0;
  }
  return set->AdoptAll(staging).front();
}

}  // namespace entangled
