#include "core/parser.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <functional>
#include <new>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace entangled {
namespace {

// Character classes of the "C" locale, spelled out so the lexer's inner
// loops make no library calls.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsLower(char c) { return c >= 'a' && c <= 'z'; }
bool IsAlpha(char c) { return IsLower(c) || (c >= 'A' && c <= 'Z'); }
bool IsIdentChar(char c) { return IsAlpha(c) || IsDigit(c) || c == '_'; }

enum class TokenKind : uint8_t {
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

/// A token's `text` is a view into the parsed text: the spelling of an
/// identifier, number or punctuation mark, and the contents of a string
/// literal without its quotes.  No token owns storage.
struct Token {
  TokenKind kind;
  std::string_view text;
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

/// "<kind> '<text>'" (or just "<kind>" for empty text): how a syntax
/// error names the token it found.
std::string Describe(const Token& token) {
  std::string out = TokenKindName(token.kind);
  if (!token.text.empty()) {
    out += " '";
    out.append(token.text);
    out += "'";
  }
  return out;
}

/// The tokens of one text.  Up to kInlineTokens of them (enough for any
/// perfbench text) live inline, on the parsing thread's stack; a longer
/// text spills into one heap vector.
class TokenList {
 public:
  TokenList() = default;
  TokenList(const TokenList&) = delete;
  TokenList& operator=(const TokenList&) = delete;

  void push_back(const Token& token) {
    if (size_ == capacity_) Spill();
    new (&data_[size_++].token) Token(token);
  }
  size_t size() const { return size_; }
  const Token& operator[](size_t i) const { return data_[i].token; }

 private:
  static constexpr size_t kInlineTokens = 256;

  // A slot's token is constructed only when pushed, so a short text
  // pays for the tokens it has, not for kInlineTokens of them.
  union Slot {
    Slot() {}
    Token token;
  };

  void Spill() {
    std::vector<Slot> grown(2 * capacity_);
    std::copy(data_, data_ + size_, grown.begin());
    heap_.swap(grown);
    data_ = heap_.data();
    capacity_ = heap_.size();
  }

  Slot inline_[kInlineTokens];
  std::vector<Slot> heap_;
  Slot* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kInlineTokens;
};

/// Splits a whole text into tokens before any parsing, so a lexical
/// error anywhere in the text is the one reported, ahead of any syntax
/// error.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Status Tokenize(TokenList* tokens) {
    while (true) {
      SkipWhitespaceAndComments();
      if (pos_ >= text_.size()) break;
      const size_t start = pos_;
      const int column = Column();
      const char c = text_[pos_];
      TokenKind kind;
      if (IsAlpha(c) || c == '_') {
        kind = TokenKind::kIdent;
        ++pos_;
        while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
      } else if (IsDigit(c) || (c == '-' && pos_ + 1 < text_.size() &&
                                IsDigit(text_[pos_ + 1]))) {
        kind = TokenKind::kNumber;
        ++pos_;
        while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
      } else if (c == '\'' || c == '"') {
        size_t close = pos_ + 1;
        while (close < text_.size() && text_[close] != c &&
               text_[close] != '\n') {
          ++close;
        }
        if (close >= text_.size() || text_[close] != c) {
          return Status::InvalidArgument("line ", line_, ":", column,
                                         ": unterminated string literal");
        }
        pos_ = close + 1;
        tokens->push_back({TokenKind::kString,
                           text_.substr(start + 1, close - start - 1), line_,
                           column});
        continue;
      } else if (c == ':' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '-') {
        kind = TokenKind::kColonDash;
        pos_ += 2;
      } else {
        switch (c) {
          case '{': kind = TokenKind::kLBrace; break;
          case '}': kind = TokenKind::kRBrace; break;
          case '(': kind = TokenKind::kLParen; break;
          case ')': kind = TokenKind::kRParen; break;
          case ',': kind = TokenKind::kComma; break;
          case ':': kind = TokenKind::kColon; break;
          case '.': kind = TokenKind::kDot; break;
          default:
            return Status::InvalidArgument("line ", line_, ":", column,
                                           ": unexpected character '", c,
                                           "'");
        }
        ++pos_;
      }
      tokens->push_back(
          {kind, text_.substr(start, pos_ - start), line_, column});
    }
    tokens->push_back({TokenKind::kEnd, {}, line_, Column()});
    return Status::OK();
  }

 private:
  // Columns count bytes from 1 at the start of each line.
  int Column() const { return static_cast<int>(pos_ - line_start_ + 1); }

  // Newlines only ever occur here: comments stop before one, and a
  // string literal that reaches one is an error.
  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (IsSpace(c)) {
        ++pos_;
        if (c == '\n') {
          ++line_;
          line_start_ = pos_;
        }
      } else if (c == '%' || (c == '/' && pos_ + 1 < text_.size() &&
                              text_[pos_ + 1] == '/')) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_start_ = 0;
  int line_ = 1;
};

/// One query's variables, looked up by spelling: an open-addressed table
/// of the VarIds this query allocated, hashed on the name and compared
/// against the name the set stores.  The table starts inline and moves
/// to the heap only for a query with more than kInlineSlots / 2
/// distinct variables, so lookups stay O(1) at any size.
class VarScope {
 public:
  explicit VarScope(QuerySet* set) : set_(set) { Clear(); }
  VarScope(const VarScope&) = delete;
  VarScope& operator=(const VarScope&) = delete;

  /// Forgets every variable (the next query starts a fresh scope).
  void Clear() {
    heap_ = std::vector<VarId>();
    slots_ = inline_;
    mask_ = kInlineSlots - 1;
    size_ = 0;
    std::fill_n(slots_, kInlineSlots, kEmpty);
  }

  /// The variable spelled `name`, allocated in the set on first use.
  VarId Lookup(std::string_view name) {
    size_t i = Hash(name) & mask_;
    for (; slots_[i] != kEmpty; i = (i + 1) & mask_) {
      if (set_->var_name(slots_[i]) == name) return slots_[i];
    }
    const VarId v = set_->NewVar(std::string(name));
    slots_[i] = v;
    if (2 * ++size_ > mask_ + 1) Grow();
    return v;
  }

 private:
  static constexpr size_t kInlineSlots = 16;  // a power of two
  static constexpr VarId kEmpty = -1;

  static size_t Hash(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  void Grow() {
    std::vector<VarId> grown(2 * (mask_ + 1), kEmpty);
    const size_t mask = grown.size() - 1;
    for (size_t i = 0; i <= mask_; ++i) {
      if (slots_[i] == kEmpty) continue;
      size_t j = Hash(set_->var_name(slots_[i])) & mask;
      while (grown[j] != kEmpty) j = (j + 1) & mask;
      grown[j] = slots_[i];
    }
    heap_.swap(grown);
    slots_ = heap_.data();
    mask_ = mask;
  }

  QuerySet* set_;
  VarId inline_[kInlineSlots];
  std::vector<VarId> heap_;
  VarId* slots_ = inline_;
  size_t mask_ = kInlineSlots - 1;
  size_t size_ = 0;
};

class Parser {
 public:
  Parser(const TokenList& tokens, QuerySet* set)
      : tokens_(tokens), set_(set), scope_(set) {}

  /// Parses every query, appending their ids to `*ids` when given.
  Status ParseProgram(std::vector<QueryId>* ids) {
    while (Peek().kind != TokenKind::kEnd) {
      ENTANGLED_RETURN_IF_ERROR(ParseOneQuery(ids));
    }
    return Status::OK();
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t index = pos_ + ahead;
    return tokens_[index < tokens_.size() ? index : tokens_.size() - 1];
  }
  const Token& Next() {
    const Token& token = Peek();
    if (token.kind != TokenKind::kEnd) ++pos_;
    return token;
  }
  Status Expect(TokenKind kind, const char* context) {
    const Token& token = Peek();
    if (token.kind != kind) {
      return Status::InvalidArgument("line ", token.line, ":", token.column,
                                     ": expected ", TokenKindName(kind), " ",
                                     context, ", found ", Describe(token));
    }
    ++pos_;
    return Status::OK();
  }

  /// Atoms in the list starting at the cursor: its '(' tokens before the
  /// token that ends any atom list.  Exact for well-formed input; only a
  /// capacity hint otherwise.
  size_t CountAtoms() const {
    size_t atoms = 0;
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      switch (tokens_[i].kind) {
        case TokenKind::kLParen: ++atoms; break;
        case TokenKind::kLBrace:
        case TokenKind::kRBrace:
        case TokenKind::kColonDash:
        case TokenKind::kDot:
        case TokenKind::kEnd: return atoms;
        default: break;
      }
    }
    return atoms;
  }

  /// Terms in the term list starting at the cursor (same contract).
  size_t CountTerms() const {
    size_t terms = 0;
    for (size_t i = pos_; i < tokens_.size(); ++i) {
      const TokenKind kind = tokens_[i].kind;
      if (kind == TokenKind::kComma) continue;
      if (kind != TokenKind::kIdent && kind != TokenKind::kNumber &&
          kind != TokenKind::kString) {
        break;
      }
      ++terms;
    }
    return terms;
  }

  Status ParseOneQuery(std::vector<QueryId>* ids) {
    EntangledQuery query;
    scope_.Clear();
    // Optional "name:" prefix.
    if (Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kColon) {
      query.name = Next().text;
      Next();  // ':'
    }
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kLBrace, "to open the postcondition list"));
    if (Peek().kind != TokenKind::kRBrace) {
      ENTANGLED_RETURN_IF_ERROR(ParseAtomList(&query.postconditions));
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
    const QueryId id = set_->AddQuery(std::move(query));
    if (ids != nullptr) ids->push_back(id);
    return Status::OK();
  }

  Status ParseAtomList(std::vector<Atom>* atoms) {
    atoms->reserve(CountAtoms());
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
    ENTANGLED_RETURN_IF_ERROR(
        Expect(TokenKind::kLParen, "after the relation name"));
    Atom& atom = atoms->emplace_back();
    atom.relation = name.text;
    if (Peek().kind != TokenKind::kRParen) {
      atom.terms.reserve(CountTerms());
      while (true) {
        ENTANGLED_RETURN_IF_ERROR(ParseTerm(&atom.terms.emplace_back()));
        if (Peek().kind != TokenKind::kComma) break;
        ++pos_;  // ','
      }
    }
    return Expect(TokenKind::kRParen, "to close the atom");
  }

  Status ParseTerm(Term* term) {
    const Token& token = Next();
    switch (token.kind) {
      case TokenKind::kNumber: {
        int64_t value = 0;
        const char* last = token.text.data() + token.text.size();
        const auto [end, error] =
            std::from_chars(token.text.data(), last, value);
        if (error != std::errc() || end != last) {
          return Status::InvalidArgument(
              "line ", token.line, ":", token.column,
              ": integer literal out of the signed 64-bit range");
        }
        *term = Term::Int(value);
        return Status::OK();
      }
      case TokenKind::kString:
        *term = Term::Const(Value::Str(token.text));
        return Status::OK();
      case TokenKind::kIdent:
        if (token.text == "_") {
          // Fresh anonymous variable per occurrence.
          *term = Term::Var(set_->NewVar("_" + std::to_string(anon_++)));
        } else if (IsLower(token.text[0])) {
          *term = Term::Var(scope_.Lookup(token.text));
        } else {
          *term = Term::Const(Value::Str(token.text));
        }
        return Status::OK();
      default:
        return Status::InvalidArgument(
            "line ", token.line, ":", token.column,
            ": expected a term, found ", Describe(token));
    }
  }

  const TokenList& tokens_;
  size_t pos_ = 0;
  QuerySet* set_;
  VarScope scope_;  // per-query scope
  int anon_ = 0;
};

std::atomic<uint64_t> g_parse_count{0};

/// Parses every query of `text` into `set`; appends their ids to `*ids`
/// when given.
Status Parse(std::string_view text, QuerySet* set,
             std::vector<QueryId>* ids) {
  g_parse_count.fetch_add(1, std::memory_order_relaxed);
  TokenList tokens;
  ENTANGLED_RETURN_IF_ERROR(Lexer(text).Tokenize(&tokens));
  return Parser(tokens, set).ParseProgram(ids);
}

}  // namespace

Result<std::vector<QueryId>> ParseQueries(const std::string& text,
                                          QuerySet* set) {
  ENTANGLED_CHECK(set != nullptr);
  std::vector<QueryId> ids;
  ENTANGLED_RETURN_IF_ERROR(Parse(text, set, &ids));
  return ids;
}

Result<QueryId> ParseQuery(const std::string& text, QuerySet* set) {
  ENTANGLED_CHECK(set != nullptr);
  // Parse once into a staging set: a text holding zero or several
  // queries — or one that fails mid-parse after an earlier query
  // succeeded — must not leak partial parses into `set`.  An empty
  // target takes the staging set whole.
  QuerySet staging;
  ENTANGLED_RETURN_IF_ERROR(Parse(text, &staging, nullptr));
  if (staging.size() != 1) {
    return Status::InvalidArgument("expected exactly one query, found ",
                                   staging.size());
  }
  if (set->empty() && set->num_vars() == 0) {
    *set = std::move(staging);
    return 0;
  }
  return set->MoveQuery(&staging, 0);
}

uint64_t ParseCount() {
  return g_parse_count.load(std::memory_order_relaxed);
}

}  // namespace entangled
