#include "db/loader.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <system_error>

namespace entangled {
namespace {

/// Minimal cursor over the .edb text with line/column tracking.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

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

  bool AtEnd() {
    SkipWhitespaceAndComments();
    return pos_ >= text_.size();
  }

  bool Consume(char expected) {
    SkipWhitespaceAndComments();
    if (pos_ < text_.size() && text_[pos_] == expected) {
      Advance();
      return true;
    }
    return false;
  }

  Status Expect(char expected, const char* context) {
    if (Consume(expected)) return Status::OK();
    return Error(std::string("expected '") + expected + "' " + context);
  }

  Result<std::string> Identifier() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      Advance();
    }
    if (start == pos_) return Error("expected an identifier");
    return text_.substr(start, pos_ - start);
  }

  /// Parses a tuple value: integer, quoted string, or bare identifier.
  Result<Value> ParseValue() {
    SkipWhitespaceAndComments();
    if (pos_ >= text_.size()) return Error("expected a value");
    char c = text_[pos_];
    if (c == '\'' || c == '"') {
      char quote = c;
      Advance();
      std::string out;
      while (pos_ < text_.size() && text_[pos_] != quote) {
        if (text_[pos_] == '\n') return Error("unterminated string");
        out.push_back(text_[pos_]);
        Advance();
      }
      if (pos_ >= text_.size()) return Error("unterminated string");
      Advance();
      return Value::Str(std::move(out));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      const size_t start = pos_;
      const int line = line_, column = column_;
      if (c == '-') Advance();
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        Advance();
      }
      int64_t value = 0;
      const char* first = text_.data() + start;
      const char* last = text_.data() + pos_;
      const auto [end, error] = std::from_chars(first, last, value);
      if (error != std::errc() || end != last) {
        return Status::InvalidArgument(
            "line ", line, ":", column,
            ": integer literal out of the signed 64-bit range");
      }
      return Value::Int(value);
    }
    auto ident = Identifier();
    if (!ident.ok()) return ident.status();
    return Value::Str(std::move(ident).value());
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("line ", line_, ":", column_, ": ",
                                   message);
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

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
};

}  // namespace

Status LoadDatabase(const std::string& text, Database* db) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  Cursor cursor(text);
  while (!cursor.AtEnd()) {
    auto keyword = cursor.Identifier();
    if (!keyword.ok()) return keyword.status();
    if (*keyword != "relation") {
      return cursor.Error("expected the keyword 'relation', found '" +
                          *keyword + "'");
    }
    auto name = cursor.Identifier();
    if (!name.ok()) return name.status();

    ENTANGLED_RETURN_IF_ERROR(
        cursor.Expect('(', "to open the column list"));
    std::vector<std::string> columns;
    if (!cursor.Consume(')')) {
      while (true) {
        auto column = cursor.Identifier();
        if (!column.ok()) return column.status();
        columns.push_back(std::move(column).value());
        if (cursor.Consume(')')) break;
        ENTANGLED_RETURN_IF_ERROR(
            cursor.Expect(',', "between column names"));
      }
    }
    Relation* relation = db->FindMutable(*name);
    if (relation == nullptr) {
      auto created = db->CreateRelation(*name, columns);
      if (!created.ok()) return created.status();
      relation = *created;
    } else if (relation->arity() != columns.size()) {
      return cursor.Error("relation " + *name + " redeclared with arity " +
                          std::to_string(columns.size()) + " (was " +
                          std::to_string(relation->arity()) + ")");
    }

    ENTANGLED_RETURN_IF_ERROR(
        cursor.Expect('{', "to open the tuple block"));
    while (!cursor.Consume('}')) {
      ENTANGLED_RETURN_IF_ERROR(cursor.Expect('(', "to open a tuple"));
      Tuple tuple;
      if (!cursor.Consume(')')) {
        while (true) {
          auto value = cursor.ParseValue();
          if (!value.ok()) return value.status();
          tuple.push_back(std::move(value).value());
          if (cursor.Consume(')')) break;
          ENTANGLED_RETURN_IF_ERROR(
              cursor.Expect(',', "between tuple values"));
        }
      }
      if (tuple.size() != relation->arity()) {
        return cursor.Error("tuple " + TupleToString(tuple) +
                            " does not match the arity of " + *name);
      }
      ENTANGLED_RETURN_IF_ERROR(relation->Insert(std::move(tuple)));
    }
  }
  return Status::OK();
}

Status LoadDatabaseFile(const std::string& path, Database* db) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  return LoadDatabase(*text, db);
}

std::string DumpDatabase(const Database& db) {
  std::ostringstream out;
  for (const std::string& name : db.relation_names()) {
    const Relation& relation = *db.Find(name);
    out << "relation " << name << "(";
    for (size_t c = 0; c < relation.column_names().size(); ++c) {
      if (c > 0) out << ", ";
      out << relation.column_names()[c];
    }
    out << ") {\n";
    for (RowView row : relation.rows()) {
      out << "  " << TupleToString(row) << "\n";
    }
    out << "}\n";
  }
  return out.str();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    return Status::NotFound("cannot open file ", path);
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

}  // namespace entangled
