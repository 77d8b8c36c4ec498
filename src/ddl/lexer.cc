#include "ddl/lexer.h"

#include <array>
#include <cctype>

#include "util/string_util.h"

namespace caddb {
namespace ddl {

namespace {

/// Hyphenated multi-word keywords of the schema language. An identifier
/// followed by '-' is extended greedily while the result remains a prefix of
/// one of these; the extension is kept only when it lands exactly on one.
constexpr std::array<const char*, 12> kHyphenKeywords = {
    "obj-type",
    "rel-type",
    "inher-rel-type",
    "inher-rel-typ",  // the paper itself uses this spelling once
    "types-of-subclasses",
    "types-of-subrels",
    "inheritor-in",
    "object-of-type",
    "set-of",
    "list-of",
    "matrix-of",
    "end-domain",
};

bool IsPrefixOfAnyKeyword(const std::string& s) {
  for (const char* kw : kHyphenKeywords) {
    std::string keyword(kw);
    if (keyword.size() >= s.size() && keyword.compare(0, s.size(), s) == 0) {
      return true;
    }
  }
  return false;
}

bool IsExactKeyword(const std::string& s) {
  for (const char* kw : kHyphenKeywords) {
    if (s == kw) return true;
  }
  return false;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

class LexerImpl {
 public:
  explicit LexerImpl(const std::string& source) : src_(source) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      CADDB_RETURN_IF_ERROR(SkipWhitespaceAndComments());
      if (AtEnd()) break;
      Result<Token> token = Next();
      if (!token.ok()) return token.status();
      out.push_back(std::move(*token));
    }
    Token eof;
    eof.kind = Token::Kind::kEndOfFile;
    eof.line = line_;
    eof.column = col_;
    out.push_back(eof);
    return out;
  }

 private:
  bool AtEnd() const { return pos_ >= src_.size(); }
  char Peek(size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char Advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  Status SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        Advance();
      } else if (c == '/' && Peek(1) == '*') {
        int start_line = line_, start_col = col_;
        Advance();
        Advance();
        while (!AtEnd() && !(Peek() == '*' && Peek(1) == '/')) Advance();
        if (AtEnd()) {
          return ParseError("unterminated comment starting at line " +
                            std::to_string(start_line) + ", column " +
                            std::to_string(start_col));
        }
        Advance();
        Advance();
      } else {
        break;
      }
    }
    return OkStatus();
  }

  /// Stamps the token with the position where it *started* (captured at the
  /// top of Next()), not the current cursor — diagnostics must point at the
  /// first character of the offending construct.
  Token Make(Token::Kind kind, std::string text) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = start_line_;
    t.column = start_col_;
    return t;
  }

  /// Reads one identifier segment; '/' is an identifier character when it
  /// sits between two identifier characters (the paper's domain `I/O`).
  std::string ReadIdentSegment() {
    std::string out;
    out.push_back(Advance());
    while (!AtEnd()) {
      char c = Peek();
      if (IsIdentChar(c)) {
        out.push_back(Advance());
      } else if (c == '/' && IsIdentChar(Peek(1))) {
        out.push_back(Advance());
        out.push_back(Advance());
      } else {
        break;
      }
    }
    return out;
  }

  Result<Token> Next() {
    start_line_ = line_;
    start_col_ = col_;
    char c = Peek();
    if (IsIdentStart(c)) {
      std::string ident = ReadIdentSegment();
      // Greedy hyphen-keyword merge with positional backtracking.
      while (Peek() == '-' && IsIdentStart(Peek(1))) {
        size_t saved_pos = pos_;
        int saved_line = line_, saved_col = col_;
        Advance();  // '-'
        std::string segment = ReadIdentSegment();
        std::string candidate = ident + "-" + segment;
        if (IsPrefixOfAnyKeyword(candidate)) {
          ident = std::move(candidate);
        } else {
          pos_ = saved_pos;
          line_ = saved_line;
          col_ = saved_col;
          break;
        }
      }
      if (ident.find('-') != std::string::npos && !IsExactKeyword(ident)) {
        return ParseError("incomplete hyphenated keyword '" + ident +
                          "' at line " + std::to_string(line_));
      }
      return Make(Token::Kind::kIdent, std::move(ident));
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::string digits;
      while (!AtEnd() &&
             std::isdigit(static_cast<unsigned char>(Peek())) != 0) {
        digits.push_back(Advance());
      }
      Result<uint64_t> number = ParseUint(digits, "number", INT64_MAX);
      if (!number.ok()) {
        return ParseError("number " + digits + " out of range at line " +
                          std::to_string(line_));
      }
      Token t = Make(Token::Kind::kNumber, digits);
      t.number = static_cast<int64_t>(*number);
      return t;
    }
    // Two-character comparison symbols first.
    if (c == '<') {
      Advance();
      if (Peek() == '=') {
        Advance();
        return Make(Token::Kind::kSymbol, "<=");
      }
      if (Peek() == '>') {
        Advance();
        return Make(Token::Kind::kSymbol, "<>");
      }
      return Make(Token::Kind::kSymbol, "<");
    }
    if (c == '>') {
      Advance();
      if (Peek() == '=') {
        Advance();
        return Make(Token::Kind::kSymbol, ">=");
      }
      return Make(Token::Kind::kSymbol, ">");
    }
    static const std::string kSingles = ";:,().#=+-*/";
    if (kSingles.find(c) != std::string::npos) {
      Advance();
      return Make(Token::Kind::kSymbol, std::string(1, c));
    }
    return ParseError("unexpected character '" + std::string(1, c) +
                      "' at line " + std::to_string(line_) + ", column " +
                      std::to_string(col_));
  }

  const std::string& src_;
  size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
  int start_line_ = 1;  // position of the token being lexed (set by Next)
  int start_col_ = 1;
};

}  // namespace

std::string Token::Describe() const {
  switch (kind) {
    case Kind::kIdent:
      return "identifier '" + text + "'";
    case Kind::kNumber:
      return "number " + text;
    case Kind::kSymbol:
      return "'" + text + "'";
    case Kind::kEndOfFile:
      return "end of input";
  }
  return "?";
}

Result<std::vector<Token>> Lex(const std::string& source) {
  return LexerImpl(source).Run();
}

}  // namespace ddl
}  // namespace caddb
