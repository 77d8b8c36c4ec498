#include "persist/value_codec.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace caddb {
namespace persist {

namespace {

void EncodeInto(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      *out += "null";
      return;
    case Value::Kind::kInt:
      *out += "i:" + std::to_string(v.AsInt());
      return;
    case Value::Kind::kReal: {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "r:%.17g", v.AsReal());
      *out += buffer;
      return;
    }
    case Value::Kind::kBool:
      *out += v.AsBool() ? "b:1" : "b:0";
      return;
    case Value::Kind::kString:
      *out += "s:\"" + EscapeString(v.AsString()) + "\"";
      return;
    case Value::Kind::kEnum:
      *out += "e:" + v.AsString();
      return;
    case Value::Kind::kRef:
      *out += "@" + std::to_string(v.AsRef().id);
      return;
    case Value::Kind::kRecord: {
      *out += "R{";
      bool first = true;
      for (const auto& [name, field] : v.fields()) {
        if (!first) *out += ";";
        first = false;
        *out += name + "=";
        EncodeInto(field, out);
      }
      *out += "}";
      return;
    }
    case Value::Kind::kList:
    case Value::Kind::kSet: {
      *out += v.kind() == Value::Kind::kList ? "L[" : "S[";
      bool first = true;
      for (const Value& e : v.elements()) {
        if (!first) *out += ";";
        first = false;
        EncodeInto(e, out);
      }
      *out += "]";
      return;
    }
    case Value::Kind::kMatrix: {
      *out += "M[" + std::to_string(v.rows()) + "," +
              std::to_string(v.cols()) + "][";
      bool first = true;
      for (const Value& e : v.elements()) {
        if (!first) *out += ";";
        first = false;
        EncodeInto(e, out);
      }
      *out += "]";
      return;
    }
  }
}

class Decoder {
 public:
  explicit Decoder(const std::string& text) : text_(text) {}

  Result<Value> Run() {
    Result<Value> v = ParseValue();
    if (!v.ok()) return v;
    if (pos_ != text_.size()) {
      return ParseError("trailing bytes in value encoding at offset " +
                        std::to_string(pos_));
    }
    return v;
  }

 private:
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  bool ConsumePrefix(const std::string& p) {
    if (text_.compare(pos_, p.size(), p) != 0) return false;
    pos_ += p.size();
    return true;
  }

  Result<int64_t> ParseInt() {
    const char* first = text_.data() + pos_;
    int64_t v = 0;
    const auto [stop, ec] =
        std::from_chars(first, text_.data() + text_.size(), v);
    if (ec == std::errc::result_out_of_range) {
      return ParseError("integer out of range at offset " +
                        std::to_string(pos_));
    }
    if (ec != std::errc()) {
      return ParseError("expected integer at offset " + std::to_string(pos_));
    }
    pos_ += static_cast<size_t>(stop - first);
    return v;
  }

  Result<Value> ParseValue() {
    if (ConsumePrefix("null")) return Value::Null();
    if (ConsumePrefix("i:")) {
      CADDB_ASSIGN_OR_RETURN(int64_t v, ParseInt());
      return Value::Int(v);
    }
    if (ConsumePrefix("r:")) {
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != ';' && text_[pos_] != '}' &&
             text_[pos_] != ']') {
        ++pos_;
      }
      // strtod skips leading blanks and stops at junk; the whole token up
      // to the delimiter must be the number ("r:1.5abc" is an error).
      const char* first = text_.c_str() + start;
      char* end = nullptr;
      double v = std::strtod(first, &end);
      if (pos_ == start ||
          std::isspace(static_cast<unsigned char>(*first)) != 0 ||
          end != text_.c_str() + pos_) {
        return ParseError("expected real at offset " + std::to_string(start));
      }
      return Value::Real(v);
    }
    if (ConsumePrefix("b:")) {
      if (Consume('1')) return Value::Bool(true);
      if (Consume('0')) return Value::Bool(false);
      return ParseError("expected 0/1 after b:");
    }
    if (ConsumePrefix("s:\"")) {
      std::string raw;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) {
          raw.push_back(text_[pos_]);
          raw.push_back(text_[pos_ + 1]);
          pos_ += 2;
        } else {
          raw.push_back(text_[pos_++]);
        }
      }
      if (!Consume('"')) return ParseError("unterminated string");
      CADDB_ASSIGN_OR_RETURN(std::string s, UnescapeString(raw));
      return Value::String(std::move(s));
    }
    if (ConsumePrefix("e:")) {
      std::string symbol;
      while (pos_ < text_.size() && text_[pos_] != ';' && text_[pos_] != '}' &&
             text_[pos_] != ']') {
        symbol.push_back(text_[pos_++]);
      }
      if (symbol.empty()) return ParseError("empty enum symbol");
      return Value::Enum(std::move(symbol));
    }
    if (Consume('@')) {
      CADDB_ASSIGN_OR_RETURN(int64_t id, ParseInt());
      return Value::Ref(Surrogate(static_cast<uint64_t>(id)));
    }
    if (ConsumePrefix("R{")) {
      std::vector<Value::Field> fields;
      if (!Consume('}')) {
        while (true) {
          std::string name;
          while (pos_ < text_.size() && text_[pos_] != '=') {
            name.push_back(text_[pos_++]);
          }
          if (!Consume('=')) return ParseError("expected '=' in record");
          CADDB_ASSIGN_OR_RETURN(Value field, ParseValue());
          fields.emplace_back(std::move(name), std::move(field));
          if (Consume('}')) break;
          if (!Consume(';')) return ParseError("expected ';' in record");
        }
      }
      return Value::Record(std::move(fields));
    }
    if (ConsumePrefix("L[") || ConsumePrefix("S[")) {
      bool is_list = text_[pos_ - 2] == 'L';
      std::vector<Value> elements;
      if (!Consume(']')) {
        while (true) {
          CADDB_ASSIGN_OR_RETURN(Value e, ParseValue());
          elements.push_back(std::move(e));
          if (Consume(']')) break;
          if (!Consume(';')) return ParseError("expected ';' in collection");
        }
      }
      return is_list ? Value::List(std::move(elements))
                     : Value::Set(std::move(elements));
    }
    if (ConsumePrefix("M[")) {
      CADDB_ASSIGN_OR_RETURN(int64_t rows, ParseInt());
      if (!Consume(',')) return ParseError("expected ',' in matrix header");
      CADDB_ASSIGN_OR_RETURN(int64_t cols, ParseInt());
      if (!Consume(']') || !Consume('[')) {
        return ParseError("malformed matrix header");
      }
      std::vector<Value> elements;
      if (!Consume(']')) {
        while (true) {
          CADDB_ASSIGN_OR_RETURN(Value e, ParseValue());
          elements.push_back(std::move(e));
          if (Consume(']')) break;
          if (!Consume(';')) return ParseError("expected ';' in matrix");
        }
      }
      // rows * cols is never formed before both are known to be small
      // enough: the header is outside input and may overflow int64.
      if (rows < 0 || cols < 0 ||
          (cols != 0 && static_cast<uint64_t>(rows) >
                            elements.size() / static_cast<uint64_t>(cols)) ||
          static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) !=
              elements.size()) {
        return ParseError("matrix element count mismatch");
      }
      return Value::Matrix(static_cast<size_t>(rows),
                           static_cast<size_t>(cols), std::move(elements));
    }
    return ParseError("unrecognized value encoding at offset " +
                      std::to_string(pos_));
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::string EscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

Result<std::string> UnescapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    if (i + 1 >= s.size()) return ParseError("dangling escape");
    switch (s[++i]) {
      case '\\':
        out.push_back('\\');
        break;
      case '"':
        out.push_back('"');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      default:
        return ParseError("unknown escape \\" + std::string(1, s[i]));
    }
  }
  return out;
}

std::string EncodeValue(const Value& v) {
  std::string out;
  EncodeInto(v, &out);
  return out;
}

Result<Value> DecodeValue(const std::string& text) {
  return Decoder(text).Run();
}

Result<Value> DecodeCanonicalValue(const std::string& text) {
  CADDB_ASSIGN_OR_RETURN(Value value, DecodeValue(text));
  if (EncodeValue(value) != text) {
    return ParseError("value '" + text + "' is not in canonical encoding");
  }
  return value;
}

}  // namespace persist
}  // namespace caddb
