#include "api/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace deproto::api {

namespace {

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  static const char* const kNames[] = {"null",   "bool",  "number", "string",
                                       "array",  "object", "raw"};
  throw JsonError(std::string("expected ") + wanted + ", got " +
                  kNames[static_cast<int>(got)]);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) +
                    ": " + message);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json::string(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json::boolean(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json::boolean(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json::null();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_codepoint(out, parse_hex4()); break;
        default: fail("bad escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int k = 0; k < 4; ++k) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') value |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return value;
  }

  void append_codepoint(std::string& out, unsigned cp) {
    // Combine a surrogate pair when the low half follows immediately.
    if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("unpaired surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      // A lone surrogate would encode to invalid UTF-8 and make the
      // re-dumped document unreadable by conforming parsers.
      fail("unpaired surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    // strtod reads the lexeme in place, without a copy per number: a
    // decimal literal never extends past the lexeme, which ends at the
    // first character outside [0-9.eE+-].
    const char* const first = text_.c_str() + start;
    const auto len = static_cast<std::ptrdiff_t>(pos_ - start);
    char* end = nullptr;
    double v = std::strtod(first, &end);
    std::ptrdiff_t parsed = end - first;
    if (parsed > len) {
      // Only a hex prefix ("0x10") or a signed inf/nan ("-inf") carries
      // strtod past the lexeme; the document's number is still just the
      // lexeme ("0", "-"), so parse that copy instead.
      const std::string lexeme(first, static_cast<std::size_t>(len));
      v = std::strtod(lexeme.c_str(), &end);
      parsed = end - lexeme.c_str();
    }
    if (parsed != len) fail("bad number");
    // strtod saturates overflowing literals ("1e999") to +-infinity; a
    // document can only mean a finite value (non-finite serializes as
    // null), so letting it through would let +inf and -inf alias under
    // the canonical encoding. Reject at the source instead.
    if (!std::isfinite(v)) fail("number out of range");
    return Json::number(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::boolean(bool v) {
  Json j;
  j.type_ = Type::Bool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.type_ = Type::Number;
  j.number_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.type_ = Type::String;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.type_ = Type::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::Object;
  return j;
}

Json Json::raw(std::string json_text) {
  Json j;
  j.type_ = Type::Raw;
  j.string_ = std::move(json_text);
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  // null is the serialized form of a non-finite double (append_json_number),
  // so a numeric read of null yields NaN instead of throwing: one NaN
  // metric degrades that field only, never a whole document.
  if (type_ == Type::Null) return std::numeric_limits<double>::quiet_NaN();
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

std::uint64_t Json::as_u64() const {
  const double v = as_number();
  // 2^64 as a double; casting anything >= it (or negative) is UB.
  if (v < 0.0 || v != std::floor(v) || v >= 18446744073709551616.0) {
    throw JsonError("expected a non-negative integer below 2^64");
  }
  return static_cast<std::uint64_t>(v);
}

std::size_t Json::as_size() const {
  return static_cast<std::size_t>(as_u64());
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Json::Array& Json::elements() const {
  if (type_ != Type::Array) type_error("array", type_);
  return array_;
}

const Json::Object& Json::items() const {
  if (type_ != Type::Object) type_error("object", type_);
  return object_;
}

bool Json::contains(const std::string& key) const {
  for (const auto& [k, v] : items()) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  for (const auto& [k, v] : items()) {
    if (k == key) return v;
  }
  throw JsonError("missing key: " + key);
}

double Json::get_or(const std::string& key, double fallback) const {
  // An explicit null reads as NaN (via as_number), NOT as the fallback:
  // null is the serialized form of NaN, and substituting a finite default
  // would make parse -> re-dump emit different bytes than the original --
  // fatal for cache replays, which must reproduce the cold run exactly.
  return contains(key) ? at(key).as_number() : fallback;
}

bool Json::get_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

std::string Json::get_or(const std::string& key,
                         const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

Json& Json::set(std::string key, Json value) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push(Json value) {
  if (type_ != Type::Array) type_error("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  type_error("array or object", type_);
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_json_number(out, number_); break;
    case Type::String: append_escaped(out, string_); break;
    // Spliced verbatim: the caller vouches that the text is one complete
    // JSON value (see Json::raw). Pretty-printing does not re-indent it.
    case Type::Raw: out += string_; break;
    case Type::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ",";
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ",";
        newline(depth + 1);
        append_escaped(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) {
  return Parser(text).run();
}

void append_json_number(std::string& out, double v) {
  // JSON has no NaN/Infinity lexemes. Throwing here would abort
  // serialization of a whole document over one bad metric, after the
  // compute that produced it is already done -- so the canonical encoding
  // maps non-finite values to null (readers see NaN back, field by field).
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];  // longest output: "-1.2345678901234567e-308" (24 chars)
  // Integers below 2^53 in magnitude print without a decimal point so ids
  // and counts stay readable and round-trip bit-exactly (the bytes "%.0f"
  // prints). -0.0 takes this branch too and prints "0": semantically
  // equal documents must dump identical bytes (they are content-addressed
  // cache keys). Everything else prints as "%.17g" does: the standard
  // specifies to_chars with general format and a precision as printf in
  // the C locale, without printf's cost.
  const bool exact_integer =
      std::abs(v) < 9007199254740992.0 &&
      static_cast<double>(static_cast<long long>(v)) == v;
  const std::to_chars_result r =
      exact_integer
          ? std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(v))
          : std::to_chars(buf, buf + sizeof(buf), v,
                          std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::Null: return true;
    case Json::Type::Bool: return a.bool_ == b.bool_;
    case Json::Type::Number: return a.number_ == b.number_;
    case Json::Type::String: return a.string_ == b.string_;
    case Json::Type::Array: return a.array_ == b.array_;
    case Json::Type::Object: return a.object_ == b.object_;
    case Json::Type::Raw: return a.string_ == b.string_;
  }
  return false;
}

}  // namespace deproto::api
