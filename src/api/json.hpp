#pragma once

// Minimal hand-rolled JSON value type for the experiment facade: enough to
// serialize ScenarioSpec and ExperimentResult without a new dependency.
// Objects preserve insertion order, so dumps are deterministic and diffable.
// Numbers are doubles; integers round-trip exactly up to 2^53. The number
// encoding is canonical -- semantically equal values dump identical bytes
// (negative zero prints as "0", non-finite values as null) -- because
// compact dumps double as content-addressed cache keys
// (api/result_cache.hpp).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <string>
#include <utility>
#include <vector>

namespace deproto::api {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object, Raw };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Default: null.
  Json() = default;

  static Json null() { return Json(); }
  static Json boolean(bool v);
  static Json number(double v);
  /// Integral convenience overload (counts, ids, seeds); exact up to 2^53.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  static Json number(T v) {
    return number(static_cast<double>(v));
  }
  static Json string(std::string v);
  static Json array();
  static Json object();
  /// Serialization-only splice node: dump() emits `json_text` verbatim in
  /// place of a value. The caller owns the invariant that the text is one
  /// complete canonical JSON value -- nothing validates it. This is how
  /// the dist tier forwards multi-megabyte result documents between
  /// processes (and streams series columns) without re-parsing them into
  /// trees: build the small enclosing object normally and set() the big
  /// value as raw text. Raw nodes never come out of parse(), and every
  /// typed accessor throws on them.
  static Json raw(std::string json_text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }
  [[nodiscard]] bool is_raw() const noexcept { return type_ == Type::Raw; }

  /// Typed accessors; throw JsonError when the type does not match.
  /// Exception: as_number() on null returns NaN (null is how non-finite
  /// doubles serialize), so one bad metric never aborts a whole parse.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] std::size_t as_size() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& elements() const;
  [[nodiscard]] const Object& items() const;

  /// Object lookup: `contains`, throwing `at`, and defaulted getters used
  /// by from_json so omitted keys mean "keep the default".
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  [[nodiscard]] double get_or(const std::string& key, double fallback) const;
  [[nodiscard]] bool get_or(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  /// Object mutation: sets (or replaces) `key`.
  Json& set(std::string key, Json value);
  /// Array mutation: appends.
  Json& push(Json value);

  [[nodiscard]] std::size_t size() const;

  /// Serialize. indent < 0: compact one-liner; otherwise pretty-printed
  /// with `indent` spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Parse a complete JSON document; throws JsonError with a byte offset
  /// on malformed input.
  static Json parse(const std::string& text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends the canonical JSON encoding of `v` to `out`: the bytes
/// Json::dump writes for Json::number(v). Integers below 2^53 in magnitude
/// print without a decimal point ("%.0f"), every other finite value as
/// "%.17g", -0 as "0" and non-finite values as "null". Streaming
/// serializers (dist workers emitting series columns point by point) call
/// it to produce bytes identical to a tree-built dump without a temporary
/// string per number.
void append_json_number(std::string& out, double v);

/// Population-count vectors appear in both spec and result documents;
/// shared codec so the two serializations cannot diverge.
inline Json json_from_counts(const std::vector<std::size_t>& counts) {
  Json arr = Json::array();
  for (const std::size_t c : counts) arr.push(Json::number(c));
  return arr;
}

inline std::vector<std::size_t> counts_from_json(const Json& arr) {
  std::vector<std::size_t> counts;
  counts.reserve(arr.elements().size());
  for (const Json& e : arr.elements()) counts.push_back(e.as_size());
  return counts;
}

}  // namespace deproto::api
