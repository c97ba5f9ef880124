// A minimal, dependency-free JSON value with a strict writer and a tolerant
// reader — just enough for the session journal's line format. Deliberately
// small rather than general:
//
//   * objects preserve insertion order (vector of pairs), because the
//     journal's CRC guard is computed over the serialized byte string and
//     canonical field order is what makes that reproducible;
//   * integers keep their signedness (int64 vs uint64 alternatives) so
//     tuning-parameter values round-trip exactly, including u64 values
//     above 2^53 that a double-only JSON library would corrupt;
//   * doubles serialize with 17 significant digits and parse back
//     bit-identically — warm-start resume feeds replayed costs to the
//     search technique, so any rounding would fork the proposal stream;
//   * the reader additionally accepts Infinity/-Infinity/NaN tokens (we
//     write penalty costs as explicit fields instead, but a journal edited
//     or produced by other tooling should not abort a resume).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace atf::session::json {

class value;

using array = std::vector<value>;
/// Insertion-ordered object representation; lookups are linear, which is
/// fine for journal records (tens of fields).
using object = std::vector<std::pair<std::string, value>>;

struct null_t {
  friend bool operator==(null_t, null_t) noexcept { return true; }
};

class value {
public:
  using storage = std::variant<null_t, bool, std::int64_t, std::uint64_t,
                               double, std::string, array, object>;

  value() : storage_(null_t{}) {}
  value(std::nullptr_t) : storage_(null_t{}) {}  // NOLINT(google-explicit-constructor)
  value(bool b) : storage_(b) {}                 // NOLINT(google-explicit-constructor)
  value(std::int64_t i) : storage_(i) {}         // NOLINT(google-explicit-constructor)
  value(std::uint64_t u) : storage_(u) {}        // NOLINT(google-explicit-constructor)
  value(int i) : storage_(std::int64_t{i}) {}    // NOLINT(google-explicit-constructor)
  value(double d) : storage_(d) {}               // NOLINT(google-explicit-constructor)
  value(std::string s) : storage_(std::move(s)) {}  // NOLINT(google-explicit-constructor)
  value(const char* s) : storage_(std::string(s)) {}  // NOLINT(google-explicit-constructor)
  value(array a) : storage_(std::move(a)) {}     // NOLINT(google-explicit-constructor)
  value(object o) : storage_(std::move(o)) {}    // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_null() const noexcept {
    return std::holds_alternative<null_t>(storage_);
  }
  [[nodiscard]] bool is_bool() const noexcept {
    return std::holds_alternative<bool>(storage_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(storage_);
  }
  [[nodiscard]] bool is_array() const noexcept {
    return std::holds_alternative<array>(storage_);
  }
  [[nodiscard]] bool is_object() const noexcept {
    return std::holds_alternative<object>(storage_);
  }
  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<std::int64_t>(storage_) ||
           std::holds_alternative<std::uint64_t>(storage_) ||
           std::holds_alternative<double>(storage_);
  }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(storage_); }
  [[nodiscard]] const std::string& as_string() const {
    return std::get<std::string>(storage_);
  }
  [[nodiscard]] const array& as_array() const {
    return std::get<array>(storage_);
  }
  [[nodiscard]] const object& as_object() const {
    return std::get<object>(storage_);
  }

  /// Numeric views with the usual widening; throw std::bad_variant_access
  /// on non-numbers (callers treat that as a corrupt record).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;

  [[nodiscard]] const storage& raw() const noexcept { return storage_; }

  /// Object field lookup; nullptr when absent or when this is not an object.
  [[nodiscard]] const value* find(std::string_view key) const noexcept;

  /// Appends a field (objects only; no duplicate check — the writer owns
  /// canonical field order).
  void set(std::string key, value v);

  friend bool operator==(const value& a, const value& b) {
    return a.storage_ == b.storage_;
  }

private:
  storage storage_;
};

/// Serializes compactly (no whitespace). Non-finite doubles emit as
/// Infinity/-Infinity/NaN tokens, which parse() accepts back.
[[nodiscard]] std::string serialize(const value& v);
void serialize_to(const value& v, std::string& out);

class parse_error : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so a bound keeps hostile input (a socket line of "[[[[...")
/// from exhausting the stack; real documents nest two or three levels.
inline constexpr std::size_t max_nesting_depth = 256;

/// Parses one complete JSON document; trailing garbage is an error (a
/// journal line must be exactly one object). Throws parse_error, also for
/// nesting deeper than max_nesting_depth.
[[nodiscard]] value parse(std::string_view text);

}  // namespace atf::session::json
