#include "atf/session/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace atf::session::json {

double value::as_double() const {
  if (const auto* i = std::get_if<std::int64_t>(&storage_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&storage_)) {
    return static_cast<double>(*u);
  }
  return std::get<double>(storage_);
}

std::int64_t value::as_int64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&storage_)) {
    return static_cast<std::int64_t>(*u);
  }
  return std::get<std::int64_t>(storage_);
}

std::uint64_t value::as_uint64() const {
  if (const auto* i = std::get_if<std::int64_t>(&storage_)) {
    return static_cast<std::uint64_t>(*i);
  }
  return std::get<std::uint64_t>(storage_);
}

const value* value::find(std::string_view key) const noexcept {
  const auto* fields = std::get_if<object>(&storage_);
  if (fields == nullptr) {
    return nullptr;
  }
  for (const auto& [name, field] : *fields) {
    if (name == key) {
      return &field;
    }
  }
  return nullptr;
}

void value::set(std::string key, value v) {
  if (!is_object()) {
    storage_ = object{};
  }
  std::get<object>(storage_).emplace_back(std::move(key), std::move(v));
}

namespace {

void escape_string(std::string_view text, std::string& out) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

void serialize_to(const value& v, std::string& out) {
  std::visit(
      [&out](const auto& x) {
        using X = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<X, null_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<X, bool>) {
          out += x ? "true" : "false";
        } else if constexpr (std::is_same_v<X, std::int64_t> ||
                             std::is_same_v<X, std::uint64_t>) {
          out += std::to_string(x);
        } else if constexpr (std::is_same_v<X, double>) {
          if (std::isnan(x)) {
            out += "NaN";
          } else if (std::isinf(x)) {
            out += x > 0 ? "Infinity" : "-Infinity";
          } else {
            char buffer[64];
            std::snprintf(buffer, sizeof(buffer), "%.17g", x);
            out += buffer;
          }
        } else if constexpr (std::is_same_v<X, std::string>) {
          escape_string(x, out);
        } else if constexpr (std::is_same_v<X, array>) {
          out += '[';
          for (std::size_t i = 0; i < x.size(); ++i) {
            if (i != 0) {
              out += ',';
            }
            serialize_to(x[i], out);
          }
          out += ']';
        } else {  // object
          out += '{';
          for (std::size_t i = 0; i < x.size(); ++i) {
            if (i != 0) {
              out += ',';
            }
            escape_string(x[i].first, out);
            out += ':';
            serialize_to(x[i].second, out);
          }
          out += '}';
        }
      },
      v.raw());
}

std::string serialize(const value& v) {
  std::string out;
  serialize_to(v, out);
  return out;
}

namespace {

class parser {
public:
  explicit parser(std::string_view text) : text_(text) {}

  value parse_document() {
    value v = parse_value();
    skip_whitespace();
    if (at_ < text_.size()) {
      fail("trailing characters after JSON document");
    }
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& why) const {
    throw parse_error("json: " + why + " at offset " + std::to_string(at_));
  }

  void skip_whitespace() {
    while (at_ < text_.size() &&
           (text_[at_] == ' ' || text_[at_] == '\t' || text_[at_] == '\n' ||
            text_[at_] == '\r')) {
      ++at_;
    }
  }

  char peek() {
    if (at_ >= text_.size()) {
      fail("unexpected end of input");
    }
    return text_[at_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++at_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(at_, literal.size()) == literal) {
      at_ += literal.size();
      return true;
    }
    return false;
  }

  value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > max_nesting_depth) {
          fail("nesting deeper than " + std::to_string(max_nesting_depth));
        }
        value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return value(parse_string());
      case 't':
        if (consume_literal("true")) {
          return value(true);
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return value(false);
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return value(nullptr);
        }
        fail("invalid literal");
      case 'N':
        if (consume_literal("NaN")) {
          return value(std::numeric_limits<double>::quiet_NaN());
        }
        fail("invalid literal");
      case 'I':
        if (consume_literal("Infinity")) {
          return value(std::numeric_limits<double>::infinity());
        }
        fail("invalid literal");
      default: return parse_number();
    }
  }

  value parse_object() {
    expect('{');
    object fields;
    skip_whitespace();
    if (peek() == '}') {
      ++at_;
      return value(std::move(fields));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      fields.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == '}') {
        ++at_;
        return value(std::move(fields));
      }
      fail("expected ',' or '}'");
    }
  }

  value parse_array() {
    expect('[');
    array items;
    skip_whitespace();
    if (peek() == ']') {
      ++at_;
      return value(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++at_;
        continue;
      }
      if (c == ']') {
        ++at_;
        return value(std::move(items));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (at_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[at_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_ >= text_.size()) {
        fail("unterminated escape");
      }
      const char e = text_[at_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (at_ + 4 > text_.size()) {
            fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[at_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // The journal only ever escapes control characters; encode the
          // code point as UTF-8 for completeness.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  value parse_number() {
    const std::size_t start = at_;
    if (peek() == '-') {
      ++at_;
      if (at_ < text_.size() && text_[at_] == 'I') {
        if (consume_literal("Infinity")) {
          return value(-std::numeric_limits<double>::infinity());
        }
        fail("invalid literal");
      }
    }
    bool is_integer = true;
    while (at_ < text_.size()) {
      const char c = text_[at_];
      if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
        ++at_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '.'/exponent syntax — strtod validates the full token below.
        is_integer = false;
        ++at_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, at_ - start));
    if (token.empty() || token == "-") {
      fail("invalid number");
    }
    if (is_integer) {
      errno = 0;
      if (token[0] == '-') {
        const long long parsed = std::strtoll(token.c_str(), nullptr, 10);
        if (errno != ERANGE) {
          return value(static_cast<std::int64_t>(parsed));
        }
      } else {
        const unsigned long long parsed =
            std::strtoull(token.c_str(), nullptr, 10);
        if (errno != ERANGE) {
          if (parsed <=
              static_cast<unsigned long long>(
                  std::numeric_limits<std::int64_t>::max())) {
            return value(static_cast<std::int64_t>(parsed));
          }
          return value(static_cast<std::uint64_t>(parsed));
        }
      }
      // Out-of-range integers fall through to the double path.
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("invalid number");
    }
    return value(parsed);
  }

  std::string_view text_;
  std::size_t at_ = 0;
  std::size_t depth_ = 0;  ///< containers open at at_
};

}  // namespace

value parse(std::string_view text) {
  return parser(text).parse_document();
}

}  // namespace atf::session::json
