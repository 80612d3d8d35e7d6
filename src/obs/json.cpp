#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/assert.h"

namespace anu::obs {

namespace {

/// Shortest round-trip representation of a double (integers stay integral).
void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; the manifest never emits them, but never emit
    // invalid JSON even for a hostile value.
    os << "null";
    return;
  }
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(static_cast<std::int64_t>(v)));
    os << buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shorter %.15g form when it round-trips exactly.
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%.15g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  os << (back == v ? shorter : buf);
}

}  // namespace

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    const auto u = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          os << buf;
        } else {
          os << ch;  // UTF-8 bytes pass through verbatim
        }
    }
  }
  os << '"';
}

bool Json::as_bool() const {
  ANU_REQUIRE(kind_ == Kind::kBool);
  return bool_;
}

double Json::as_number() const {
  ANU_REQUIRE(kind_ == Kind::kNumber);
  return number_;
}

const std::string& Json::as_string() const {
  ANU_REQUIRE(kind_ == Kind::kString);
  return string_;
}

const Json::Array& Json::as_array() const {
  ANU_REQUIRE(kind_ == Kind::kArray);
  return array_;
}

const Json::Object& Json::as_object() const {
  ANU_REQUIRE(kind_ == Kind::kObject);
  return object_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json value) {
  ANU_REQUIRE(kind_ == Kind::kObject);
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  ANU_REQUIRE(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
  return *this;
}

void Json::write(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      write_number(os, number_);
      break;
    case Kind::kString:
      write_json_string(os, string_);
      break;
    case Kind::kArray: {
      os << '[';
      bool first = true;
      for (const Json& v : array_) {
        if (!first) os << ',';
        first = false;
        v.write(os);
      }
      os << ']';
      break;
    }
    case Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) os << ',';
        first = false;
        write_json_string(os, k);
        os << ':';
        v.write(os);
      }
      os << '}';
      break;
    }
  }
}

void Json::write_pretty(std::ostream& os, int indent) const {
  const auto pad = [&os](int n) {
    for (int i = 0; i < n; ++i) os << "  ";
  };
  switch (kind_) {
    case Kind::kArray: {
      if (array_.empty()) {
        os << "[]";
        return;
      }
      os << "[\n";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        pad(indent + 1);
        array_[i].write_pretty(os, indent + 1);
        if (i + 1 < array_.size()) os << ',';
        os << '\n';
      }
      pad(indent);
      os << ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        os << "{}";
        return;
      }
      os << "{\n";
      for (std::size_t i = 0; i < object_.size(); ++i) {
        pad(indent + 1);
        write_json_string(os, object_[i].first);
        os << ": ";
        object_[i].second.write_pretty(os, indent + 1);
        if (i + 1 < object_.size()) os << ',';
        os << '\n';
      }
      pad(indent);
      os << '}';
      break;
    }
    default:
      write(os);
  }
}

std::string Json::dump() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run(std::string* error) {
    auto value = parse_value();
    if (value) {
      skip_ws();
      if (pos_ != text_.size()) {
        value = std::nullopt;
        error_ = "trailing characters after document";
      }
    }
    if (!value && error) {
      *error = error_ + " at byte " + std::to_string(pos_);
    }
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<Json> fail(std::string message) {
    error_ = std::move(message);
    return std::nullopt;
  }

  std::optional<Json> parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        auto s = parse_string();
        if (!s) return std::nullopt;
        return Json(std::move(*s));
      }
      case 't':
        return parse_literal("true", Json(true));
      case 'f':
        return parse_literal("false", Json(false));
      case 'n':
        return parse_literal("null", Json());
      default:
        return parse_number();
    }
  }

  std::optional<Json> parse_literal(std::string_view word, Json value) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return value;
  }

  std::optional<Json> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      pos_ = start;
      return fail("invalid number");
    }
    return Json(value);
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      error_ = "expected string";
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        if (++pos_ >= text_.size()) break;
        switch (text_[pos_]) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) {
              error_ = "truncated \\u escape";
              return std::nullopt;
            }
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                error_ = "invalid \\u escape";
                return std::nullopt;
              }
            }
            pos_ += 4;
            // Encode the code point as UTF-8 (BMP only; surrogate pairs in
            // telemetry documents do not occur — names are ASCII).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            error_ = "invalid escape";
            return std::nullopt;
        }
        ++pos_;
      } else {
        out += c;
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) {
      error_ = "unterminated string";
      return std::nullopt;
    }
    ++pos_;  // closing quote
    return out;
  }

  std::optional<Json> parse_array() {
    ++pos_;  // '['
    Json out = Json::array();
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.push_back(std::move(*value));
      if (consume(']')) return out;
      if (!consume(',')) return fail("expected ',' or ']'");
    }
  }

  std::optional<Json> parse_object() {
    ++pos_;  // '{'
    Json out = Json::object();
    skip_ws();
    if (consume('}')) return out;
    for (;;) {
      skip_ws();
      auto key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) return fail("expected ':'");
      auto value = parse_value();
      if (!value) return std::nullopt;
      out.set(std::move(*key), std::move(*value));
      if (consume('}')) return out;
      if (!consume(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  return Parser(text).run(error);
}

}  // namespace anu::obs
