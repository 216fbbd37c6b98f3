#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sysnoise::util {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw std::runtime_error(std::string("Json: expected ") + want +
                           ", got type " + std::to_string(static_cast<int>(got)));
}

}  // namespace

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

int Json::as_int() const { return static_cast<int>(as_number()); }

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  type_error("array or object", type_);
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::kArray) type_error("array", type_);
  if (i >= array_.size()) throw std::runtime_error("Json: array index out of range");
  return array_[i];
}

void Json::push_back(Json v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(v));
}

const Json* Json::get(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = get(key);
  if (v == nullptr) throw std::runtime_error("Json: missing key \"" + key + "\"");
  return *v;
}

void Json::set(const std::string& key, Json v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : object_)
    if (k == key) {
      existing = std::move(v);
      return;
    }
  object_.emplace_back(key, std::move(v));
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

// ---------------------------------------------------------------------------
// Dump
// ---------------------------------------------------------------------------

namespace {

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void dump_number(double v, std::string* out) {
  if (!std::isfinite(v)) throw std::runtime_error("Json: non-finite number");
  // Integers print without an exponent/decimal point; everything else with
  // max_digits10 so the double round-trips bit-exactly through parse().
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::ostringstream os;
    os << static_cast<long long>(v);
    *out += os.str();
    return;
  }
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  *out += os.str();
}

void newline_indent(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull: *out += "null"; return;
    case Type::kBool: *out += bool_ ? "true" : "false"; return;
    case Type::kNumber: dump_number(number_, out); return;
    case Type::kString: dump_string(string_, out); return;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(out, indent, depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline_indent(out, indent, depth + 1);
        dump_string(object_[i].first, out);
        *out += indent < 0 ? ":" : ": ";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(&out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parse
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  [[noreturn]] void fail(const std::string& why) {
    throw std::runtime_error("Json::parse: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // A throw abandons the whole parse, so only success unwinds depth_.
      if (++depth_ > Json::kMaxParseDepth)
        fail("nesting deeper than " + std::to_string(Json::kMaxParseDepth));
      Json v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(parse_string());
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    if (consume_literal("null")) return Json();
    return parse_number();
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
      arr.push_back(parse_value());
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
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          const unsigned code = static_cast<unsigned>(
              std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
          pos_ += 4;
          // The writer only emits \u for control characters; decode the
          // BMP code point as UTF-8 for general inputs.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("invalid value");
    char* end = nullptr;
    const std::string tok = text_.substr(start, pos_ - start);
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number \"" + tok + "\"");
    return Json(v);
  }
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string fnv1a64_hex(const std::string& bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(bytes)));
  return buf;
}

}  // namespace sysnoise::util
