// Minimal JSON value tree (parse + dump) backing the serializable
// measurement API: SweepPlans, shard result files and AxisReport round
// trips all flow through here. Deliberately tiny — objects preserve
// insertion order, numbers are doubles printed with round-trip precision
// (max_digits10), and parse errors throw std::runtime_error with an offset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sysnoise::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}                    // NOLINT
  Json(double v) : type_(Type::kNumber), number_(v) {}              // NOLINT
  Json(int v) : Json(static_cast<double>(v)) {}                     // NOLINT
  Json(std::size_t v) : Json(static_cast<double>(v)) {}             // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}                     // NOLINT

  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors; throw std::runtime_error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  int as_int() const;
  const std::string& as_string() const;

  // Array access.
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  void push_back(Json v);

  // Object access. get() returns nullptr when the key is absent; at()
  // throws. set() appends or overwrites, preserving first-insertion order.
  const Json* get(const std::string& key) const;
  const Json& at(const std::string& key) const;
  void set(const std::string& key, Json v);
  const std::vector<std::pair<std::string, Json>>& items() const;

  // Serialize. indent < 0 renders compact one-line JSON; indent >= 0
  // pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  // Parse a complete JSON document (trailing non-space input is an error).
  // Arrays and objects may nest at most kMaxParseDepth levels; deeper input
  // throws instead of exhausting the stack. The repo's own plan, shard and
  // journal documents nest fewer than ten levels.
  static Json parse(const std::string& text);
  static constexpr int kMaxParseDepth = 256;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void dump_to(std::string* out, int indent, int depth) const;
};

// FNV-1a 64-bit over a byte string — the stable content hash used for plan
// fingerprints and disk-cache file names.
std::uint64_t fnv1a64(const std::string& bytes);
std::string fnv1a64_hex(const std::string& bytes);

}  // namespace sysnoise::util
