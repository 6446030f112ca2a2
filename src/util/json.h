// A small JSON implementation (RFC 8259 subset: UTF-8 passthrough, \uXXXX
// escapes decoded for the BMP). Used for the platform's HTTP API bodies,
// policy documents, the federation wire protocol, and store snapshots.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace w5::util {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps keys ordered, which makes serialization deterministic —
// snapshots and federation digests rely on byte-stable encodings.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(int n) : type_(Type::kNumber), number_(n) {}
  Json(std::int64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(std::uint64_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::kString), string_(s) {}
  Json(JsonArray a);
  Json(JsonObject o);

  static Json array(std::initializer_list<Json> items = {});
  static Json object(
      std::initializer_list<std::pair<const std::string, Json>> members = {});

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  // Typed accessors; wrong-type access returns a neutral default, keeping
  // call sites terse when handling untrusted input.
  bool as_bool(bool fallback = false) const;
  double as_number(double fallback = 0) const;
  std::int64_t as_int(std::int64_t fallback = 0) const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  const JsonObject& as_object() const;
  JsonArray& mutable_array();
  JsonObject& mutable_object();

  // Object member lookup; returns null Json when absent or not an object.
  const Json& at(std::string_view key) const;
  bool contains(std::string_view key) const;
  Json& operator[](const std::string& key);  // makes this an object

  void push_back(Json value);  // makes this an array

  std::string dump(bool pretty = false) const;
  // Appends the compact dump (the bytes dump() returns) to out.
  void dump_to(std::string& out) const { dump_to(out, false, 0); }

  static Result<Json> parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out, bool pretty, int indent) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;    // shared for cheap value copies
  std::shared_ptr<JsonObject> object_;
};

// Appends a JSON string literal (with escaping) to out.
void json_escape(std::string_view s, std::string& out);

}  // namespace w5::util
