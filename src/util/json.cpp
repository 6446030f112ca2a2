#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace w5::util {

namespace {

const std::string kEmptyString;
const JsonArray kEmptyArray;
const JsonObject kEmptyObject;
const Json kNullJson;

}  // namespace

Json::Json(JsonArray a)
    : type_(Type::kArray), array_(std::make_shared<JsonArray>(std::move(a))) {}

Json::Json(JsonObject o)
    : type_(Type::kObject),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

Json Json::array(std::initializer_list<Json> items) {
  return Json(JsonArray(items));
}

Json Json::object(
    std::initializer_list<std::pair<const std::string, Json>> members) {
  return Json(JsonObject(members));
}

bool Json::as_bool(bool fallback) const {
  return is_bool() ? bool_ : fallback;
}

double Json::as_number(double fallback) const {
  return is_number() ? number_ : fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  return is_number() ? static_cast<std::int64_t>(number_) : fallback;
}

const std::string& Json::as_string() const {
  return is_string() ? string_ : kEmptyString;
}

const JsonArray& Json::as_array() const {
  return is_array() && array_ ? *array_ : kEmptyArray;
}

const JsonObject& Json::as_object() const {
  return is_object() && object_ ? *object_ : kEmptyObject;
}

JsonArray& Json::mutable_array() {
  if (!is_array() || !array_) {
    type_ = Type::kArray;
    array_ = std::make_shared<JsonArray>();
  } else if (array_.use_count() > 1) {
    array_ = std::make_shared<JsonArray>(*array_);  // copy-on-write
  }
  return *array_;
}

JsonObject& Json::mutable_object() {
  if (!is_object() || !object_) {
    type_ = Type::kObject;
    object_ = std::make_shared<JsonObject>();
  } else if (object_.use_count() > 1) {
    object_ = std::make_shared<JsonObject>(*object_);
  }
  return *object_;
}

const Json& Json::at(std::string_view key) const {
  if (!is_object() || !object_) return kNullJson;
  const auto it = object_->find(std::string(key));
  return it == object_->end() ? kNullJson : it->second;
}

bool Json::contains(std::string_view key) const {
  return is_object() && object_ &&
         object_->find(std::string(key)) != object_->end();
}

Json& Json::operator[](const std::string& key) {
  return mutable_object()[key];
}

void Json::push_back(Json value) {
  mutable_array().push_back(std::move(value));
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.number_ == b.number_;
    case Json::Type::kString:
      return a.string_ == b.string_;
    case Json::Type::kArray:
      return a.as_array() == b.as_array();
    case Json::Type::kObject:
      return a.as_object() == b.as_object();
  }
  return false;
}

namespace {

// True when some byte of `word` is one json_escape rewrites: below 0x20,
// '"' or '\\'. Tests all eight bytes at once (the "has a byte less than
// n" and "has a zero byte" word tricks; exact as a yes/no answer).
bool any_escapable(std::uint64_t word) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHigh = 0x8080808080808080ull;
  const auto has_zero = [](std::uint64_t v) {
    return ((v - kOnes) & ~v & kHigh) != 0;
  };
  return ((word - kOnes * 0x20) & ~word & kHigh) != 0 ||
         has_zero(word ^ (kOnes * '"')) || has_zero(word ^ (kOnes * '\\'));
}

void append_escaped(unsigned char c, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  switch (c) {
    case '"':
      out.append("\\\"");
      break;
    case '\\':
      out.append("\\\\");
      break;
    case '\n':
      out.append("\\n");
      break;
    case '\r':
      out.append("\\r");
      break;
    case '\t':
      out.append("\\t");
      break;
    case '\b':
      out.append("\\b");
      break;
    case '\f':
      out.append("\\f");
      break;
    default: {
      const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                              kHex[c & 0xf]};
      out.append(escaped, sizeof escaped);
    }
  }
}

}  // namespace

void json_escape(std::string_view s, std::string& out) {
  out.push_back('"');
  // Bytes that need no escaping are appended a whole run at a time, and
  // a run is scanned eight bytes per step until a word holds a byte to
  // rewrite.
  std::size_t run = 0;  // first byte not yet appended
  std::size_t i = 0;
  while (i < s.size()) {
    if (i + sizeof(std::uint64_t) <= s.size()) {
      std::uint64_t word;
      std::memcpy(&word, s.data() + i, sizeof word);
      if (!any_escapable(word)) {
        i += sizeof word;
        continue;
      }
    }
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      ++i;
      continue;
    }
    out.append(s.data() + run, i - run);
    append_escaped(c, out);
    run = ++i;
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

namespace {

void append_number(double n, std::string& out) {
  if (std::isfinite(n) && n == std::floor(n) &&
      std::abs(n) < 9.0e15) {  // integral, exactly representable
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(n));
    out.append(buf);
  } else if (std::isfinite(n)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    out.append(buf);
  } else {
    out.append("null");  // JSON has no NaN/Inf
  }
}

}  // namespace

void Json::dump_to(std::string& out, bool pretty, int indent) const {
  const auto newline_indent = [&](int level) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(level) * 2, ' ');
  };
  switch (type_) {
    case Type::kNull:
      out.append("null");
      break;
    case Type::kBool:
      out.append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      append_number(number_, out);
      break;
    case Type::kString:
      json_escape(string_, out);
      break;
    case Type::kArray: {
      const auto& a = as_array();
      if (a.empty()) {
        out.append("[]");
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_indent(indent + 1);
        a[i].dump_to(out, pretty, indent + 1);
      }
      newline_indent(indent);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const auto& o = as_object();
      if (o.empty()) {
        out.append("{}");
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : o) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(indent + 1);
        json_escape(key, out);
        out.push_back(':');
        if (pretty) out.push_back(' ');
        value.dump_to(out, pretty, indent + 1);
      }
      newline_indent(indent);
      out.push_back('}');
      break;
    }
  }
}

namespace {

// How many characters append_number writes for `n`.
std::size_t number_size(double n) {
  if (std::isfinite(n) && n == std::floor(n) && std::abs(n) < 9.0e15) {
    const auto v = static_cast<long long>(n);
    std::size_t size = v < 0 ? 2 : 1;  // sign, first digit
    for (long long rest = v < 0 ? -v : v; rest >= 10; rest /= 10) ++size;
    return size;
  }
  return std::isfinite(n) ? 24 : 4;  // "%.17g" is at most 24 characters
}

// The compact dump's length when no string needs escaping; escapes only
// add to it.
std::size_t compact_size(const Json& j) {
  switch (j.type()) {
    case Json::Type::kNull:
      return 4;
    case Json::Type::kBool:
      return j.as_bool() ? 4 : 5;
    case Json::Type::kNumber:
      return number_size(j.as_number());
    case Json::Type::kString:
      return j.as_string().size() + 2;
    case Json::Type::kArray: {
      std::size_t size = 2 + j.as_array().size();  // brackets, commas (+1)
      for (const Json& e : j.as_array()) size += compact_size(e);
      return size - (j.as_array().empty() ? 0 : 1);
    }
    case Json::Type::kObject: {
      std::size_t size = 2 + j.as_object().size();
      for (const auto& [key, value] : j.as_object())
        size += key.size() + 3 + compact_size(value);  // quotes, colon
      return size - (j.as_object().empty() ? 0 : 1);
    }
  }
  return 0;
}

}  // namespace

std::string Json::dump(bool pretty) const {
  std::string out;
  // Size the buffer once: appending a big string into a buffer grown just
  // to fit it lets the next few bytes double it, so a 64 KiB value cost
  // three times its size.
  if (!pretty) out.reserve(compact_size(*this));
  dump_to(out, pretty, 0);
  return out;
}

namespace {

constexpr int kMaxParseDepth = 192;  // bounds recursion on hostile input

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    skip_ws();
    auto value = parse_value();
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size())
      return fail("trailing characters after JSON value");
    return value;
  }

 private:
  Error fail(std::string why) const {
    return make_error("json.parse",
                      why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Result<Json> parse_value() {
    if (depth_ > kMaxParseDepth) return fail("nesting too deep");
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        if (consume("null")) return Json(nullptr);
        return fail("bad literal");
      case 't':
        if (consume("true")) return Json(true);
        return fail("bad literal");
      case 'f':
        if (consume("false")) return Json(false);
        return fail("bad literal");
      case '"':
        return parse_string().map([](std::string s) { return Json(std::move(s)); });
      case '[':
        return parse_array();
      case '{':
        return parse_object();
      default:
        return parse_number();
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (eof()) return Error(fail("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        return Error(fail("raw control character in string"));
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) return Error(fail("dangling escape"));
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          auto cp = parse_hex4();
          if (!cp.ok()) return cp.error();
          append_utf8(cp.value(), out);
          break;
        }
        default:
          return Error(fail("unknown escape"));
      }
    }
  }

  Result<unsigned> parse_hex4() {
    if (pos_ + 4 > text_.size()) return Error(fail("truncated \\u escape"));
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else
        return Error(fail("bad hex digit in \\u escape"));
    }
    return value;
  }

  static void append_utf8(unsigned cp, std::string& out) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  Result<Json> parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    while (!eof() && ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '+' ||
                      peek() == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("malformed number");
    return Json(value);
  }

  Result<Json> parse_array() {
    ++depth_;
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};
    ++pos_;  // '['
    JsonArray items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    while (true) {
      skip_ws();
      auto value = parse_value();
      if (!value.ok()) return value;
      items.push_back(std::move(value).value());
      skip_ws();
      if (eof()) return fail("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return Json(std::move(items));
      if (c != ',') return fail("expected ',' or ']' in array");
    }
  }

  Result<Json> parse_object() {
    ++depth_;
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } guard{depth_};
    ++pos_;  // '{'
    JsonObject members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') return fail("expected object key");
      auto key = parse_string();
      if (!key.ok()) return key.error();
      skip_ws();
      if (eof() || text_[pos_++] != ':') return fail("expected ':'");
      skip_ws();
      auto value = parse_value();
      if (!value.ok()) return value;
      members[std::move(key).value()] = std::move(value).value();
      skip_ws();
      if (eof()) return fail("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return Json(std::move(members));
      if (c != ',') return fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace w5::util
