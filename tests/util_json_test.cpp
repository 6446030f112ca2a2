#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "util/json.h"
#include "util/rng.h"

namespace w5::util {
namespace {

TEST(JsonTest, ConstructsScalars) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).as_bool());
  EXPECT_EQ(Json(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Json(2.5).as_number(), 2.5);
  EXPECT_EQ(Json("hello").as_string(), "hello");
}

TEST(JsonTest, WrongTypeAccessReturnsFallback) {
  const Json s("text");
  EXPECT_EQ(s.as_int(7), 7);
  EXPECT_FALSE(s.as_bool());
  EXPECT_TRUE(s.as_array().empty());
  EXPECT_TRUE(s.as_object().empty());
  EXPECT_TRUE(Json(3).as_string().empty());
}

TEST(JsonTest, ObjectSubscriptBuildsObjects) {
  Json j;
  j["user"] = "bob";
  j["age"] = 30;
  j["tags"].push_back("photo");
  j["tags"].push_back("blog");
  EXPECT_TRUE(j.is_object());
  EXPECT_EQ(j.at("user").as_string(), "bob");
  EXPECT_EQ(j.at("tags").as_array().size(), 2u);
  EXPECT_TRUE(j.at("missing").is_null());
  EXPECT_TRUE(j.contains("age"));
  EXPECT_FALSE(j.contains("missing"));
}

TEST(JsonTest, DumpIsDeterministicAndSorted) {
  Json j;
  j["zeta"] = 1;
  j["alpha"] = 2;
  EXPECT_EQ(j.dump(), R"({"alpha":2,"zeta":1})");
}

TEST(JsonTest, DumpEscapesControlCharacters) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), R"("a\"b\\c\nd")");
  EXPECT_EQ(Json(std::string("\x01", 1)).dump(), "\"\\u0001\"");
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_TRUE(Json::parse("true").value().as_bool());
  EXPECT_FALSE(Json::parse("false").value().as_bool());
  EXPECT_EQ(Json::parse("-17").value().as_int(), -17);
  EXPECT_DOUBLE_EQ(Json::parse("2.5e2").value().as_number(), 250.0);
  EXPECT_EQ(Json::parse(R"("hi")").value().as_string(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  auto r = Json::parse(R"({"a":[1,2,{"b":null}],"c":{"d":"e"}})");
  ASSERT_TRUE(r.ok());
  const Json& j = r.value();
  EXPECT_EQ(j.at("a").as_array().size(), 3u);
  EXPECT_TRUE(j.at("a").as_array()[2].at("b").is_null());
  EXPECT_EQ(j.at("c").at("d").as_string(), "e");
}

TEST(JsonTest, ParsesEscapes) {
  auto r = Json::parse(R"("line\nbreak\t\"q\" Aé")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().as_string(), "line\nbreak\t\"q\" A\xc3\xa9");
}

TEST(JsonTest, ParsesWhitespaceLiberally) {
  auto r = Json::parse(" {\n\t\"a\" : [ 1 , 2 ] }\r\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().at("a").as_array().size(), 2u);
}

struct BadInput {
  const char* text;
  const char* why;
};

// Prints a case as its `why`. gtest would otherwise print the struct's
// pointer bytes, and the CTest names built from that text would change
// with every build.
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.why; }

class JsonRejects : public ::testing::TestWithParam<BadInput> {};

TEST_P(JsonRejects, MalformedInput) {
  auto r = Json::parse(GetParam().text);
  EXPECT_FALSE(r.ok()) << GetParam().why << ": " << GetParam().text;
  if (!r.ok()) {
    EXPECT_EQ(r.error().code, "json.parse");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JsonRejects,
    ::testing::Values(
        BadInput{"", "empty input"}, BadInput{"{", "unterminated object"},
        BadInput{"[1,", "unterminated array"},
        BadInput{"[1 2]", "missing comma"},
        BadInput{R"({"a" 1})", "missing colon"},
        BadInput{R"({"a":1,})", "trailing comma"},
        BadInput{R"("unterminated)", "unterminated string"},
        BadInput{R"("bad\q")", "unknown escape"},
        BadInput{R"("trunc\u12")", "truncated unicode escape"},
        BadInput{"nul", "bad literal"}, BadInput{"truee", "trailing chars"},
        BadInput{"1 2", "two values"},
        BadInput{"\"raw\ncontrol\"", "raw control char"},
        BadInput{"--1", "malformed number"}));

class JsonRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(JsonRoundTrip, DumpParseDumpIsStable) {
  auto first = Json::parse(GetParam());
  ASSERT_TRUE(first.ok());
  const std::string once = first.value().dump();
  auto second = Json::parse(once);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value());
  EXPECT_EQ(second.value().dump(), once);
}

INSTANTIATE_TEST_SUITE_P(
    Docs, JsonRoundTrip,
    ::testing::Values(
        "null", "[]", "{}", "[[[[]]]]", R"({"a":{"b":{"c":[1,2,3]}}})",
        R"({"policy":"owner-only","tags":[7,11],"enabled":true})",
        R"([0.5,-3,1e10,123456789])",
        R"({"unicode":"éA","nested":[{"x":null}]})"));

TEST(JsonTest, PrettyPrintIndents) {
  Json j;
  j["a"] = Json::array({1, 2});
  const std::string pretty = j.dump(true);
  EXPECT_NE(pretty.find("\n  \"a\": [\n    1,\n    2\n  ]"),
            std::string::npos);
}

TEST(JsonTest, CopyOnWriteDoesNotAliasMutations) {
  Json a;
  a["k"] = 1;
  Json b = a;           // shares storage
  b["k"] = 2;           // must not affect a
  EXPECT_EQ(a.at("k").as_int(), 1);
  EXPECT_EQ(b.at("k").as_int(), 2);
}

TEST(JsonTest, EqualityIsStructural) {
  EXPECT_EQ(Json::parse(R"({"a":1,"b":[true]})").value(),
            Json::parse(R"({ "b" : [ true ] , "a" : 1 })").value());
  EXPECT_NE(Json(1), Json("1"));
}

// json_escape as it was written first, one byte at a time: the reference
// the run-append escape must match byte for byte.
std::string escape_per_byte(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void expect_escape_matches(const std::string& s) {
  std::string escaped = "prefix";  // json_escape appends
  json_escape(s, escaped);
  ASSERT_EQ(escaped, "prefix" + escape_per_byte(s));
  const Json value(s);
  auto parsed = Json::parse(value.dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), s);
}

TEST(JsonEscapeDifferential, EverySingleByteMatchesThePerByteEscape) {
  for (int b = 0; b < 256; ++b) {
    SCOPED_TRACE(b);
    const char c = static_cast<char>(b);
    expect_escape_matches(std::string(1, c));
    // At every offset of a string longer than two 8-byte words, so the
    // byte lands in each lane of a word and in the bytewise tail.
    for (std::size_t at = 0; at < 20; ++at) {
      std::string s(20, 'a');
      s[at] = c;
      expect_escape_matches(s);
    }
  }
}

TEST(JsonEscapeDifferential, SeededRunsMatchThePerByteEscape) {
  // Escapable bytes at run starts, run ends and next to each other,
  // between plain runs of random length.
  static constexpr char kEscapable[] = {'"', '\\', '\n', '\r', '\t', '\b',
                                        '\f', '\x01', '\x1f', '\0'};
  Rng rng(24);
  for (int round = 0; round < 2000; ++round) {
    std::string s;
    const auto pieces = rng.next_below(8);
    for (std::uint64_t p = 0; p < pieces; ++p) {
      const auto plain = rng.next_below(4) == 0 ? 0 : rng.next_below(40);
      for (std::uint64_t i = 0; i < plain; ++i)
        s.push_back(static_cast<char>(0x20 + rng.next_below(0xe0)));
      const auto burst = rng.next_below(4);
      for (std::uint64_t i = 0; i < burst; ++i)
        s.push_back(kEscapable[rng.next_below(sizeof kEscapable)]);
    }
    SCOPED_TRACE(round);
    expect_escape_matches(s);
  }
}

}  // namespace
}  // namespace w5::util
