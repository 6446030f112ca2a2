#include <gtest/gtest.h>

#include <ostream>

#include "net/cookies.h"
#include "net/http.h"
#include "net/http_parser.h"

namespace w5::net {
namespace {

TEST(HeadersTest, CaseInsensitiveAccessPreservingOrder) {
  Headers h;
  h.add("Content-Type", "text/html");
  h.add("X-Tag", "1");
  h.add("x-tag", "2");
  EXPECT_EQ(h.get("content-type"), "text/html");
  EXPECT_EQ(h.get("CONTENT-TYPE"), "text/html");
  EXPECT_EQ(h.get_all("X-TAG"), (std::vector<std::string>{"1", "2"}));
  h.set("x-tag", "3");
  EXPECT_EQ(h.get_all("X-Tag"), (std::vector<std::string>{"3"}));
  h.remove("X-tAg");
  EXPECT_FALSE(h.contains("x-tag"));
  EXPECT_EQ(h.size(), 1u);
}

TEST(HttpMessageTest, RequestWireFormat) {
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/dev/devA/crop";
  request.body = "payload";
  const std::string wire = request.to_wire();
  EXPECT_NE(wire.find("POST /dev/devA/crop HTTP/1.1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Host: w5.org\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_TRUE(wire.ends_with("\r\npayload"));
}

TEST(HttpMessageTest, ResponseWireFormatAndHelpers) {
  const auto response = HttpResponse::json(201, R"({"ok":true})");
  const std::string wire = response.to_wire();
  EXPECT_TRUE(wire.starts_with("HTTP/1.1 201 Created\r\n"));
  EXPECT_NE(wire.find("Content-Type: application/json\r\n"),
            std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);

  const auto redirect = HttpResponse::redirect("/login");
  EXPECT_EQ(redirect.status, 302);
  EXPECT_EQ(redirect.headers.get("Location"), "/login");
}

TEST(RequestParserTest, ParsesSimpleGet) {
  RequestParser parser;
  parser.feed("GET /photos?id=3 HTTP/1.1\r\nHost: w5.org\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  const HttpRequest request = parser.take();
  EXPECT_EQ(request.method, Method::kGet);
  EXPECT_EQ(request.parsed.path, "/photos");
  EXPECT_EQ(query_get(request.parsed.query, "id"), "3");
  EXPECT_EQ(request.headers.get("Host"), "w5.org");
  EXPECT_TRUE(request.body.empty());
}

TEST(RequestParserTest, ParsesPostWithBody) {
  RequestParser parser;
  parser.feed(
      "POST /submit HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello world");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().body, "hello world");
}

TEST(RequestParserTest, IncrementalByteAtATime) {
  const std::string wire =
      "PUT /a HTTP/1.1\r\nContent-Length: 4\r\nX-K: v\r\n\r\nbody";
  RequestParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed());
    parser.feed(std::string_view(&c, 1));
  }
  ASSERT_TRUE(parser.complete());
  const HttpRequest request = parser.take();
  EXPECT_EQ(request.method, Method::kPut);
  EXPECT_EQ(request.body, "body");
  EXPECT_EQ(request.headers.get("X-K"), "v");
}

TEST(RequestParserTest, SplitAtEveryBoundaryParsesIdentically) {
  // The reactor feeds the parser whatever read(2) returned, so a request
  // can split at any byte. Every two-chunk split must parse to the same
  // message as the one-shot feed — start line, headers, body, and the
  // exact consumed count at completion.
  const std::string wire =
      "POST /sub/mit?k=v HTTP/1.1\r\nHost: w5.org\r\nX-Trace: abc\r\n"
      "Content-Length: 9\r\n\r\nnine78byt";
  for (std::size_t split = 0; split <= wire.size(); ++split) {
    RequestParser parser;
    std::size_t consumed = parser.feed(std::string_view(wire).substr(0, split));
    ASSERT_FALSE(parser.failed()) << "split at " << split;
    consumed += parser.feed(std::string_view(wire).substr(split));
    ASSERT_TRUE(parser.complete()) << "split at " << split;
    EXPECT_EQ(consumed, wire.size()) << "split at " << split;
    const HttpRequest request = parser.take();
    EXPECT_EQ(request.method, Method::kPost);
    EXPECT_EQ(request.parsed.path, "/sub/mit");
    EXPECT_EQ(request.headers.get("X-Trace"), "abc");
    EXPECT_EQ(request.body, "nine78byt") << "split at " << split;
  }
}

TEST(RequestParserTest, PipelinedBackToBackRequestsInOneBuffer) {
  // Several complete requests in one buffer: each feed stops exactly at
  // its request boundary, and reset() + re-feed of the remainder yields
  // the next message with nothing lost or duplicated.
  std::string wire;
  for (int i = 0; i < 4; ++i) {
    const std::string body = "body" + std::to_string(i);
    wire += "POST /req/" + std::to_string(i) + " HTTP/1.1\r\n" +
            "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
            body;
  }
  RequestParser parser;
  std::string_view rest = wire;
  for (int i = 0; i < 4; ++i) {
    const std::size_t consumed = parser.feed(rest);
    ASSERT_TRUE(parser.complete()) << "request " << i;
    EXPECT_LE(consumed, rest.size());
    const HttpRequest request = parser.take();
    EXPECT_EQ(request.parsed.path, "/req/" + std::to_string(i));
    EXPECT_EQ(request.body, "body" + std::to_string(i));
    rest = rest.substr(consumed);
    parser.reset();
  }
  EXPECT_TRUE(rest.empty()) << "bytes left over after the last request";
}

TEST(RequestParserTest, PipelinedRequestsLeaveResidue) {
  const std::string two =
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
  RequestParser parser;
  const std::size_t consumed = parser.feed(two);
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().parsed.path, "/a");
  // Second request parses from the residue.
  parser.feed(std::string_view(two).substr(consumed));
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().parsed.path, "/b");
}

TEST(RequestParserTest, ToleratesLeadingEmptyLines) {
  RequestParser parser;
  parser.feed("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(parser.complete());
}

struct BadRequest {
  const char* wire;
  const char* expected_code;
  const char* why;
};

// Prints a case as its `why` rather than its pointer bytes, so the CTest
// names stay the same from build to build.
void PrintTo(const BadRequest& request, std::ostream* os) {
  *os << request.why;
}

class RequestParserRejects : public ::testing::TestWithParam<BadRequest> {};

TEST_P(RequestParserRejects, MalformedInput) {
  RequestParser parser;
  parser.feed(GetParam().wire);
  ASSERT_TRUE(parser.failed()) << GetParam().wire;
  EXPECT_EQ(parser.error().code, GetParam().expected_code);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RequestParserRejects,
    ::testing::Values(
        BadRequest{"BREW /pot HTTP/1.1\r\n\r\n", "http.unsupported",
                   "unknown method"},
        BadRequest{"GET / HTTP/2\r\n\r\n", "http.unsupported",
                   "unsupported version"},
        BadRequest{"GET /\r\n\r\n", "http.parse", "missing version"},
        BadRequest{"GET /a b HTTP/1.1\r\n\r\n", "http.parse",
                   "space in target"},
        BadRequest{"GET /../x HTTP/1.1\r\n\r\n", "http.parse",
                   "target escapes root"},
        BadRequest{"GET / HTTP/1.1\nHost: x\n\n", "http.parse", "bare LF"},
        BadRequest{"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", "http.parse",
                   "header without colon"},
        BadRequest{"GET / HTTP/1.1\r\nBad : v\r\n\r\n", "http.parse",
                   "space before colon"},
        BadRequest{"GET / HTTP/1.1\r\nA: 1\r\n folded\r\n\r\n",
                   "http.parse", "folded header"},
        BadRequest{"GET / HTTP/1.1\r\nContent-Length: xyz\r\n\r\n",
                   "http.parse", "non-numeric Content-Length"},
        BadRequest{
            "GET / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
            "http.parse", "duplicate Content-Length"},
        BadRequest{"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                   "http.unsupported", "chunked body"}));

TEST(RequestParserTest, EnforcesBodyLimit) {
  RequestParser parser(ParserLimits{.max_body_bytes = 10});
  parser.feed("POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error().code, "http.too_large");
}

// Header-side overflows carry their own code ("http.headers_too_large",
// surfaced as 431) so they are distinguishable from oversized bodies
// ("http.too_large" → 413).
TEST(RequestParserTest, EnforcesLineLimit) {
  RequestParser parser(ParserLimits{.max_line_bytes = 32});
  parser.feed("GET /" + std::string(100, 'a') + " HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error().code, "http.headers_too_large");
}

TEST(RequestParserTest, EnforcesHeaderCountLimit) {
  RequestParser parser(ParserLimits{.max_header_count = 3});
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 5; ++i) wire += "H" + std::to_string(i) + ": v\r\n";
  wire += "\r\n";
  parser.feed(wire);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error().code, "http.headers_too_large");
}

TEST(RequestParserTest, EnforcesTotalHeaderBytesLimit) {
  // Each line fits the per-line cap, but the block as a whole exceeds
  // max_headers_bytes — the slow-drip header attack the total cap stops.
  RequestParser parser(
      ParserLimits{.max_line_bytes = 128, .max_headers_bytes = 256});
  std::string wire = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 10; ++i)
    wire += "H" + std::to_string(i) + ": " + std::string(40, 'v') + "\r\n";
  wire += "\r\n";
  parser.feed(wire);
  ASSERT_TRUE(parser.failed());
  EXPECT_EQ(parser.error().code, "http.headers_too_large");
}

// parse_u64 is digits-only: a Content-Length smuggling a sign, hex, an
// inner space, or an empty value must be rejected, not silently coerced.
// (Leading/trailing OWS around the value is trimmed before parsing —
// that much is RFC-legal.)
TEST(RequestParserTest, RejectsNonCanonicalContentLength) {
  for (const std::string bad : {"+5", "-5", "0x5", "5 5", ""}) {
    RequestParser parser;
    parser.feed("POST / HTTP/1.1\r\nContent-Length: " + bad + "\r\n\r\n");
    ASSERT_TRUE(parser.failed()) << "Content-Length '" << bad << "'";
    EXPECT_EQ(parser.error().code, "http.parse") << bad;
  }
}

TEST(ResponseParserTest, ParsesResponse) {
  ResponseParser parser;
  parser.feed(
      "HTTP/1.1 404 Not Found\r\nContent-Length: 6\r\nX-A: b\r\n\r\nnope\r\n");
  ASSERT_TRUE(parser.complete());
  const HttpResponse response = parser.take();
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.body, "nope\r\n");
  EXPECT_EQ(response.headers.get("X-A"), "b");
}

TEST(ResponseParserTest, ReasonPhraseWithSpaces) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 500 Internal Server Error\r\n\r\n");
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 500);
}

TEST(ResponseParserTest, RejectsBadStatus) {
  ResponseParser parser;
  parser.feed("HTTP/1.1 bad OK\r\n\r\n");
  EXPECT_TRUE(parser.failed());
  ResponseParser parser2;
  parser2.feed("HTTP/1.1 42 Tiny\r\n\r\n");
  EXPECT_TRUE(parser2.failed());
}

TEST(WireRoundTrip, RequestSurvivesSerializeParse) {
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/dev/devB/label?v=2";
  request.headers.add("Cookie", "session=abc123");
  request.body = "name=value&x=y";
  RequestParser parser;
  parser.feed(request.to_wire());
  ASSERT_TRUE(parser.complete());
  const HttpRequest parsed = parser.take();
  EXPECT_EQ(parsed.method, request.method);
  EXPECT_EQ(parsed.target, request.target);
  EXPECT_EQ(parsed.body, request.body);
  EXPECT_EQ(parsed.headers.get("Cookie"), "session=abc123");
}

TEST(WireRoundTrip, ResponseSurvivesSerializeParse) {
  auto response = HttpResponse::html(200, "<p>hi</p>");
  response.headers.add("Set-Cookie", "session=tok; Path=/; HttpOnly");
  ResponseParser parser;
  parser.feed(response.to_wire());
  ASSERT_TRUE(parser.complete());
  const HttpResponse parsed = parser.take();
  EXPECT_EQ(parsed.status, 200);
  EXPECT_EQ(parsed.body, "<p>hi</p>");
  EXPECT_EQ(parsed.headers.get("Set-Cookie"),
            "session=tok; Path=/; HttpOnly");
}

TEST(CookieTest, ParsesHeader) {
  const auto cookies = parse_cookie_header("session=abc; theme=dark; x=\"q\"");
  ASSERT_EQ(cookies.size(), 3u);
  EXPECT_EQ(cookie_get(cookies, "session"), "abc");
  EXPECT_EQ(cookie_get(cookies, "theme"), "dark");
  EXPECT_EQ(cookie_get(cookies, "x"), "q");
  EXPECT_FALSE(cookie_get(cookies, "missing").has_value());
}

TEST(CookieTest, SkipsMalformedPairs) {
  const auto cookies =
      parse_cookie_header("good=1; =nameless; bare; bad name=2; ok=2");
  ASSERT_EQ(cookies.size(), 2u);
  EXPECT_EQ(cookie_get(cookies, "good"), "1");
  EXPECT_EQ(cookie_get(cookies, "ok"), "2");
}

TEST(CookieTest, SetCookieSerialization) {
  SetCookie cookie{.name = "session",
                   .value = "tok123",
                   .path = "/",
                   .max_age_seconds = 3600,
                   .http_only = true,
                   .secure = true};
  EXPECT_EQ(cookie.to_header(),
            "session=tok123; Path=/; Max-Age=3600; HttpOnly; Secure");
  SetCookie session_scoped{.name = "s", .value = "v", .http_only = false};
  EXPECT_EQ(session_scoped.to_header(), "s=v; Path=/");
}

TEST(CookieTest, SetCookieRejectsIllegalCharacters) {
  const SetCookie bad_name{.name = "bad name", .value = "v"};
  EXPECT_FALSE(bad_name.to_header().has_value());
  const SetCookie bad_value{.name = "n", .value = "semi;colon"};
  EXPECT_FALSE(bad_value.to_header().has_value());
  const SetCookie empty_name{.name = "", .value = "v"};
  EXPECT_FALSE(empty_name.to_header().has_value());
}

}  // namespace
}  // namespace w5::net
