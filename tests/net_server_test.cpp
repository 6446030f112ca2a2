#include <gtest/gtest.h>

#include <thread>

#include "net/http_client.h"
#include "net/http_server.h"
#include "net/router.h"
#include "net/tcp.h"
#include "net/transport.h"

namespace w5::net {
namespace {

TEST(PipeTest, BytesFlowBothWays) {
  auto [a, b] = make_pipe();
  ASSERT_TRUE(a->write("ping").ok());
  char buf[16];
  auto n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "ping");
  ASSERT_TRUE(b->write("pong").ok());
  n = a->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "pong");
}

TEST(PipeTest, EmptyReadsWouldBlockThenEofAfterClose) {
  auto [a, b] = make_pipe();
  char buf[8];
  EXPECT_EQ(b->read(buf, sizeof(buf)).error().code, "net.would_block");
  ASSERT_TRUE(a->write("x").ok());
  a->close();
  auto n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  n = b->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);  // EOF after drain
}

TEST(PipeTest, WriteAfterCloseFails) {
  auto [a, b] = make_pipe();
  a->close();
  EXPECT_EQ(a->write("x").error().code, "net.closed");
  EXPECT_TRUE(a->closed());
}

TEST(InMemoryNetworkTest, DialReachesListener) {
  InMemoryNetwork network;
  std::unique_ptr<Connection> server_side;
  network.listen("providerA", [&](std::unique_ptr<Connection> conn) {
    server_side = std::move(conn);
  });
  auto client = network.dial("providerA");
  ASSERT_TRUE(client.ok());
  ASSERT_NE(server_side, nullptr);
  ASSERT_TRUE(client.value()->write("hello").ok());
  auto data = server_side->read_available();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data.value(), "hello");

  EXPECT_EQ(network.dial("nowhere").error().code, "net.unreachable");
  network.unlisten("providerA");
  EXPECT_FALSE(network.dial("providerA").ok());
}

HttpResponse echo_handler(const HttpRequest& request) {
  return HttpResponse::text(
      200, std::string(to_string(request.method)) + " " +
               request.parsed.path + " body=" + request.body);
}

TEST(HttpServerTest, ServesOneRequestOverPipe) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/echo";
  request.body = "data";
  ASSERT_TRUE(client->write(request.to_wire()).ok());

  HttpServer http(echo_handler);
  auto handled = http.handle_one(*server);
  ASSERT_TRUE(handled.ok());
  EXPECT_TRUE(handled.value());

  ResponseParser parser;
  auto bytes = client->read_available();
  ASSERT_TRUE(bytes.ok());
  parser.feed(bytes.value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().body, "POST /echo body=data");
}

TEST(HttpServerTest, KeepAliveHandlesSequentialRequests) {
  auto [client, server] = make_pipe();
  HttpServer http(echo_handler);
  HttpClient http_client;

  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.target = "/r" + std::to_string(i);
    ASSERT_TRUE(client->write(request.to_wire()).ok());
    auto handled = http.handle_one(*server);
    ASSERT_TRUE(handled.ok());
    ASSERT_TRUE(handled.value());
    ResponseParser parser;
    parser.feed(client->read_available().value());
    ASSERT_TRUE(parser.complete());
    EXPECT_EQ(parser.take().body, "GET /r" + std::to_string(i) + " body=");
  }
}

TEST(HttpServerTest, PipelinedRequestsInOneWriteAnswerInOrder) {
  auto [client, server] = make_pipe();
  std::string wire;
  for (int i = 0; i < 2; ++i) {
    HttpRequest request;
    request.target = "/p" + std::to_string(i);
    wire += request.to_wire();
  }
  ASSERT_TRUE(client->write(wire).ok());  // both requests in one write

  HttpServer http(echo_handler);
  EXPECT_EQ(http.serve(*server), 2u);

  auto bytes = client->read_available();
  ASSERT_TRUE(bytes.ok());
  std::string_view stream = bytes.value();
  for (int i = 0; i < 2; ++i) {
    ResponseParser parser;
    stream.remove_prefix(parser.feed(stream));
    ASSERT_TRUE(parser.complete()) << "response " << i;
    EXPECT_EQ(parser.take().body, "GET /p" + std::to_string(i) + " body=");
  }
  EXPECT_TRUE(stream.empty());
}

TEST(HttpServerTest, ConnectionCloseHonored) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.headers.set("Connection", "close");
  ASSERT_TRUE(client->write(request.to_wire()).ok());
  HttpServer http(echo_handler);
  auto handled = http.handle_one(*server);
  ASSERT_TRUE(handled.ok());
  EXPECT_TRUE(server->closed());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().headers.get("Connection"), "close");
}

TEST(HttpServerTest, MalformedRequestGets400AndClose) {
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("NONSENSE\r\n\r\n").ok());
  HttpServer http(echo_handler);
  auto handled = http.handle_one(*server);
  EXPECT_FALSE(handled.ok());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 400);
  EXPECT_TRUE(server->closed());
}

TEST(HttpServerTest, OversizedRequestGets413) {
  auto [client, server] = make_pipe();
  HttpRequest request;
  request.method = Method::kPost;
  request.body = std::string(100, 'x');
  ASSERT_TRUE(client->write(request.to_wire()).ok());
  HttpServer http(echo_handler, ParserLimits{.max_body_bytes = 10});
  auto handled = http.handle_one(*server);
  EXPECT_FALSE(handled.ok());
  ResponseParser parser;
  parser.feed(client->read_available().value());
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 413);
}

TEST(HttpServerTest, TruncatedRequestReports400) {
  auto [client, server] = make_pipe();
  ASSERT_TRUE(client->write("GET / HTTP/1.1\r\nHos").ok());  // cut mid-header
  HttpServer http(echo_handler);
  auto handled = http.handle_one(*server);
  EXPECT_FALSE(handled.ok());
  EXPECT_EQ(handled.error().code, "http.incomplete");
}

TEST(HttpServerTest, IdleConnectionReturnsFalse) {
  auto [client, server] = make_pipe();
  HttpServer http(echo_handler);
  auto handled = http.handle_one(*server);
  ASSERT_TRUE(handled.ok());
  EXPECT_FALSE(handled.value());
}

TEST(RouterTest, MatchesLiteralParamAndWildcard) {
  Router router;
  std::string hit;
  router.add(Method::kGet, "/", [&](const auto&, const auto&) {
    hit = "root";
    return HttpResponse::text(200, "root");
  });
  router.add(Method::kGet, "/dev/:developer/:app",
             [&](const auto&, const RouteParams& params) {
               hit = params.at("developer") + "/" + params.at("app");
               return HttpResponse::text(200, "app");
             });
  router.add(Method::kGet, "/static/*path",
             [&](const auto&, const RouteParams& params) {
               hit = "static:" + params.at("path");
               return HttpResponse::text(200, "file");
             });

  HttpRequest request;
  request.parsed = *parse_request_target("/dev/devA/crop");
  EXPECT_EQ(router.dispatch(request).status, 200);
  EXPECT_EQ(hit, "devA/crop");

  request.parsed = *parse_request_target("/static/css/site.css");
  router.dispatch(request);
  EXPECT_EQ(hit, "static:css/site.css");

  request.parsed = *parse_request_target("/");
  router.dispatch(request);
  EXPECT_EQ(hit, "root");
}

TEST(RouterTest, Distinguishes404From405) {
  Router router;
  router.add(Method::kPost, "/submit",
             [](const auto&, const auto&) { return HttpResponse::text(200, ""); });
  HttpRequest request;
  request.method = Method::kGet;
  request.parsed = *parse_request_target("/submit");
  EXPECT_EQ(router.dispatch(request).status, 405);
  request.parsed = *parse_request_target("/other");
  EXPECT_EQ(router.dispatch(request).status, 404);
}

TEST(RouterTest, RegistrationOrderIsPriority) {
  Router router;
  router.add(Method::kGet, "/a/:x", [](const auto&, const auto&) {
    return HttpResponse::text(200, "param");
  });
  router.add(Method::kGet, "/a/literal", [](const auto&, const auto&) {
    return HttpResponse::text(200, "literal");
  });
  HttpRequest request;
  request.parsed = *parse_request_target("/a/literal");
  EXPECT_EQ(router.dispatch(request).body, "param");  // first registered wins
}

TEST(RouterTest, RejectsMalformedPatterns) {
  Router router;
  auto noop = [](const auto&, const auto&) { return HttpResponse(); };
  EXPECT_THROW(router.add(Method::kGet, "no-slash", noop),
               std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/:", noop), std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/*", noop), std::invalid_argument);
  EXPECT_THROW(router.add(Method::kGet, "/a/*x/b", noop),
               std::invalid_argument);
}

TEST(TcpTest, RoundTripOverRealSockets) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  const std::uint16_t port = listener.port();
  ASSERT_GT(port, 0);

  std::thread server_thread([&] {
    auto conn = listener.accept();
    ASSERT_TRUE(conn.ok());
    HttpServer http(echo_handler);
    http.serve(*conn.value());
  });

  auto client = tcp_connect(port);
  ASSERT_TRUE(client.ok());
  HttpClient http_client;
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/tcp";
  request.body = "over the wire";
  request.headers.set("Connection", "close");
  auto response = http_client.roundtrip(*client.value(), request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "POST /tcp body=over the wire");
  client.value()->close();
  server_thread.join();
  listener.close();
}

}  // namespace
}  // namespace w5::net
