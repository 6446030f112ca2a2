// Full-stack integration over real TCP sockets: browser-equivalent client
// speaks HTTP/1.1 to a provider served by the TCP listener, exercising
// parse → auth → app → perimeter → serialize end to end, with every
// handler inline on the reactor's loops (DESIGN.md §15).
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <thread>

#include "apps/apps.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "net/http_client.h"
#include "net/tcp.h"

namespace w5 {
namespace {

using net::HttpRequest;
using net::HttpResponse;
using net::Method;

class TcpEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_unique<platform::Provider>(
        platform::ProviderConfig{}, clock_);
    apps::register_standard_apps(*provider_);
    ASSERT_TRUE(listener_.listen(0).ok());
    server_thread_ = std::thread([this] { provider_->serve(listener_); });
  }

  void TearDown() override {
    listener_.close();  // the reactor notices the closed listener
    server_thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }

  // One browser-style request over a fresh connection.
  HttpResponse roundtrip(Method method, const std::string& target,
                         const std::string& body = {},
                         const std::string& cookie = {}) {
    auto connection = net::tcp_connect(port());
    EXPECT_TRUE(connection.ok());
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = body;
    request.headers.set("Connection", "close");
    if (!cookie.empty()) request.headers.set("Cookie", cookie);
    net::HttpClient client;
    auto response = client.roundtrip(*connection.value(), request);
    EXPECT_TRUE(response.ok()) << response.ok();
    return response.ok() ? response.value() : HttpResponse{};
  }

  util::WallClock clock_;
  std::unique_ptr<platform::Provider> provider_;
  net::TcpListener listener_;
  std::thread server_thread_;
};

TEST_F(TcpEndToEnd, BrowserSessionOverRealSockets) {
  // Sign up + log in; lift the cookie from Set-Cookie like a browser.
  EXPECT_EQ(roundtrip(Method::kPost, "/signup",
                      "user=bob&password=hunter2").status,
            201);
  const auto login =
      roundtrip(Method::kPost, "/login", "user=bob&password=hunter2");
  ASSERT_EQ(login.status, 200);
  const std::string set_cookie =
      login.headers.get("Set-Cookie").value_or("");
  ASSERT_TRUE(set_cookie.starts_with("w5session="));
  const std::string cookie =
      set_cookie.substr(0, set_cookie.find(';'));

  // Upload, then view through an app, authenticated by cookie only.
  EXPECT_EQ(roundtrip(Method::kPost, "/data/photos/p1",
                      R"({"title":"over tcp"})", cookie).status,
            201);
  const auto view = roundtrip(
      Method::kGet, "/dev/photoco/photos/view?id=p1", "", cookie);
  EXPECT_EQ(view.status, 200) << view.body;
  EXPECT_NE(view.body.find("over tcp"), std::string::npos);
  EXPECT_EQ(view.headers.get("X-W5-Label"), "sec(bob)");

  // Unauthenticated request to the same URL: perimeter says no.
  const auto blocked =
      roundtrip(Method::kGet, "/dev/photoco/photos/view?id=p1");
  EXPECT_EQ(blocked.status, 403);
  EXPECT_EQ(blocked.body.find("over tcp"), std::string::npos);
}

TEST_F(TcpEndToEnd, MalformedWireBytesGet400) {
  auto connection = net::tcp_connect(port());
  ASSERT_TRUE(connection.ok());
  ASSERT_TRUE(connection.value()->write("GARBAGE\r\n\r\n").ok());
  net::ResponseParser parser;
  char buf[4096];
  while (!parser.complete() && !parser.failed()) {
    auto n = connection.value()->read(buf, sizeof(buf));
    if (!n.ok() || n.value() == 0) break;
    parser.feed(std::string_view(buf, n.value()));
  }
  ASSERT_TRUE(parser.complete());
  EXPECT_EQ(parser.take().status, 400);
}

// Threads in this process right now.
std::size_t thread_count() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator{}));
}

TEST(TcpEndToEndServe, ServeRunsOnlyItsLoops) {
  // Every handler runs inline on a reactor loop, so serve() starts its
  // extra loops and nothing else: the serving thread plus io_threads - 1.
  for (const std::size_t io_threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(io_threads);
    util::WallClock clock;
    platform::ProviderConfig config;
    config.io_threads = io_threads;
    platform::Provider provider(std::move(config), clock);
    net::TcpListener listener;
    ASSERT_TRUE(listener.listen(0).ok());
    const std::size_t before = thread_count();
    std::thread server_thread([&] { provider.serve(listener); });
    const auto response = [&]() -> util::Result<HttpResponse> {
      auto connection = net::tcp_connect(listener.port());
      if (!connection.ok()) return connection.error();
      HttpRequest request;
      request.method = Method::kGet;
      request.target = "/metrics";
      request.headers.set("Connection", "close");
      return net::HttpClient().roundtrip(*connection.value(), request);
    }();
    const std::size_t serving = thread_count();
    listener.close();
    server_thread.join();

    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body.find("w5_pool_"), std::string::npos);
    EXPECT_EQ(serving, before + io_threads);
  }
}

TEST_F(TcpEndToEnd, KeepAliveSessionReusesOneConnection) {
  // Several requests over one connection: framing, keep-alive, and the
  // gateway's session handling all hold on a reused socket.
  auto connection = net::tcp_connect(port());
  ASSERT_TRUE(connection.ok());
  net::HttpClient client;
  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.method = Method::kGet;
    request.target = "/stats";
    auto response = client.roundtrip(*connection.value(), request);
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 200);
  }
}

}  // namespace
}  // namespace w5
