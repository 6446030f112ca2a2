// Reactor serving core (DESIGN.md §15): the epoll edge-triggered
// EventLoopHttpServer and its hashed timer wheel. Covers the wheel's
// schedule/expire/lap semantics, then drives the reactor over real TCP
// sockets: keep-alive, pipelining, parked responses answered from
// another thread, slow-client reaping (408 / silent close / write
// timeout), oversize rejections, fault injection through the
// connection decorator, and the connection-plane gauges under hundreds
// of idle connections.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop_server.h"
#include "net/fault.h"
#include "net/http_client.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"
#include "net/tracing.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace w5::net {
namespace {

using namespace std::chrono_literals;

// ---- Timer wheel -----------------------------------------------------------

TEST(TimerWheel, FiresOnlyOncePastDeadline) {
  TimerWheel wheel(1'000, 8);
  wheel.schedule(0, 2'500, 42);
  EXPECT_EQ(wheel.size(), 1u);

  std::vector<std::uint64_t> fired;
  const auto collect = [&](std::uint64_t key, util::Micros) {
    fired.push_back(key);
  };
  wheel.expire(2'000, collect);
  EXPECT_TRUE(fired.empty()) << "fired before its deadline";
  wheel.expire(3'000, collect);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 42u);
  EXPECT_TRUE(wheel.empty());
  wheel.expire(10'000, collect);
  EXPECT_EQ(fired.size(), 1u) << "an entry fired twice";
}

TEST(TimerWheel, EntryBeyondHorizonSurvivesTheLap) {
  TimerWheel wheel(1'000, 4);  // 4 ms horizon
  wheel.schedule(0, 6'500, 7);  // > one revolution out
  std::vector<std::uint64_t> fired;
  const auto collect = [&](std::uint64_t key, util::Micros) {
    fired.push_back(key);
  };
  // A full revolution passes its slot once without firing it.
  wheel.expire(4'000, collect);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.size(), 1u);
  wheel.expire(7'000, collect);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
}

TEST(TimerWheel, PastDeadlineFiresWithinOneSlot) {
  TimerWheel wheel(1'000, 8);
  wheel.schedule(5'000, 1'000, 9);  // already overdue when scheduled
  std::vector<std::uint64_t> fired;
  wheel.expire(6'100, [&](std::uint64_t key, util::Micros) {
    fired.push_back(key);
  });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 9u);
}

TEST(TimerWheel, ExpireReportsTheScheduledDeadline) {
  // The reactor detects stale entries by deadline mismatch, so expire
  // must hand back the deadline each entry was scheduled with.
  TimerWheel wheel(1'000, 8);
  wheel.schedule(0, 2'500, 1);
  util::Micros reported = 0;
  wheel.expire(4'000, [&](std::uint64_t, util::Micros deadline) {
    reported = deadline;
  });
  EXPECT_EQ(reported, 2'500);
}

TEST(TimerWheel, NextDeadlineBracketsTheEarliestEntry) {
  TimerWheel wheel(1'000, 8);
  EXPECT_EQ(wheel.next_deadline(0), -1) << "empty wheel should say sleep";
  wheel.schedule(0, 2'500, 1);
  const util::Micros next = wheel.next_deadline(0);
  // The hint may be quantized up to one slot past the true deadline,
  // never before it minus a slot (a too-early hint is just one spurious
  // wakeup; a too-late hint would delay the reap).
  EXPECT_GE(next, 2'500 - 1'000);
  EXPECT_LE(next, 2'500 + 1'000);
}

// ---- Reactor over real sockets ---------------------------------------------

HttpResponse echo_handler(const HttpRequest& request) {
  return HttpResponse::text(200, "echo:" + request.body);
}

// Reads one full HTTP response off a raw connection (blocking reads).
util::Result<HttpResponse> read_response(Connection& connection) {
  ResponseParser parser;
  char buf[4096];
  while (!parser.complete() && !parser.failed()) {
    auto n = connection.read(buf, sizeof(buf));
    if (!n.ok()) return n.error();
    if (n.value() == 0) break;
    parser.feed(std::string_view(buf, n.value()));
  }
  if (parser.failed()) return parser.error();
  if (!parser.complete())
    return util::make_error("http.incomplete", "EOF before full response");
  return parser.take();
}

// Reads back-to-back pipelined responses: one TCP segment packs several
// responses, so the surplus past each boundary must be carried into the
// next parse (read_response would silently drop it).
class PipelinedReader {
 public:
  explicit PipelinedReader(Connection& connection) : connection_(connection) {}

  util::Result<HttpResponse> next() {
    ResponseParser parser;
    char buf[4096];
    while (!parser.complete() && !parser.failed()) {
      if (off_ < stream_.size()) {
        off_ += parser.feed(std::string_view(stream_).substr(off_));
        if (off_ >= stream_.size()) {
          stream_.clear();
          off_ = 0;
        }
        continue;
      }
      auto n = connection_.read(buf, sizeof(buf));
      if (!n.ok()) return n.error();
      if (n.value() == 0)
        return util::make_error("http.incomplete", "EOF before full response");
      stream_.append(buf, n.value());
    }
    if (parser.failed()) return parser.error();
    return parser.take();
  }

 private:
  Connection& connection_;
  std::string stream_;  // unconsumed bytes past the last response boundary
  std::size_t off_ = 0;
};

// One reactor on its own thread, handlers inline on its loop.
class ReactorServer {
 public:
  struct Config {
    ServerHandler handler = echo_handler;
    // Set: answers through the Responder instead of `handler`.
    EventLoopHttpServer::Handler respond;
    ParserLimits limits{};
    ServerOptions options{};
    EventLoopOptions loop_options{};
    ServerStats* stats = nullptr;
  };

  explicit ReactorServer(Config config)
      : server_(config.respond
                    ? std::move(config.respond)
                    : EventLoopHttpServer::blocking(std::move(config.handler)),
                config.limits, config.options, std::move(config.loop_options),
                config.stats) {
    // Deep backlog: connection-burst tests outpace a single-core accept
    // loop, and a 16-deep SYN queue would stall them on retransmits.
    EXPECT_TRUE(listener_.listen(0, 512).ok());
    thread_ = std::thread([this] { accepted_ = server_.serve(listener_); });
  }

  ~ReactorServer() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    listener_.close();
    thread_.join();
  }

  std::uint16_t port() const { return listener_.port(); }
  std::size_t accepted() const { return accepted_; }

 private:
  EventLoopHttpServer server_;
  TcpListener listener_;
  std::thread thread_;
  std::size_t accepted_ = 0;
};

TEST(EventLoopServer, RoundtripAndShutdownCount) {
  ServerStats stats;
  ReactorServer server({.stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/echo";
  request.body = "hello";
  request.headers.set("Connection", "close");
  HttpClient http;
  auto response = http.roundtrip(*client.value(), request);
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "echo:hello");
  EXPECT_EQ(response.value().headers.get("Connection"), "close");
  server.stop();
  EXPECT_EQ(server.accepted(), 1u);
  EXPECT_EQ(stats.accepted_total.load(), 1u);
  EXPECT_EQ(stats.open.load(), 0) << "open gauge must unwind to zero";
  EXPECT_EQ(stats.idle.load(), 0);
}

TEST(EventLoopServer, KeepAliveServesSequentialRequests) {
  ServerStats stats;
  ReactorServer server({.stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 5; ++i) {
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/echo";
    request.body = "req" + std::to_string(i);
    ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 200);
    EXPECT_EQ(response.value().body, "echo:req" + std::to_string(i));
  }
  // The client can observe the last response before the loop thread
  // bumps the counter; give the increment a moment to land.
  for (int i = 0; i < 2000 && stats.handled_total.load() < 5; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(stats.handled_total.load(), 5u);
}

TEST(EventLoopServer, PipelinedRequestsInOneBufferAnswerInOrder) {
  ReactorServer server({});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  // Three back-to-back requests in a single write: the reactor must
  // answer each in order, re-feeding buffered surplus between responses.
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/echo";
    request.body = "p" + std::to_string(i);
    wire += request.to_wire();
  }
  ASSERT_TRUE(client.value()->write(wire).ok());
  PipelinedReader reader(*client.value());
  for (int i = 0; i < 3; ++i) {
    auto response = reader.next();
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().body, "echo:p" + std::to_string(i));
  }
}

// ---- Parked responses: the handler answers later, from another thread ----

// Holds the Responders of "/park" requests until the test releases them;
// every other request is answered at once.
class ParkingLot {
 public:
  EventLoopHttpServer::Handler handler() {
    return [this](const HttpRequest& request, Responder respond) {
      if (request.parsed.path != "/park") {
        respond(echo_handler(request));
        return;
      }
      const std::lock_guard<std::mutex> lock(mutex_);
      parked_.push_back({request.body, std::move(respond)});
      ++total_;
      cv_.notify_all();
    };
  }

  // Blocks until `n` requests have parked in all.
  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, 5s, [&] { return total_ >= n; });
  }
  std::size_t total() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }

  // Answers the oldest parked request from the calling (non-loop) thread.
  // The Responder is returned so a test can call it again.
  Responder release_oldest() {
    std::unique_lock<std::mutex> lock(mutex_);
    Parked parked = std::move(parked_.front());
    parked_.erase(parked_.begin());
    lock.unlock();
    parked.respond(HttpResponse::text(200, "parked:" + parked.body));
    return parked.respond;
  }

 private:
  struct Parked {
    std::string body;
    Responder respond;
  };
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Parked> parked_;
  std::size_t total_ = 0;
};

std::string post_wire(const std::string& target, const std::string& body) {
  HttpRequest request;
  request.method = Method::kPost;
  request.target = target;
  request.body = body;
  return request.to_wire();
}

TEST(EventLoopServer, ParkedResponseLeavesTheLoopServingOthers) {
  ParkingLot lot;
  ReactorServer server({.respond = lot.handler()});
  auto parked = tcp_connect(server.port());
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(parked.value()->write(post_wire("/park", "a")).ok());
  ASSERT_TRUE(lot.wait_for(1));
  // One loop, and its only other connection is parked: it must still
  // answer this one.
  auto other = tcp_connect(server.port());
  ASSERT_TRUE(other.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(other.value()->write(post_wire("/echo", "o")).ok());
    auto response = read_response(*other.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().body, "echo:o");
  }
  lot.release_oldest();  // from this thread: through the loop's mailbox
  auto response = read_response(*parked.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "parked:a");
}

TEST(EventLoopServer, PipelinedRequestsBehindAParkedOneAnswerInOrder) {
  ParkingLot lot;
  ReactorServer server({.respond = lot.handler()});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()
                  ->write(post_wire("/park", "p0") + post_wire("/park", "p1") +
                          post_wire("/echo", "e2") + post_wire("/park", "p3"))
                  .ok());
  PipelinedReader reader(*client.value());
  ASSERT_TRUE(lot.wait_for(1));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(lot.total(), 1u) << "a request behind a parked one was dispatched";
  // A second call of an answered Responder is dropped: it must not answer
  // the request pipelined behind.
  Responder first = lot.release_oldest();
  auto response = reader.next();
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "parked:p0");
  ASSERT_TRUE(lot.wait_for(2));
  first(HttpResponse::text(200, "stale"));
  lot.release_oldest();
  response = reader.next();
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "parked:p1");
  response = reader.next();
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:e2");
  ASSERT_TRUE(lot.wait_for(3));
  lot.release_oldest();
  response = reader.next();
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "parked:p3");
}

TEST(EventLoopServer, ClientGoneWhileParkedDropsTheAnswer) {
  ParkingLot lot;
  ServerStats stats;
  ReactorServer server({.respond = lot.handler(), .stats = &stats});
  {
    auto gone = tcp_connect(server.port());
    ASSERT_TRUE(gone.ok());
    ASSERT_TRUE(gone.value()->write(post_wire("/park", "gone")).ok());
    ASSERT_TRUE(lot.wait_for(1));
  }  // the client hangs up while its request is parked
  auto other = tcp_connect(server.port());
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(other.value()->write(post_wire("/echo", "still")).ok());
  auto response = read_response(*other.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:still");
  // The late answer finds a dead (or dying) connection and is dropped;
  // the loop carries on, and the dead connection is reclaimed.
  lot.release_oldest();
  ASSERT_TRUE(other.value()->write(post_wire("/echo", "after")).ok());
  response = read_response(*other.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:after");
  for (int i = 0; i < 2000 && stats.open.load() != 1; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(stats.open.load(), 1);
}

TEST(EventLoopServer, DeepPipelineDrainsIterativelyWithInlineDispatch) {
  // 400 pipelined requests in one buffer with inline dispatch: every
  // completion lands synchronously and the continuation after each
  // response must be deferred, not recursed — a frame per request (each
  // with pump_read's 16 KiB buffer) would chew through the stack.
  ReactorServer server({});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  constexpr int kDepth = 400;
  std::string wire;
  for (int i = 0; i < kDepth; ++i) {
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/echo";
    request.body = "d" + std::to_string(i);
    wire += request.to_wire();
  }
  ASSERT_TRUE(client.value()->write(wire).ok());
  PipelinedReader reader(*client.value());
  for (int i = 0; i < kDepth; ++i) {
    auto response = reader.next();
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.error().code;
    EXPECT_EQ(response.value().body, "echo:d" + std::to_string(i));
  }
}

TEST(EventLoopServer, SlowHeaderClientIsReapedWith408) {
  ServerStats stats;
  ReactorServer server({.options = {.header_deadline_micros = 150'000,
                                    .write_timeout_micros = 500'000},
                        .stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->write("GET /slow HT").ok());
  const auto started = std::chrono::steady_clock::now();
  auto response = read_response(*client.value());
  const auto elapsed = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 408);
  EXPECT_EQ(response.value().headers.get("Connection"), "close");
  EXPECT_LT(elapsed, 2s);
  EXPECT_GE(stats.reaped_total.load(), 1u);

  // The loop is free again: a well-formed request succeeds promptly.
  auto healthy = tcp_connect(server.port());
  ASSERT_TRUE(healthy.ok());
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/ok";
  request.body = "after-reap";
  request.headers.set("Connection", "close");
  HttpClient http;
  auto ok = http.roundtrip(*healthy.value(), request);
  ASSERT_TRUE(ok.ok()) << ok.error().code;
  EXPECT_EQ(ok.value().body, "echo:after-reap");
}

TEST(EventLoopServer, StalledBodyIsReapedWith408) {
  ServerStats stats;
  ReactorServer server({.options = {.header_deadline_micros = 500'000,
                                    .body_deadline_micros = 150'000,
                                    .write_timeout_micros = 500'000},
                        .stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()
                  ->write("POST /upload HTTP/1.1\r\nContent-Length: "
                          "1000\r\n\r\npartial")
                  .ok());
  auto response = read_response(*client.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 408);
  EXPECT_GE(stats.reaped_total.load(), 1u);
}

TEST(EventLoopServer, IdleKeepAliveConnectionIsClosedSilently) {
  ServerStats stats;
  ReactorServer server(
      {.options = {.header_deadline_micros = 100'000}, .stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  // Send nothing: the idle cap closes us with a clean EOF, no 408.
  char buf[64];
  auto n = client.value()->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.error().code;
  EXPECT_EQ(n.value(), 0u);
  EXPECT_GE(stats.reaped_total.load(), 1u);
}

TEST(EventLoopServer, SecondRequestIdleTimeoutAlsoSilent) {
  // The idle cap must re-arm after a served request, not just on accept.
  ReactorServer server({.options = {.header_deadline_micros = 150'000,
                                    .write_timeout_micros = 500'000}});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.target = "/first";
  ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
  auto first = read_response(*client.value());
  ASSERT_TRUE(first.ok()) << first.error().code;
  EXPECT_EQ(first.value().status, 200);
  // Then go quiet: EOF (silent close), not a 408.
  char buf[64];
  auto n = client.value()->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok()) << n.error().code;
  EXPECT_EQ(n.value(), 0u);
}

TEST(EventLoopServer, OversizeBodyGets413AndHeadersGet431) {
  ServerStats stats;
  ReactorServer server({.limits = {.max_headers_bytes = 512,
                                   .max_body_bytes = 64},
                        .stats = &stats});
  {
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/big";
    request.body = std::string(65, 'x');
    ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 413);
  }
  {
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.target = "/padded";
    request.headers.set("X-Padding", std::string(600, 'p'));
    ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 431);
  }
  EXPECT_EQ(stats.rejected_413_total.load(), 1u);
  EXPECT_EQ(stats.rejected_431_total.load(), 1u);
}

// Early exits (DESIGN.md §16): the reactor stamps a validated inbound
// X-W5-Trace onto 413/431/408 rejections, so a caller's stitched trace
// shows where the hop died even when no handler ever ran.
TEST(EventLoopServer, EarlyExitsEchoInboundTrace) {
  ReactorServer server({.limits = {.max_headers_bytes = 512,
                                   .max_body_bytes = 64},
                        .options = {.header_deadline_micros = 100'000}});
  {  // 413: headers (with the trace id) parsed, body over budget.
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/big";
    request.headers.set("X-W5-Trace", "trace-413");
    request.body = std::string(65, 'x');
    ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 413);
    EXPECT_EQ(response.value().headers.get("X-W5-Trace").value_or(""),
              "trace-413");
  }
  {  // 431: the trace header arrives before the oversized one, so the
    // incremental parser has already banked it when the limit trips.
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    std::string wire = "GET /padded HTTP/1.1\r\nX-W5-Trace: trace-431\r\n";
    wire += "X-Padding: " + std::string(600, 'p') + "\r\n\r\n";
    ASSERT_TRUE(client.value()->write(wire).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 431);
    EXPECT_EQ(response.value().headers.get("X-W5-Trace").value_or(""),
              "trace-431");
  }
  {  // 408: a stalled request that already delivered its trace header.
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.value()
                    ->write("GET /slow HTTP/1.1\r\nX-W5-Trace: trace-408\r\n")
                    .ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 408);
    EXPECT_EQ(response.value().headers.get("X-W5-Trace").value_or(""),
              "trace-408");
  }
  {  // An *invalid* trace token must never round-trip into a response.
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/big";
    request.headers.set("X-W5-Trace", "bad bytes{}!");
    request.body = std::string(65, 'x');
    ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
    auto response = read_response(*client.value());
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 413);
    EXPECT_FALSE(response.value().headers.get("X-W5-Trace").has_value());
  }
}

// Reactor stage attribution (DESIGN.md §16): per-request absolute stamps
// reported after the last response byte, plus the per-loop counter plane.
TEST(EventLoopServer, StageTelemetryReportsOrderedStamps) {
  if (!util::kTelemetryEnabled) return;
  util::Histogram loop_lag({100, 1'000, 10'000});
  util::Histogram epoll_batch({1, 4, 16});
  util::Histogram timer_drift({1'000, 10'000});
  std::vector<LoopStats> loop_stats(1);
  std::mutex samples_mutex;
  std::vector<StageSample> samples;
  EventLoopOptions loop_options;
  loop_options.telemetry.loop_lag_micros = &loop_lag;
  loop_options.telemetry.epoll_batch = &epoll_batch;
  loop_options.telemetry.timer_drift_micros = &timer_drift;
  loop_options.telemetry.loop_stats = &loop_stats;
  loop_options.telemetry.on_stage = [&](const StageSample& sample) {
    const std::lock_guard<std::mutex> lock(samples_mutex);
    samples.push_back(sample);
  };
  ReactorServer server({.handler =
                            [](const HttpRequest&) {
                              HttpResponse response =
                                  HttpResponse::text(200, "ok");
                              response.headers.set("X-W5-Trace", "tr-stages");
                              return response;
                            },
                        .loop_options = std::move(loop_options)});
  for (int i = 0; i < 3; ++i) {
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.target = "/";
    request.headers.set("Connection", "close");
    HttpClient http;
    auto response = http.roundtrip(*client.value(), request);
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().status, 200);
  }
  server.stop();
  const std::lock_guard<std::mutex> lock(samples_mutex);
  ASSERT_EQ(samples.size(), 3u);
  for (const StageSample& sample : samples) {
    EXPECT_EQ(sample.trace_id, "tr-stages");
    EXPECT_EQ(sample.loop_index, 0u);
    EXPECT_GT(sample.request_start, 0);
    EXPECT_LE(sample.request_start, sample.parse_done);
    EXPECT_LE(sample.parse_done, sample.handler_start);
    EXPECT_LE(sample.handler_start, sample.handler_done);
    EXPECT_LE(sample.handler_done, sample.write_done);
  }
  EXPECT_EQ(loop_stats[0].requests.load(), 3u);
  EXPECT_GT(loop_stats[0].epoll_wakeups.load(), 0u);
  EXPECT_GE(loop_stats[0].epoll_events.load(),
            loop_stats[0].epoll_wakeups.load());
  EXPECT_GT(epoll_batch.count(), 0u);
  EXPECT_EQ(loop_stats[0].connections.load(), 0)
      << "per-loop connection gauge must unwind";
}

TEST(EventLoopServer, MalformedStartLineGets400) {
  ReactorServer server({});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->write("GARBAGE\r\n\r\n").ok());
  auto response = read_response(*client.value());
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().status, 400);
}

TEST(EventLoopServer, WriteTimeoutReapsNeverDrainingReceiver) {
  ServerStats stats;
  ReactorServer server(
      {.handler =
           [](const HttpRequest&) {
             // Far past any kernel buffer pair (send + receive windows
             // can auto-tune into the tens of MB), so the write stalls.
             return HttpResponse::text(200, std::string(64 << 20, 'y'));
           },
       .options = {.write_timeout_micros = 200'000},
       .stats = &stats});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.target = "/huge";
  ASSERT_TRUE(client.value()->write(request.to_wire()).ok());
  // Never read. The reactor must reap the stalled write within the
  // timeout instead of holding the buffers forever.
  for (int i = 0; i < 4000 && stats.reaped_total.load() == 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_GE(stats.reaped_total.load(), 1u);
}

TEST(EventLoopServer, InjectedShortReadsReassemble) {
  // Fault decoration on the event path: scripted 1-byte reads force the
  // incremental parser through maximal fragmentation; the request must
  // still be served correctly.
  EventLoopOptions loop_options;
  loop_options.decorate = [](std::unique_ptr<Connection> inner)
      -> std::unique_ptr<Connection> {
    std::vector<FaultAction> reads(
        64, FaultAction{.kind = FaultKind::kShortRead, .bytes = 1});
    return std::make_unique<FaultyConnection>(
        std::move(inner), FaultSchedule::scripted(std::move(reads), {}));
  };
  ReactorServer server({.loop_options = std::move(loop_options)});
  auto client = tcp_connect(server.port());
  ASSERT_TRUE(client.ok());
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/echo";
  request.body = "fragmented";
  request.headers.set("Connection", "close");
  HttpClient http;
  auto response = http.roundtrip(*client.value(), request);
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:fragmented");
}

TEST(EventLoopServer, InjectedResetIsCountedAndServerSurvives) {
  ServerStats stats;
  std::atomic<int> nth{0};
  EventLoopOptions loop_options;
  loop_options.decorate = [&nth](std::unique_ptr<Connection> inner)
      -> std::unique_ptr<Connection> {
    if (nth.fetch_add(1) == 0) {
      return std::make_unique<FaultyConnection>(
          std::move(inner),
          FaultSchedule::scripted({FaultAction{.kind = FaultKind::kReset}},
                                  {}));
    }
    return inner;
  };
  ReactorServer server(
      {.loop_options = std::move(loop_options), .stats = &stats});
  {
    auto doomed = tcp_connect(server.port());
    ASSERT_TRUE(doomed.ok());
    HttpRequest request;
    request.target = "/doomed";
    ASSERT_TRUE(doomed.value()->write(request.to_wire()).ok());
    char buf[64];
    auto n = doomed.value()->read(buf, sizeof(buf));
    // The injected reset surfaces as EOF or a reset error client-side.
    if (n.ok()) {
      EXPECT_EQ(n.value(), 0u);
    }
  }
  for (int i = 0; i < 2000 && stats.reset_total.load() == 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(stats.reset_total.load(), 1u);

  // The reactor shrugged it off: the next connection is served cleanly.
  auto healthy = tcp_connect(server.port());
  ASSERT_TRUE(healthy.ok());
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/ok";
  request.body = "alive";
  request.headers.set("Connection", "close");
  HttpClient http;
  auto response = http.roundtrip(*healthy.value(), request);
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:alive");
}

TEST(EventLoopServer, HundredsOfIdleConnectionsHoldTheGauges) {
  // The point of the reactor: idle keep-alive connections are epoll
  // entries, not parked threads. Open a few hundred, let them sit, and
  // check the connection-plane gauges track them exactly.
  constexpr int kConns = 300;
  ServerStats stats;
  ReactorServer server({.stats = &stats});
  std::vector<std::unique_ptr<Connection>> clients;
  clients.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok()) << "connect " << i;
    clients.push_back(std::move(client).value());
  }
  // The loop counts a connection open before it counts it idle
  // (add_conn → enter_idle), so wait for both gauges.
  for (int i = 0; i < 5000 && (stats.open.load() < kConns ||
                               stats.idle.load() < kConns);
       ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(stats.open.load(), kConns);
  EXPECT_EQ(stats.idle.load(), kConns);
  EXPECT_EQ(stats.accepted_total.load(),
            static_cast<std::uint64_t>(kConns));

  // One of them wakes up and is served while the rest keep sleeping.
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/wake";
  request.body = "one of many";
  ASSERT_TRUE(clients[kConns / 2]->write(request.to_wire()).ok());
  auto response = read_response(*clients[kConns / 2]);
  ASSERT_TRUE(response.ok()) << response.error().code;
  EXPECT_EQ(response.value().body, "echo:one of many");
  EXPECT_EQ(stats.open.load(), kConns);

  clients.clear();  // mass hangup
  for (int i = 0; i < 5000 && stats.open.load() > 0; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(stats.open.load(), 0);
  EXPECT_EQ(stats.idle.load(), 0);
}

TEST(EventLoopServer, MultipleLoopsShareTheAcceptStream) {
  EventLoopOptions loop_options;
  loop_options.io_threads = 3;
  ReactorServer server({.loop_options = std::move(loop_options)});
  // Round-robin dealing: sequential connections land on different loops;
  // all of them must serve correctly.
  for (int i = 0; i < 9; ++i) {
    auto client = tcp_connect(server.port());
    ASSERT_TRUE(client.ok());
    HttpRequest request;
    request.method = Method::kPost;
    request.target = "/echo";
    request.body = "loop" + std::to_string(i);
    request.headers.set("Connection", "close");
    HttpClient http;
    auto response = http.roundtrip(*client.value(), request);
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().body, "echo:loop" + std::to_string(i));
  }
  server.stop();
  EXPECT_EQ(server.accepted(), 9u);
}

}  // namespace
}  // namespace w5::net
