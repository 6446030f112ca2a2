// Durable writes over the reactor (DESIGN.md §13, §15): with fsync
// durability, Provider::serve parks a connection whose request wrote
// something until the WAL reports the write durable, and serves the other
// connections meanwhile. Covered here over real loopback sockets: a power
// cut at WAL frame boundaries never loses an acknowledged put, a failing
// log answers 503 and never acknowledges again, pipelined requests behind
// a parked put keep their order, a client that hangs up mid-put leaves the
// loop serving the rest, /metrics and /trace/:id count the answer the client
// got, and /trace/:id names the parked time.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/auth.h"
#include "core/provider.h"
#include "net/fault.h"
#include "net/http_client.h"
#include "net/tcp.h"
#include "store/durable_store.h"
#include "util/clock.h"
#include "util/json.h"
#include "util/metrics.h"

namespace w5::platform {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using net::HttpRequest;
using net::HttpResponse;
using net::Method;

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("w5_durable_serve_" + tag + "_" + std::to_string(::getpid()) +
              "_" + std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ProviderConfig durable_config(const std::string& dir,
                              net::FileFaultPlan fault = {}) {
  ProviderConfig config;
  config.durability.enabled = true;
  config.durability.dir = dir;
  config.durability.mode = store::DurabilityMode::kFsync;
  config.durability.snapshot_every_entries = 0;  // one segment, no snapshots
  config.durability.fault = std::move(fault);
  return config;
}

// A durable provider served on loopback; bob is signed up in process.
class DurableServer {
 public:
  DurableServer(const std::string& dir, net::FileFaultPlan fault = {})
      : provider_(durable_config(dir, std::move(fault)), clock_) {
    EXPECT_TRUE(provider_.durability_status().ok());
    EXPECT_TRUE(provider_.signup("bob", "bobpw").ok());
    cookie_ = std::string(kSessionCookie) + "=" +
              provider_.login("bob", "bobpw").value();
    EXPECT_TRUE(listener_.listen(0).ok());
    thread_ = std::thread([this] { provider_.serve(listener_); });
  }
  ~DurableServer() { stop(); }

  void stop() {
    if (!thread_.joinable()) return;
    listener_.close();
    thread_.join();
  }

  Provider& provider() { return provider_; }
  std::uint16_t port() const { return listener_.port(); }
  const std::string& cookie() const { return cookie_; }
  // WAL bytes attempted so far, once everything pending is on disk.
  std::uint64_t wal_bytes() {
    EXPECT_TRUE(provider_.durable()->flush().ok());
    return provider_.durable()->wal()->segment_bytes();
  }

 private:
  util::SimClock clock_;
  Provider provider_;
  std::string cookie_;
  net::TcpListener listener_;
  std::thread thread_;
};

HttpRequest make_request(Method method, const std::string& target,
                         const std::string& cookie,
                         const std::string& body = {}) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.body = body;
  request.headers.set("Cookie", cookie);
  return request;
}

// Every note id and body has the same length, so every put's WAL frame
// has the same size and crash offsets can land on frame boundaries.
std::string note_id(int client, int i) {
  char id[16];
  std::snprintf(id, sizeof(id), "c%d-%02d", client, i);
  return id;
}
std::string note_body(const std::string& id) {
  return R"({"v":")" + id + R"("})";
}

// One keep-alive client putting `puts` notes, in order.
struct PutLog {
  std::vector<std::string> acked_before_crash;  // 201 seen, plan not crashed
  std::vector<int> statuses;
  std::vector<std::string> bodies;
};
PutLog put_notes(std::uint16_t port, const std::string& cookie, int client,
                 int puts, const net::FileFaultPlan& fault) {
  PutLog log;
  auto connection = net::tcp_connect(port);
  EXPECT_TRUE(connection.ok());
  if (!connection.ok()) return log;
  net::HttpClient http;
  for (int i = 0; i < puts; ++i) {
    const std::string id = note_id(client, i);
    auto response = http.roundtrip(
        *connection.value(),
        make_request(Method::kPost, "/data/notes/" + id, cookie,
                     note_body(id)));
    EXPECT_TRUE(response.ok()) << response.error().code;
    if (!response.ok()) return log;
    log.statuses.push_back(response.value().status);
    log.bodies.push_back(response.value().body);
    // Read the plan only after the answer arrived: if it has not crashed
    // yet, the put's frame reached disk before any crash could cut it.
    if (response.value().status == 201 && !fault.crashed())
      log.acked_before_crash.push_back(id);
  }
  return log;
}

std::vector<PutLog> put_from_clients(DurableServer& server, int clients,
                                     int puts,
                                     const net::FileFaultPlan& fault) {
  std::vector<PutLog> logs(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      logs[static_cast<std::size_t>(c)] =
          put_notes(server.port(), server.cookie(), c, puts, fault);
    });
  }
  for (auto& thread : threads) thread.join();
  return logs;
}

// The notes a fresh provider recovers from `dir`, as id → body.
std::vector<std::pair<std::string, std::string>> recovered_notes(
    const std::string& dir, int clients, int puts) {
  util::SimClock clock;
  Provider recovered(durable_config(dir), clock);
  EXPECT_TRUE(recovered.durability_status().ok());
  std::vector<std::pair<std::string, std::string>> notes;
  for (int c = 0; c < clients; ++c) {
    for (int i = 0; i < puts; ++i) {
      const std::string id = note_id(c, i);
      auto record = recovered.store().get(os::kKernelPid, "notes", id);
      if (record.ok()) notes.emplace_back(id, record.value().data.dump());
    }
  }
  return notes;
}

constexpr int kClients = 4;
constexpr int kPuts = 20;

TEST(DurableServeTest, PowerCutAtFrameBoundariesLosesNoAcknowledgedPut) {
  // Calibrate the frame sizes on a fault-free run of the same set-up.
  std::uint64_t setup_bytes = 0;
  std::uint64_t put_bytes = 0;
  {
    ScratchDir dir("calibrate");
    DurableServer server(dir.path());
    setup_bytes = server.wal_bytes();
    const PutLog log = put_notes(server.port(), server.cookie(), 0, 2, {});
    ASSERT_EQ(log.statuses, (std::vector<int>{201, 201}));
    const std::uint64_t two = server.wal_bytes() - setup_bytes;
    put_bytes = two / 2;
    ASSERT_EQ(put_bytes * 2, two) << "put frames differ in size";
  }

  for (const std::uint64_t frames : {0u, 7u, 23u, 61u}) {
    SCOPED_TRACE("power cut after " + std::to_string(frames) + " put frames");
    ScratchDir dir("cut");
    const net::FileFaultPlan fault =
        net::FileFaultPlan::crash_at(setup_bytes + frames * put_bytes);
    std::vector<std::string> acked;
    {
      DurableServer server(dir.path(), fault);
      for (const PutLog& log :
           put_from_clients(server, kClients, kPuts, fault)) {
        EXPECT_EQ(log.statuses.size(), static_cast<std::size_t>(kPuts));
        acked.insert(acked.end(), log.acked_before_crash.begin(),
                     log.acked_before_crash.end());
      }
    }
    EXPECT_TRUE(fault.crashed());
    // Exactly the frames before the cut survive, and every put a client
    // saw acknowledged before the cut is among them.
    const auto notes = recovered_notes(dir.path(), kClients, kPuts);
    EXPECT_EQ(notes.size(), frames);
    EXPECT_LE(acked.size(), frames);
    if (frames > 20) {
      EXPECT_GT(acked.size(), 0u);
    }
    for (const std::string& id : acked) {
      const auto it = std::find_if(notes.begin(), notes.end(),
                                   [&](const auto& note) {
                                     return note.first == id;
                                   });
      ASSERT_NE(it, notes.end()) << "acknowledged put " << id << " was lost";
      EXPECT_EQ(it->second, note_body(id));
    }
  }
}

TEST(DurableServeTest, FailedLogAnswers503AndNeverAcknowledgesAgain) {
  std::uint64_t setup_bytes = 0;
  std::uint64_t put_bytes = 0;
  {
    ScratchDir dir("calibrate_error");
    DurableServer server(dir.path());
    setup_bytes = server.wal_bytes();
    ASSERT_EQ(put_notes(server.port(), server.cookie(), 0, 1, {}).statuses,
              std::vector<int>{201});
    put_bytes = server.wal_bytes() - setup_bytes;
  }
  // The injected write error tears the 13th put frame.
  constexpr std::uint64_t kWhole = 12;
  ScratchDir dir("error");
  const net::FileFaultPlan fault = net::FileFaultPlan::error_at(
      setup_bytes + kWhole * put_bytes + put_bytes / 2);
  std::vector<std::string> acked;
  int failed = 0;
  {
    DurableServer server(dir.path(), fault);
    // No crash here (the plan only errors), so every 201 is recorded.
    for (const PutLog& log : put_from_clients(server, kClients, kPuts, {})) {
      ASSERT_EQ(log.statuses.size(), static_cast<std::size_t>(kPuts));
      acked.insert(acked.end(), log.acked_before_crash.begin(),
                   log.acked_before_crash.end());
      bool seen_failure = false;
      for (std::size_t i = 0; i < log.statuses.size(); ++i) {
        if (log.statuses[i] == 201) {
          EXPECT_FALSE(seen_failure) << "a 2xx after the log failed";
          continue;
        }
        // Parked when the log failed, or arriving after: the same 503 the
        // in-process path gives, never an acknowledgement.
        EXPECT_EQ(log.statuses[i], 503);
        EXPECT_EQ(log.bodies[i], R"({"error":"wal.failed"})");
        seen_failure = true;
        ++failed;
      }
    }
    EXPECT_TRUE(server.provider().durable()->wal()->failed());
    EXPECT_EQ(server.provider().audit().count(AuditKind::kFlowDenied), 0u);
  }
  EXPECT_TRUE(fault.write_errored());
  EXPECT_EQ(static_cast<int>(acked.size()) + failed, kClients * kPuts);
  EXPECT_LE(acked.size(), kWhole);
  const auto notes = recovered_notes(dir.path(), kClients, kPuts);
  EXPECT_EQ(notes.size(), kWhole);
  for (const std::string& id : acked) {
    EXPECT_NE(std::find_if(notes.begin(), notes.end(),
                           [&](const auto& note) { return note.first == id; }),
              notes.end())
        << "acknowledged put " << id << " was lost";
  }
}

TEST(DurableServeTest, FailedParkedPutCountsAndTracesThe503ItAnswers) {
  // One client, so the put whose frame the injected error tears is parked
  // when the log fails: its handler said 201, the client gets 503, and
  // /metrics and /trace/:id must say what the client got.
  ScratchDir dir("count");
  const net::FileFaultPlan fault = net::FileFaultPlan::error_at(6000);
  DurableServer server(dir.path(), fault);
  util::MetricsRegistry& metrics = server.provider().metrics();
  const util::Counter& ok = metrics.counter("w5_responses_total{class=\"2xx\"}");
  const util::Counter& failed =
      metrics.counter("w5_responses_total{class=\"5xx\"}");
  const std::uint64_t ok_before = ok.value();
  const std::uint64_t failed_before = failed.value();

  auto connection = net::tcp_connect(server.port());
  ASSERT_TRUE(connection.ok());
  net::HttpClient http;
  std::uint64_t ok_seen = 0;
  std::vector<std::string> failed_traces;
  for (int i = 0; i < 60; ++i) {
    const std::string id = note_id(0, i);
    HttpRequest request = make_request(Method::kPost, "/data/notes/" + id,
                                       server.cookie(), note_body(id));
    const std::string trace_id = "count-" + std::to_string(i);
    request.headers.set("X-W5-Trace", trace_id);
    auto response = http.roundtrip(*connection.value(), request);
    ASSERT_TRUE(response.ok()) << response.error().code;
    if (response.value().status == 201) {
      ++ok_seen;
    } else {
      ASSERT_EQ(response.value().status, 503);
      failed_traces.push_back(trace_id);
    }
  }
  EXPECT_TRUE(fault.write_errored());
  ASSERT_GT(ok_seen, 0u);
  ASSERT_FALSE(failed_traces.empty());
  if constexpr (util::kTelemetryEnabled) {
    EXPECT_EQ(ok.value() - ok_before, ok_seen);
    EXPECT_EQ(failed.value() - failed_before, failed_traces.size());
  }
  for (const std::string& trace_id : failed_traces) {
    const HttpResponse trace =
        server.provider().http(Method::kGet, "/trace/" + trace_id);
    ASSERT_EQ(trace.status, 200) << trace_id;
    EXPECT_EQ(util::Json::parse(trace.body).value().at("status").as_int(), 503)
        << trace_id;
  }
}

// Reads back-to-back responses off one connection, carrying the bytes
// past each response boundary into the next.
class ResponseStream {
 public:
  explicit ResponseStream(net::Connection& connection)
      : connection_(connection) {}

  util::Result<HttpResponse> next() {
    net::ResponseParser parser;
    char buf[4096];
    while (!parser.complete() && !parser.failed()) {
      if (!buffered_.empty()) {
        buffered_.erase(0, parser.feed(buffered_));
        continue;
      }
      auto n = connection_.read(buf, sizeof(buf));
      if (!n.ok()) return n.error();
      if (n.value() == 0)
        return util::make_error("http.incomplete", "EOF before a response");
      buffered_.append(buf, n.value());
    }
    if (parser.failed()) return parser.error();
    return parser.take();
  }

 private:
  net::Connection& connection_;
  std::string buffered_;
};

TEST(DurableServeTest, PipelinedPutsAndReadsAnswerInOrder) {
  ScratchDir dir("pipeline");
  DurableServer server(dir.path());
  auto connection = net::tcp_connect(server.port());
  ASSERT_TRUE(connection.ok());
  // Puts and reads of the same notes in one write: each read must see the
  // put before it, so nothing behind a parked put may run ahead of it.
  struct Step {
    Method method;
    std::string id;
    std::string body;
  };
  const std::vector<Step> steps = {
      {Method::kPost, "p0", R"({"n":1})"}, {Method::kGet, "p0", ""},
      {Method::kPost, "p1", R"({"n":2})"}, {Method::kPost, "p0", R"({"n":3})"},
      {Method::kGet, "p0", ""},            {Method::kGet, "p1", ""},
  };
  std::string wire;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    HttpRequest request = make_request(steps[i].method,
                                       "/data/notes/" + steps[i].id,
                                       server.cookie(), steps[i].body);
    request.headers.set("X-W5-Trace", "pipe-" + std::to_string(i));
    wire += request.to_wire();
  }
  ASSERT_TRUE(connection.value()->write(wire).ok());
  ResponseStream stream(*connection.value());
  const std::vector<std::string> want = {
      R"({"ok":true})", R"({"n":1})", R"({"ok":true})",
      R"({"ok":true})", R"({"n":3})", R"({"n":2})",
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    auto response = stream.next();
    ASSERT_TRUE(response.ok()) << response.error().code;
    EXPECT_EQ(response.value().headers.get("X-W5-Trace"),
              "pipe-" + std::to_string(i));
    EXPECT_EQ(response.value().status,
              steps[i].method == Method::kPost ? 201 : 200);
    EXPECT_EQ(response.value().body, want[i]);
  }
}

TEST(DurableServeTest, ClientThatHangsUpMidPutLeavesTheOthersServed) {
  ScratchDir dir("hangup");
  DurableServer server(dir.path());
  auto steady = net::tcp_connect(server.port());
  ASSERT_TRUE(steady.ok());
  net::HttpClient http;
  for (int i = 0; i < 20; ++i) {
    // A client sends a put and hangs up at once — its connection is
    // parked or about to be when the close lands.
    {
      auto gone = net::tcp_connect(server.port());
      ASSERT_TRUE(gone.ok());
      const std::string id = "h" + std::to_string(i);
      ASSERT_TRUE(gone.value()
                      ->write(make_request(Method::kPost, "/data/notes/" + id,
                                           server.cookie(), R"({"h":1})")
                                  .to_wire())
                      .ok());
    }
    const std::string id = "s" + std::to_string(i);
    auto put = http.roundtrip(
        *steady.value(), make_request(Method::kPost, "/data/notes/" + id,
                                      server.cookie(), R"({"s":1})"));
    ASSERT_TRUE(put.ok()) << put.error().code;
    EXPECT_EQ(put.value().status, 201);
    auto get = http.roundtrip(
        *steady.value(),
        make_request(Method::kGet, "/data/notes/" + id, server.cookie()));
    ASSERT_TRUE(get.ok()) << get.error().code;
    EXPECT_EQ(get.value().body, R"({"s":1})");
  }
  // Every abandoned connection is reclaimed; only the steady one is open.
  for (int i = 0;
       i < 2000 && server.provider().server_stats().open.load() != 1; ++i)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(server.provider().server_stats().open.load(), 1);
}

// Spans of trace `id` by name, polled: the reactor attaches its stage
// spans after the response's last byte, just after the client has it.
std::vector<std::string> span_names(Provider& provider, const std::string& id,
                                    const std::string& wait_for) {
  std::vector<std::string> names;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const HttpResponse trace = provider.http(Method::kGet, "/trace/" + id);
    names.clear();
    if (trace.status == 200) {
      auto parsed = util::Json::parse(trace.body);
      if (parsed.ok())
        for (const auto& span : parsed.value().at("spans").as_array())
          names.push_back(span.at("name").as_string());
    }
    if (std::find(names.begin(), names.end(), wait_for) != names.end())
      break;
    std::this_thread::sleep_for(1ms);
  }
  return names;
}

bool has(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

TEST(DurableServeTest, ParkedPutShowsItsDurableStageInTheTrace) {
  ScratchDir dir("trace");
  DurableServer server(dir.path());
  auto connection = net::tcp_connect(server.port());
  ASSERT_TRUE(connection.ok());
  net::HttpClient http;
  const auto sampled = [&](Method method, const std::string& trace_id,
                           const std::string& body) {
    HttpRequest request = make_request(method, "/data/notes/t",
                                       server.cookie(), body);
    request.headers.set("X-W5-Trace", trace_id);
    request.headers.set("X-W5-Sampled", "1");
    auto response = http.roundtrip(*connection.value(), request);
    EXPECT_TRUE(response.ok());
    return response.ok() ? response.value().status : 0;
  };
  // A put parks unless its fsync already landed by the time the handler
  // returns — rare on a real disk, so a few tries find a parked one.
  bool parked = false;
  for (int i = 0; i < 50 && !parked; ++i) {
    const std::string id = "durput-" + std::to_string(i);
    ASSERT_EQ(sampled(Method::kPost, id, R"({"t":1})"), 201);
    const auto names = span_names(server.provider(), id, "stage.write");
    ASSERT_TRUE(has(names, "stage.write"));
    parked = has(names, "stage.durable");
  }
  EXPECT_TRUE(parked) << "no put showed a stage.durable span";
  // A read writes nothing: it never parks.
  ASSERT_EQ(sampled(Method::kGet, "durget", ""), 200);
  const auto names = span_names(server.provider(), "durget", "stage.write");
  EXPECT_TRUE(has(names, "stage.handler"));
  EXPECT_FALSE(has(names, "stage.durable"));
  if constexpr (util::kTelemetryEnabled) {
    const util::Json histograms =
        server.provider().metrics().to_json().at("histograms");
    EXPECT_GE(histograms.at("w5_reactor_stage_micros{stage=\"durable\"}")
                  .at("count")
                  .as_int(0),
              1);
  }
}

}  // namespace
}  // namespace w5::platform
