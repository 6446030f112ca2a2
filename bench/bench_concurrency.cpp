// E12 — concurrent request throughput (the tentpole measurement).
//
// One shared provider, google-benchmark's --threads fan-out: every bench
// thread plays a distinct user pushing the full gateway pipeline
// (session lookup → per-request process spawn → sharded store → export
// check). ops/s at 8 threads vs 1 is the scalability headline; the
// single-thread runs double as the lock-overhead regression guard
// against the pre-concurrency seed.
//
//   ./build/bench/bench_concurrency --benchmark_min_time=1x
//   scripts/bench_json.sh            # JSON for BENCH_concurrency.json
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway.h"
#include "core/provider.h"
#include "net/event_loop_server.h"
#include "net/http_client.h"
#include "net/tcp.h"

namespace {

using w5::net::HttpResponse;
using w5::net::Method;
using w5::platform::AppContext;
using w5::platform::Module;
using w5::platform::Provider;
using w5::platform::ProviderConfig;

constexpr int kUsers = 8;

// One provider shared by every thread of every run (leaky magic static:
// benchmark processes exit without teardown, and a fresh provider per
// run would measure construction, not serving).
struct SharedFixture {
  w5::util::WallClock clock;
  Provider provider{ProviderConfig{}, clock};
  std::vector<std::string> sessions;

  SharedFixture() {
    for (int u = 0; u < kUsers; ++u) {
      const std::string user = "user" + std::to_string(u);
      (void)provider.signup(user, "password");
      sessions.push_back(provider.login(user, "password").value());
      (void)provider.http(Method::kPost, "/data/notes/seed" + std::to_string(u),
                          R"({"v":0})", sessions.back());
    }
    Module viewer;
    viewer.developer = "devco";
    viewer.name = "viewer";
    viewer.version = "1.0";
    viewer.handler = [](AppContext& ctx) {
      auto record = ctx.get_record("notes", ctx.viewer().empty()
                                                ? "seed0"
                                                : "seed" + ctx.viewer().substr(4));
      if (!record.ok()) return HttpResponse::text(404, "none");
      return HttpResponse::text(200, record.value().data.dump());
    };
    (void)provider.modules().add(viewer);
  }
};

SharedFixture& fixture() {
  static SharedFixture* fx = new SharedFixture();  // leaky by design
  return *fx;
}

// The mixed workload: per iteration one store write, one app read that
// crosses the export perimeter, one direct data read, one /stats probe.
// Each thread acts as its own user, so writes land on distinct shard
// keys (the common case) while registries, sessions, kernel, and audit
// stay fully shared and contended.
void BM_MixedRequestPipeline(benchmark::State& state) {
  SharedFixture& fx = fixture();
  const int user = static_cast<int>(state.thread_index()) % kUsers;
  const std::string& session = fx.sessions[static_cast<std::size_t>(user)];
  const std::string record =
      "/data/notes/bench-t" + std::to_string(state.thread_index());
  const std::string app = "/dev/devco/viewer";

  std::int64_t requests = 0;
  int i = 0;
  for (auto _ : state) {
    ++i;
    const std::string body = "{\"v\":" + std::to_string(i) + "}";
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kPost, record, body, session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, app, "", session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, record, "", session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, "/stats", "", session).status);
    requests += 4;
  }
  state.SetItemsProcessed(requests);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MixedRequestPipeline)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Store-only fan-out: pure sharded put/get, the path the lock striping
// targets most directly.
void BM_StorePointOps(benchmark::State& state) {
  SharedFixture& fx = fixture();
  const int user = static_cast<int>(state.thread_index()) % kUsers;
  const std::string& session = fx.sessions[static_cast<std::size_t>(user)];
  const std::string record =
      "/data/points/t" + std::to_string(state.thread_index());

  std::int64_t requests = 0;
  int i = 0;
  for (auto _ : state) {
    ++i;
    const std::string body = "{\"v\":" + std::to_string(i) + "}";
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kPost, record, body, session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, record, "", session).status);
    requests += 2;
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_StorePointOps)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// Export fast path in isolation: the same viewer-app request over and
// over — after the first iteration every flow check is a memo hit.
void BM_ExportFastPath(benchmark::State& state) {
  SharedFixture& fx = fixture();
  const int user = static_cast<int>(state.thread_index()) % kUsers;
  const std::string& session = fx.sessions[static_cast<std::size_t>(user)];

  std::int64_t requests = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, "/dev/devco/viewer", "", session)
            .status);
    ++requests;
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ExportFastPath)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

// ---- E12b: the serving layer itself, over real TCP ----------------------
//
// Everything above measures the pipeline in-process. These benches put
// the wire back in: a provider served over loopback TCP by the reactor
// (DESIGN.md §15), keep-alive clients doing the same mixed request
// pattern. The default single loop vs four loops (io_threads) at the
// same client counts is the multi-core comparison; the idle sweep is
// the reactor's reason to exist.

struct TcpServeFixture {
  w5::util::WallClock clock;
  std::unique_ptr<Provider> provider;
  w5::net::TcpListener listener;
  std::thread serve_thread;  // leaky: runs until process exit
  std::vector<std::string> cookies;

  explicit TcpServeFixture(std::size_t io_threads) {
    ProviderConfig config;
    config.io_threads = io_threads;
    provider = std::make_unique<Provider>(std::move(config), clock);
    for (int u = 0; u < kUsers; ++u) {
      const std::string user = "tcp" + std::to_string(u);
      (void)provider->signup(user, "password");
      cookies.push_back("w5session=" +
                        provider->login(user, "password").value());
    }
    Module viewer;
    viewer.developer = "devco";
    viewer.name = "viewer";
    viewer.version = "1.0";
    viewer.handler = [](AppContext& ctx) {
      auto record = ctx.get_record("notes", "tcpseed");
      return HttpResponse::text(record.ok() ? 200 : 404, "r");
    };
    (void)provider->modules().add(viewer);
    // Deep backlog: connect bursts must not hit SYN-queue retransmits.
    if (!listener.listen(0, 1024).ok()) std::abort();
    serve_thread = std::thread([this] { provider->serve(listener); });
  }
};

TcpServeFixture& tcp_fixture(std::size_t io_threads) {
  static TcpServeFixture* one_loop = new TcpServeFixture(1);
  static TcpServeFixture* four_loops = new TcpServeFixture(4);
  return io_threads == 1 ? *one_loop : *four_loops;
}

// Stamps the connection-plane counters (the same w5_net_* family the
// gateway exports at /metrics) into the benchmark's user counters so
// BENCH_concurrency.json carries them next to the timing numbers.
void stamp_conn_counters(benchmark::State& state,
                         const w5::net::ConnStats& conn) {
  state.counters["conn_open"] =
      static_cast<double>(conn.open.load(std::memory_order_relaxed));
  state.counters["conn_idle"] =
      static_cast<double>(conn.idle.load(std::memory_order_relaxed));
  state.counters["conn_accepted"] =
      static_cast<double>(conn.accepted_total.load(std::memory_order_relaxed));
  state.counters["conn_timeout_closes"] = static_cast<double>(
      conn.timeout_closes_total.load(std::memory_order_relaxed));
  state.counters["conn_resets"] =
      static_cast<double>(conn.reset_total.load(std::memory_order_relaxed));
}

void run_tcp_mixed(benchmark::State& state, std::size_t io_threads) {
  TcpServeFixture& fx = tcp_fixture(io_threads);
  const std::string& cookie =
      fx.cookies[static_cast<std::size_t>(state.thread_index()) % kUsers];
  const std::string record =
      "/data/notes/tcp-t" + std::to_string(state.thread_index());

  // One keep-alive connection per client thread for the whole run: one
  // epoll entry, dealt round-robin across the reactor's loops.
  auto dial = w5::net::tcp_connect(fx.listener.port());
  if (!dial.ok()) std::abort();
  std::unique_ptr<w5::net::Connection> conn = std::move(dial.value());
  w5::net::HttpClient client;

  auto roundtrip = [&](Method method, const std::string& target,
                       std::string body) {
    w5::net::HttpRequest request;
    request.method = method;
    request.target = target;
    request.body = std::move(body);
    request.headers.set("Cookie", cookie);
    auto response = client.roundtrip(*conn, request);
    if (!response.ok()) {  // reaped mid-run: re-dial and carry on
      conn = std::move(w5::net::tcp_connect(fx.listener.port()).value());
      response = client.roundtrip(*conn, request);
    }
    benchmark::DoNotOptimize(response.ok() ? response.value().status : 0);
  };

  std::int64_t requests = 0;
  int i = 0;
  for (auto _ : state) {
    ++i;
    roundtrip(Method::kPost, record, "{\"v\":" + std::to_string(i) + "}");
    roundtrip(Method::kGet, "/dev/devco/viewer", "");
    roundtrip(Method::kGet, record, "");
    roundtrip(Method::kGet, "/stats", "");
    requests += 4;
  }
  state.SetItemsProcessed(requests);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0)
    stamp_conn_counters(state, fx.provider->conn_stats());
}

void BM_TcpMixedPipeline_EventLoop(benchmark::State& state) {
  run_tcp_mixed(state, 1);
}
BENCHMARK(BM_TcpMixedPipeline_EventLoop)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

void BM_TcpMixedPipeline_FourLoops(benchmark::State& state) {
  run_tcp_mixed(state, 4);
}
BENCHMARK(BM_TcpMixedPipeline_FourLoops)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

// ---- E12c: idle keep-alive sweep ----------------------------------------
//
// N established keep-alive connections sit idle while we watch the
// server process's CPU clock. The container caps the fd table at 20k,
// so the client ends live in a forked child (its own fd table); the
// child is pure raw syscalls — the parent is multithreaded at fork
// time, so nothing in the child may touch the heap or stdio.

void idle_client_child(std::uint16_t port, int want, int ready_fd,
                       int hold_fd) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int opened = 0;
  for (; opened < want; ++opened) {
    // The sockets are deliberately never stored or closed: they idle
    // until _exit() releases the whole fd table in one stroke.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      break;
  }
  char byte = static_cast<char>(opened == want);
  (void)!::write(ready_fd, &byte, 1);
  (void)!::read(hold_fd, &byte, 1);  // parked until the parent is done
  ::_exit(0);                        // kernel closes all 10k ends at once
}

double cpu_micros_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto micros = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 +
           static_cast<double>(tv.tv_usec);
  };
  return micros(usage.ru_utime) + micros(usage.ru_stime);
}

void BM_IdleConnectionCpu(benchmark::State& state) {
  const int want = static_cast<int>(state.range(0));
  w5::net::ServerStats stats;
  w5::net::ConnStats conn_stats;
  // Deadlines all disabled: nothing may reap the herd mid-measurement.
  w5::net::EventLoopHttpServer server(
      [](const w5::net::HttpRequest&) {
        return HttpResponse::text(200, "ok");
      },
      [](std::function<void()> job) {
        job();
        return true;
      },
      {}, {}, {}, &stats, &conn_stats);
  w5::net::TcpListener listener;
  if (!listener.listen(0, 1024).ok()) std::abort();
  std::thread serve_thread([&] { server.serve(listener); });

  int ready_pipe[2], hold_pipe[2];
  if (pipe(ready_pipe) != 0 || pipe(hold_pipe) != 0) std::abort();
  const pid_t child = fork();
  if (child == 0)
    idle_client_child(listener.port(), want, ready_pipe[1], hold_pipe[0]);
  char byte = 0;
  if (::read(ready_pipe[0], &byte, 1) != 1 || byte != 1) {
    state.SkipWithError("idle client child failed to connect the full herd");
  }
  // The child's connects outrun the accept loop at the tail; wait for
  // the gauge to agree before starting the CPU clock.
  for (int i = 0; i < 10'000 && conn_stats.open.load() < want; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const double cpu_before = cpu_micros_now();
  const auto wall_before = std::chrono::steady_clock::now();
  for (auto _ : state)
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const double cpu_spent = cpu_micros_now() - cpu_before;
  const double wall_spent =
      static_cast<double>(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - wall_before)
                              .count());

  state.counters["open_conns"] =
      static_cast<double>(conn_stats.open.load(std::memory_order_relaxed));
  state.counters["idle_conns"] =
      static_cast<double>(conn_stats.idle.load(std::memory_order_relaxed));
  // Server-process CPU per wall second while N connections idle — a
  // poll-quantum design makes this scale with N; the reactor's epoll set
  // should hold it near zero at any N.
  state.counters["cpu_core_pct"] = cpu_spent * 100.0 / wall_spent;

  (void)!::write(hold_pipe[1], &byte, 1);
  int status = 0;
  waitpid(child, &status, 0);
  listener.close();
  serve_thread.join();
  for (int fd : {ready_pipe[0], ready_pipe[1], hold_pipe[0], hold_pipe[1]})
    ::close(fd);
}
BENCHMARK(BM_IdleConnectionCpu)
    ->Arg(1000)
    ->Arg(10000)
    ->Iterations(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
