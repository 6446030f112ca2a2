// E13 — what does the telemetry plane cost?
//
// The same gateway pipeline as E12, measured twice: this binary built
// normally (metrics + tracing on) and built with -DW5_NO_TELEMETRY=ON
// (every update compiled out). scripts/bench_json.sh observability runs
// both trees and asserts the overhead on every BM_ObservedPipeline*
// bench — the in-process gateway pipeline and the event-loop TCP path
// with stage spans + exemplars — stays under the budget (default <5%).
//
//   ./build/bench/bench_observability --benchmark_min_time=1x
//   scripts/bench_json.sh observability   # two-build overhead comparison
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "core/trace.h"
#include "difc/label_table.h"
#include "net/http_client.h"
#include "net/tcp.h"
#include "util/metrics.h"

namespace {

using w5::net::HttpResponse;
using w5::net::Method;
using w5::platform::AppContext;
using w5::platform::Module;
using w5::platform::Provider;
using w5::platform::ProviderConfig;

constexpr int kUsers = 8;

// Records carry a representative payload: real W5 records (posts,
// profile fragments, photo metadata) run KiB-scale, not tens of bytes,
// and the telemetry budget is judged against that workload.
constexpr std::size_t kPayloadBytes = 1024;

const std::string& payload_field() {
  static const std::string payload(kPayloadBytes, 'x');
  return payload;
}

// Leaky magic static, same idiom as bench_concurrency: benchmark
// processes exit without teardown, and construction must not be timed.
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
                          "{\"v\":0,\"payload\":\"" + payload_field() + "\"}",
                          sessions.back());
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

// The workload whose two-build delta IS the telemetry overhead number:
// per iteration one write, one traced app read across the perimeter, one
// direct read. Every request mints a trace, stamps the header, records
// spans, and bumps half a dozen counters — or, under W5_NO_TELEMETRY,
// does none of that.
void BM_ObservedPipeline(benchmark::State& state) {
  SharedFixture& fx = fixture();
  const int user = static_cast<int>(state.thread_index()) % kUsers;
  const std::string& session = fx.sessions[static_cast<std::size_t>(user)];
  const std::string record =
      "/data/notes/obs-t" + std::to_string(state.thread_index());
  const std::string app = "/dev/devco/viewer";

  std::int64_t requests = 0;
  int i = 0;
  for (auto _ : state) {
    ++i;
    const std::string body = "{\"v\":" + std::to_string(i) +
                             ",\"payload\":\"" + payload_field() + "\"}";
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kPost, record, body, session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, app, "", session).status);
    benchmark::DoNotOptimize(
        fx.provider.http(Method::kGet, record, "", session).status);
    requests += 3;
  }
  state.SetItemsProcessed(requests);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
  state.counters["telemetry_enabled"] =
      w5::util::kTelemetryEnabled ? 1 : 0;
}
BENCHMARK(BM_ObservedPipeline)->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

// The same overhead question asked of the reactor serving path (§16):
// requests over real loopback TCP through Provider::serve()'s reactor,
// where telemetry additionally means stage spans
// (parse/dispatch/handler/write), the event-loop lag / epoll batch /
// timer drift histograms with exemplars, and the per-loop counters.
// Named BM_ObservedPipeline* so the two-build gate in
// scripts/bench_json.sh covers the event-loop path too.
struct ReactorFixture {
  w5::util::WallClock clock;
  std::unique_ptr<Provider> provider;
  w5::net::TcpListener listener;
  std::thread serve_thread;  // leaky: runs until process exit
  std::vector<std::string> cookies;

  ReactorFixture() {
    provider = std::make_unique<Provider>(ProviderConfig{}, clock);
    for (int u = 0; u < kUsers; ++u) {
      const std::string user = "rx" + std::to_string(u);
      (void)provider->signup(user, "password");
      cookies.push_back("w5session=" +
                        provider->login(user, "password").value());
    }
    if (!listener.listen(0, 1024).ok()) std::abort();
    serve_thread = std::thread([this] { provider->serve(listener); });
  }
};

ReactorFixture& reactor_fixture() {
  static ReactorFixture* fx = new ReactorFixture();  // leaky by design
  return *fx;
}

void BM_ObservedPipelineEventLoop(benchmark::State& state) {
  ReactorFixture& fx = reactor_fixture();
  const std::string& cookie =
      fx.cookies[static_cast<std::size_t>(state.thread_index()) % kUsers];
  const std::string record =
      "/data/notes/rx-t" + std::to_string(state.thread_index());

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
    const std::string body = "{\"v\":" + std::to_string(i) +
                             ",\"payload\":\"" + payload_field() + "\"}";
    roundtrip(Method::kPost, record, body);
    roundtrip(Method::kGet, record, "");
    requests += 2;
  }
  state.SetItemsProcessed(requests);
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
  state.counters["telemetry_enabled"] =
      w5::util::kTelemetryEnabled ? 1 : 0;
}
BENCHMARK(BM_ObservedPipelineEventLoop)->Threads(1)->Threads(4)
    ->UseRealTime();

// A /metrics scrape under load: how much does reading the plane cost
// (registry walk + gauge refresh across 16 shards, flow cache)?
void BM_MetricsScrape(benchmark::State& state) {
  SharedFixture& fx = fixture();
  const std::string& session = fx.sessions[0];
  std::int64_t bytes = 0;
  for (auto _ : state) {
    const auto response =
        fx.provider.http(Method::kGet, "/metrics", "", session);
    benchmark::DoNotOptimize(response.status);
    bytes += static_cast<std::int64_t>(response.body.size());
  }
  state.SetBytesProcessed(bytes);
  // Export the provider's own counters next to the timing numbers
  // (scripts/bench_json.sh lifts snap_* into "metrics_snapshot"), so a
  // perf regression in BENCH_observability.json comes with the request
  // mix and cache behavior that produced it.
  w5::util::MetricsRegistry& metrics = fx.provider.metrics();
  const auto snap = [&state](const char* key, double v) {
    state.counters[key] = benchmark::Counter(v);
  };
  snap("snap_requests_total",
       static_cast<double>(metrics.counter("w5_requests_total").value()));
  snap("snap_traces_recorded",
       static_cast<double>(fx.provider.traces().recorded()));
  const auto ops = fx.provider.store().op_counts();
  snap("snap_store_gets", static_cast<double>(ops.gets));
  snap("snap_store_puts", static_cast<double>(ops.puts));
  const auto& cache = w5::difc::FlowCache::instance();
  snap("snap_flow_cache_hits", static_cast<double>(cache.hits()));
  snap("snap_flow_cache_misses", static_cast<double>(cache.misses()));
}
BENCHMARK(BM_MetricsScrape);

// Raw primitive costs, for the DESIGN.md table: one counter bump and one
// histogram observe (the per-request fixed cost is a handful of these).
void BM_MetricsSnapshot_CounterInc(benchmark::State& state) {
  static w5::util::MetricsRegistry registry;
  w5::util::Counter& counter = registry.counter("bench_counter");
  for (auto _ : state) counter.inc();
  state.counters["final"] = static_cast<double>(counter.value());
}
BENCHMARK(BM_MetricsSnapshot_CounterInc)->Threads(1)->Threads(8);

void BM_MetricsSnapshot_HistogramObserve(benchmark::State& state) {
  static w5::util::MetricsRegistry registry;
  w5::util::Histogram& histogram = registry.histogram("bench_latency");
  std::int64_t v = 0;
  for (auto _ : state) histogram.observe(++v % 1'000'000);
  state.counters["final"] = static_cast<double>(histogram.count());
}
BENCHMARK(BM_MetricsSnapshot_HistogramObserve)->Threads(1)->Threads(8);

// Trace-span cost in isolation: install a context, record spans into it.
void BM_TraceSpan(benchmark::State& state) {
  for (auto _ : state) {
    w5::platform::RequestContext context;
    {
      w5::platform::ScopedSpan span("bench.op");
    }
    benchmark::DoNotOptimize(context.finish());
  }
}
BENCHMARK(BM_TraceSpan);

// Report-only: the slowest AuditLog::record() across wraparounds of a
// default-sized log, fed tcp_small_mix-like events (one declassifier
// decision and one export per request). A log that drops a fraction of
// itself under its lock shows here as a multi-millisecond worst call.
void BM_AuditRecordWraparound(benchmark::State& state) {
  w5::util::WallClock clock;
  for (auto _ : state) {
    w5::platform::AuditLog log(clock);
    const std::size_t records = std::size_t{6} << 17;  // ~5 wraparounds
    double worst_us = 0;
    for (std::size_t i = 0; i < records; ++i) {
      const auto start = std::chrono::steady_clock::now();
      if (i % 2 == 0)
        log.record(w5::platform::AuditKind::kDeclassifierDecision,
                   "std/friends", "sec(owner03)", "allow viewer=owner07");
      else
        log.record(w5::platform::AuditKind::kExportAllowed,
                   "photoco/photos@1.0", "{t5,t6}", "viewer=owner07");
      const std::chrono::duration<double, std::micro> took =
          std::chrono::steady_clock::now() - start;
      worst_us = std::max(worst_us, took.count());
    }
    state.counters["worst_record_us"] = worst_us;
    state.counters["dropped"] = static_cast<double>(log.dropped());
  }
}
BENCHMARK(BM_AuditRecordWraparound)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
