// E14 — robustness under deterministic fault injection (DESIGN.md §12).
//
// Drives the HTTP server through FaultyConnection pipes at a seeded
// fault rate and reports tail latency plus an error budget:
//
//   BM_FaultyPipeline/<fault_pct>  — per-request service time with
//       p99_us, error_rate, faults_injected counters (fault delays are
//       virtual — recorded, not slept — so the timing isolates the
//       robustness machinery itself, not the injected waits)
//   BM_PooledChaos — four threads serving hundreds of faulty
//       connections end to end; hung_workers must be 0 afterwards (no
//       fault pattern may pin a worker forever)
//
// scripts/bench_json.sh robustness gates on: bounded p99 inflation at
// 10% faults vs clean, error_rate within budget, hung_workers == 0.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/transport.h"
#include "util/clock.h"

namespace {

using w5::net::FaultSchedule;
using w5::net::FaultStats;
using w5::net::FaultyConnection;
using w5::net::HttpRequest;
using w5::net::HttpResponse;
using w5::net::HttpServer;
using w5::net::Method;

FaultSchedule::Profile profile_for(int fault_pct) {
  // Split the requested per-op fault probability across the kinds in the
  // same proportions the chaos tests use.
  const double p = fault_pct / 100.0;
  FaultSchedule::Profile profile;
  profile.delay_probability = p * 0.30;
  profile.short_read_probability = p * 0.35;
  profile.partial_write_probability = p * 0.10;
  profile.drop_probability = p * 0.15;
  profile.reset_probability = p * 0.10;
  profile.min_delay_micros = 50;
  profile.max_delay_micros = 500;
  return profile;
}

HttpRequest make_request(int i) {
  HttpRequest request;
  request.method = Method::kPost;
  request.target = "/bench";
  request.body = "payload-" + std::to_string(i);
  request.headers.set("Connection", "close");
  return request;
}

// One request over one faulty pipe; returns true when handled cleanly.
bool one_request(HttpServer& server, std::uint64_t seed,
                 const FaultSchedule::Profile& profile, int i,
                 FaultStats* faults) {
  auto [client, server_end] = w5::net::make_pipe();
  if (!client->write(make_request(i).to_wire()).ok()) return false;
  FaultyConnection faulty(std::move(server_end),
                          FaultSchedule::seeded(seed, profile),
                          w5::net::no_sleep(), faults);
  auto handled = server.handle_one(faulty);
  return handled.ok() && handled.value();
}

void BM_FaultyPipeline(benchmark::State& state) {
  const int fault_pct = static_cast<int>(state.range(0));
  const FaultSchedule::Profile profile = profile_for(fault_pct);
  HttpServer server([](const HttpRequest& request) {
    return HttpResponse::text(200, "echo:" + request.body);
  });
  FaultStats faults;
  const w5::util::WallClock clock;
  std::vector<w5::util::Micros> latencies;
  latencies.reserve(1 << 16);
  std::uint64_t handled = 0, errored = 0;
  int i = 0;
  for (auto _ : state) {
    const w5::util::Micros start = clock.now();
    const bool ok =
        one_request(server, 0xE14ull + static_cast<std::uint64_t>(i),
                    profile, i, &faults);
    latencies.push_back(clock.now() - start);
    ok ? ++handled : ++errored;
    ++i;
  }
  std::sort(latencies.begin(), latencies.end());
  const auto p99 = latencies.empty()
                       ? 0
                       : latencies[latencies.size() * 99 / 100];
  state.counters["p99_us"] = static_cast<double>(p99);
  state.counters["error_rate"] =
      handled + errored == 0
          ? 0.0
          : static_cast<double>(errored) / static_cast<double>(handled + errored);
  state.counters["faults_injected"] = static_cast<double>(faults.total());
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(handled + errored), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FaultyPipeline)->Arg(0)->Arg(10)->Arg(25);

void BM_PooledChaos(benchmark::State& state) {
  const FaultSchedule::Profile profile = profile_for(10);
  std::uint64_t hung_workers = 0, served = 0, round = 0;
  for (auto _ : state) {
    HttpServer server([](const HttpRequest& request) {
      return HttpResponse::text(200, "echo:" + request.body);
    });
    constexpr int kWorkers = 4;
    constexpr int kConnections = 200;
    std::atomic<int> next{0};
    std::atomic<std::uint64_t> done{0};
    std::array<bool, kWorkers> finished{};
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (int i = next.fetch_add(1); i < kConnections;
             i = next.fetch_add(1)) {
          const std::uint64_t seed =
              (round << 32) + static_cast<std::uint64_t>(i);
          FaultStats faults;
          (void)one_request(server, seed, profile, i, &faults);
          done.fetch_add(1);
        }
        finished[w] = true;
      });
    }
    // The join returning at all is the liveness claim: no injected fault
    // pattern may leave a worker stuck mid-connection.
    for (auto& worker : workers) worker.join();
    hung_workers += static_cast<std::uint64_t>(
        std::count(finished.begin(), finished.end(), false));
    served += done.load();
    ++round;
  }
  state.counters["hung_workers"] = static_cast<double>(hung_workers);
  state.counters["connections_served"] = static_cast<double>(served);
  state.counters["conn_per_s"] = benchmark::Counter(
      static_cast<double>(served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PooledChaos)->Unit(benchmark::kMillisecond);

}  // namespace
