// E15 — the price of durability (DESIGN.md §13, EXPERIMENTS.md E15).
//
//   BM_DurablePut/<mode> — labeled store puts through the full gateway
//       with the WAL in each durability mode (0=off, 1=none, 2=interval,
//       3=fsync); p99_us and put_per_s counters. Group commit is the
//       whole story here: in fsync mode every put blocks on a batch
//       fsync, so the gate checks p99 against the in-memory baseline.
//   BM_GroupCommitPut — the group-commit payoff in process: N threads
//       share each fsync, so per-put cost falls as concurrency rises.
//   BM_ReactorDurablePut — the same payoff over TCP from one reactor
//       loop: 4 keep-alive clients post /data records to Provider::serve,
//       whose puts park their connections until their fsync instead of
//       blocking the loop; put_per_s and entries_per_fsync.
//   BM_Recovery/<entries> — cold-start recovery time vs WAL length
//       (snapshot disabled, pure replay).
//   BM_Checkpoint — rotate + full labeled snapshot + GC.
//
// scripts/bench_json.sh durability gates on: fsync-mode p99 within
// W5_DURABILITY_P99_FACTOR (default 3x) of the in-memory baseline,
// recovery of the 4096-entry log under W5_RECOVERY_BUDGET_MS, and at
// least 1.5 entries per fsync over the reactor.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/auth.h"
#include "core/provider.h"
#include "net/fault.h"
#include "net/http_client.h"
#include "net/tcp.h"
#include "store/durable_store.h"
#include "store/wal.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace {

namespace fs = std::filesystem;
using w5::net::Method;
using w5::platform::Provider;
using w5::platform::ProviderConfig;
using w5::store::DurabilityMode;

class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("w5_bench_dur_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// mode_arg: 0 = durability off (in-memory baseline), 1..3 = WAL modes.
ProviderConfig config_for(int mode_arg, const std::string& dir) {
  ProviderConfig config;
  if (mode_arg == 0) return config;
  config.durability.enabled = true;
  config.durability.dir = dir;
  config.durability.mode = mode_arg == 1   ? DurabilityMode::kNone
                           : mode_arg == 2 ? DurabilityMode::kInterval
                                           : DurabilityMode::kFsync;
  config.durability.snapshot_every_entries = 0;  // isolate the WAL cost
  return config;
}

const char* mode_label(int mode_arg) {
  switch (mode_arg) {
    case 0: return "mode=off";
    case 1: return "mode=none";
    case 2: return "mode=interval";
    default: return "mode=fsync";
  }
}

void BM_DurablePut(benchmark::State& state) {
  const int mode_arg = static_cast<int>(state.range(0));
  ScratchDir dir;
  w5::util::WallClock clock;
  Provider provider(config_for(mode_arg, dir.path()), clock);
  (void)provider.signup("bob", "password");
  const std::string bob = provider.login("bob", "password").value();
  const std::string body = R"({"title":"bench","payload":")" +
                           std::string(128, 'x') + R"("})";

  std::vector<w5::util::Micros> latencies;
  latencies.reserve(1 << 16);
  std::uint64_t failed = 0;
  int i = 0;
  for (auto _ : state) {
    const w5::util::Micros start = clock.now();
    const auto response = provider.http(
        Method::kPost, "/data/photos/p" + std::to_string(i++), body, bob);
    latencies.push_back(clock.now() - start);
    if (response.status != 201) ++failed;
  }
  if (failed != 0) state.SkipWithError("puts failed");
  std::sort(latencies.begin(), latencies.end());
  state.counters["p99_us"] = static_cast<double>(
      latencies.empty() ? 0 : latencies[latencies.size() * 99 / 100]);
  state.counters["put_per_s"] = benchmark::Counter(
      static_cast<double>(latencies.size()), benchmark::Counter::kIsRate);
  state.SetLabel(mode_label(mode_arg));
}
BENCHMARK(BM_DurablePut)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

// Group commit under contention — the E15 gate scenario. Eight request
// threads put concurrently; in fsync mode they share the flusher's
// batches, so one fsync amortizes across every put that arrived while
// the previous one was in flight, and the per-put p99 lands near the
// in-memory baseline's instead of one-fsync-per-put territory.
// args: (mode_arg, threads).
void BM_GroupCommitPut(benchmark::State& state) {
  const int mode_arg = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  ScratchDir dir;
  w5::util::WallClock clock;
  Provider provider(config_for(mode_arg, dir.path()), clock);
  (void)provider.signup("bob", "password");
  const std::string bob = provider.login("bob", "password").value();
  const std::string body = R"({"n":1})";

  std::vector<w5::util::Micros> latencies;
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<std::vector<w5::util::Micros>> per_thread(
        static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    std::atomic<int> next{0};
    const int per_round = threads * 64;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        for (int i = next++; i < per_round; i = next++) {
          const w5::util::Micros start = clock.now();
          (void)provider.http(Method::kPost,
                              "/data/photos/c" + std::to_string(round) + "-" +
                                  std::to_string(i),
                              body, bob);
          per_thread[static_cast<std::size_t>(t)].push_back(clock.now() -
                                                            start);
        }
      });
    }
    for (auto& worker : pool) worker.join();
    for (const auto& chunk : per_thread)
      latencies.insert(latencies.end(), chunk.begin(), chunk.end());
    ++round;
    state.SetItemsProcessed(state.items_processed() + per_round);
  }
  std::sort(latencies.begin(), latencies.end());
  state.counters["p99_us"] = static_cast<double>(
      latencies.empty() ? 0 : latencies[latencies.size() * 99 / 100]);
  state.counters["put_per_s"] = benchmark::Counter(
      static_cast<double>(latencies.size()), benchmark::Counter::kIsRate);
  state.SetLabel(std::string(mode_label(mode_arg)) +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_GroupCommitPut)
    ->Args({0, 8})
    ->Args({3, 1})
    ->Args({3, 4})
    ->Args({3, 8})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Group commit over the reactor (E15). A default ProviderConfig — one
// loop, inline dispatch — with fsync durability serves four keep-alive
// clients over loopback, each posting /data records back to back. A put
// parks its connection until the fsync covering it lands, so the loop
// appends the other clients' puts meanwhile and they share fsyncs.
// entries_per_fsync = w5_wal_appends_total / w5_wal_fsyncs_total over the
// timed puts: a loop that blocked through each put's own fsync reads 1.
void BM_ReactorDurablePut(benchmark::State& state) {
  constexpr int kClients = 4;
  constexpr int kPutsPerClient = 256;  // per iteration
  if (!w5::util::kTelemetryEnabled) {
    state.SkipWithError("needs the w5_wal_* counters (telemetry compiled out)");
    return;
  }
  ScratchDir dir;
  w5::util::WallClock clock;
  Provider provider(config_for(3, dir.path()), clock);
  (void)provider.signup("bob", "password");
  const std::string cookie = std::string(w5::platform::kSessionCookie) + "=" +
                             provider.login("bob", "password").value();
  w5::net::TcpListener listener;
  if (!listener.listen(0).ok()) {
    state.SkipWithError("listen failed");
    return;
  }
  std::thread server([&] { provider.serve(listener); });
  std::vector<std::unique_ptr<w5::net::Connection>> connections;
  for (int c = 0; c < kClients; ++c) {
    auto connection = w5::net::tcp_connect(listener.port());
    if (!connection.ok()) std::abort();
    connections.push_back(std::move(connection).value());
  }
  const w5::util::Counter& appends =
      provider.metrics().counter("w5_wal_appends_total");
  const w5::util::Counter& fsyncs =
      provider.metrics().counter("w5_wal_fsyncs_total");
  const std::uint64_t appends_before = appends.value();
  const std::uint64_t fsyncs_before = fsyncs.value();
  std::atomic<std::uint64_t> failed{0};
  std::uint64_t round = 0;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        w5::net::HttpClient http;
        w5::net::HttpRequest request;
        request.method = Method::kPost;
        request.headers.set("Cookie", cookie);
        request.body = R"({"title":"bench","n":1})";
        for (int i = 0; i < kPutsPerClient; ++i) {
          request.target = "/data/notes/r" + std::to_string(round) + "-" +
                           std::to_string(c) + "-" + std::to_string(i);
          auto response = http.roundtrip(
              *connections[static_cast<std::size_t>(c)], request);
          if (!response.ok() || response.value().status != 201) ++failed;
        }
      });
    }
    for (auto& client : clients) client.join();
    ++round;
    state.SetItemsProcessed(state.items_processed() +
                            kClients * kPutsPerClient);
  }
  const double entries = static_cast<double>(appends.value() - appends_before);
  const double syncs = static_cast<double>(fsyncs.value() - fsyncs_before);
  connections.clear();
  listener.close();
  server.join();
  if (failed.load() != 0) state.SkipWithError("puts failed");
  state.counters["put_per_s"] = benchmark::Counter(
      static_cast<double>(round * kClients * kPutsPerClient),
      benchmark::Counter::kIsRate);
  state.counters["entries_per_fsync"] = syncs > 0 ? entries / syncs : 0;
  state.SetLabel("mode=fsync clients=4 loops=1 dispatch=inline");
}
BENCHMARK(BM_ReactorDurablePut)->Unit(benchmark::kMillisecond)->UseRealTime();

// The device floor: one small append + fsync, nothing else. Any durable
// put must pay at least this once, so the E15 gate compares group-commit
// p99 against (in-memory p99 + this floor) — "within 3× of the
// in-memory baseline" once the irreducible device sync is accounted for.
void BM_RawFsync(benchmark::State& state) {
  ScratchDir dir;
  fs::create_directories(dir.path());
  auto file =
      w5::net::FaultyFile::create(dir.path() + "/floor.bin", {}).value();
  const std::string block(256, 'w');
  w5::util::WallClock clock;
  std::vector<w5::util::Micros> latencies;
  latencies.reserve(1 << 14);
  for (auto _ : state) {
    const w5::util::Micros start = clock.now();
    if (!file.write_all(block).ok() || !file.sync().ok())
      state.SkipWithError("write+fsync failed");
    latencies.push_back(clock.now() - start);
  }
  std::sort(latencies.begin(), latencies.end());
  state.counters["p99_us"] = static_cast<double>(
      latencies.empty() ? 0 : latencies[latencies.size() * 99 / 100]);
}
BENCHMARK(BM_RawFsync)->Unit(benchmark::kMicrosecond);

void BM_Recovery(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  ScratchDir dir;
  w5::util::WallClock clock;
  {
    Provider provider(config_for(2, dir.path()), clock);
    (void)provider.signup("bob", "password");
    const std::string bob = provider.login("bob", "password").value();
    const std::string body = R"({"n":1})";
    // signup logged a handful of entries already; fill to the target.
    std::size_t i = 0;
    while (provider.durable()->last_seq() < entries)
      (void)provider.http(Method::kPost,
                          "/data/photos/r" + std::to_string(i++), body, bob);
  }
  double recovered_entries = 0;
  for (auto _ : state) {
    Provider provider(config_for(3, dir.path()), clock);
    if (!provider.durability_status().ok())
      state.SkipWithError("recovery failed");
    recovered_entries =
        static_cast<double>(provider.recovery_stats().replayed_entries);
    benchmark::DoNotOptimize(provider.recovery_stats().last_seq);
  }
  state.counters["replayed_entries"] = recovered_entries;
  state.counters["entries_per_s"] = benchmark::Counter(
      recovered_entries * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Recovery)->Arg(256)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Checkpoint(benchmark::State& state) {
  ScratchDir dir;
  w5::util::WallClock clock;
  Provider provider(config_for(3, dir.path()), clock);
  (void)provider.signup("bob", "password");
  const std::string bob = provider.login("bob", "password").value();
  for (int i = 0; i < 200; ++i)
    (void)provider.http(Method::kPost, "/data/photos/s" + std::to_string(i),
                        R"({"n":1})", bob);
  for (auto _ : state) {
    if (!provider.checkpoint().ok()) state.SkipWithError("checkpoint failed");
  }
  state.SetLabel("200 records + accounts + fs");
}
BENCHMARK(BM_Checkpoint)->Unit(benchmark::kMillisecond);

}  // namespace
