// E18 — label-aware secondary indexes vs predicate scans at scale
// (DESIGN.md §17, EXPERIMENTS.md E18).
//
//   BM_PointQueryIndexed   — eq_field lookup served by the (profiles,
//       city) field index over 2^20 records; p99_us counter.
//   BM_PointQueryScan      — the same query with the planner forced to
//       kScanOnly: a full label-group scan with the eq filter applied
//       per record. The E18 gate requires indexed p99 to beat this by
//       at least W5_QUERY_INDEX_FACTOR (default 10x).
//   BM_OwnerQueryIndexed / BM_OwnerQueryScan — the owner posting-list
//       path against the same forced scan.
//   BM_DeepPageCursor / BM_DeepPageOffset — page 50 rows from half a
//       million records deep: cursor resume vs offset re-scan.
//   BM_QuantizedCountChannel — the §3.5 count channel: with quantum q,
//       counts for populations n and n+1 must be identical
//       (quantized_delta counter == 0 while raw_delta == 1).
//   BM_OwnerPage — report-only: one 50-row owner page through an app
//       process's clearance (every user's secrecy tag, Flume's Ô), over
//       64 owners × 65 records, one of them a 64 KiB photo — the shape
//       of w5bench's inproc_bulk_read list pages — at 1 and 4 threads.
//   BM_OwnerPut — report-only: one put of a new key, at a random
//       position among the ids of an owner who already holds 10k or
//       100k records (ROADMAP 9's posting-list insert); p50_us counter.
//
// The fixture is built once and shared (1M labeled puts take seconds);
// benchmarks only read it, except the count channel which restores the
// store before returning.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "store/labeled_store.h"
#include "store/query.h"
#include "util/rng.h"

namespace {

using w5::difc::Label;
using w5::difc::ObjectLabels;
using w5::difc::plus;
using w5::difc::Tag;
using w5::os::kKernelPid;
using w5::store::LabeledStore;
using w5::store::PlannerMode;
using w5::store::QueryGovernorConfig;
using w5::store::QueryOptions;
using w5::store::Record;

constexpr std::size_t kRecords = std::size_t{1} << 20;  // 2^20 = 1,048,576
constexpr std::size_t kOwners = 4096;                   // ~256 records each
constexpr std::size_t kCities = 1024;                   // ~1024 records each
constexpr std::size_t kLabels = 64;                     // label-group count

std::string padded_id(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "r%07zu", i);
  return buf;
}

struct QueryFixture {
  w5::os::Kernel kernel;
  w5::util::SimClock clock;
  LabeledStore store{kernel, clock};

  QueryFixture() {
    std::vector<Tag> tags;
    for (std::size_t t = 0; t < kLabels; ++t) {
      tags.push_back(kernel
                         .create_tag(kKernelPid, "sec(g" + std::to_string(t) +
                                                     ")",
                                     w5::difc::TagPurpose::kSecrecy)
                         .value());
      kernel.add_global_capability(plus(tags.back()));
    }
    // Register before loading so every put maintains the index inline —
    // the production shape (the Provider indexes profiles.city at boot).
    (void)store.create_index("profiles", "city");
    for (std::size_t i = 0; i < kRecords; ++i) {
      Record record;
      record.collection = "profiles";
      record.id = padded_id(i);
      record.owner = "u" + std::to_string(i % kOwners);
      record.labels = ObjectLabels{Label{tags[i % kLabels]}, {}};
      record.data["city"] = "city" + std::to_string(i % kCities);
      record.data["rating"] = static_cast<int>(i % 6);
      (void)store.put(kKernelPid, std::move(record));
    }
  }

  static QueryFixture& shared() {
    static QueryFixture* fx = new QueryFixture();  // built once, leaked
    return *fx;
  }
};

// Times each query and reports tail latency alongside the mean the
// framework already computes. One sample per iteration.
void run_timed(benchmark::State& state, const QueryOptions& options) {
  QueryFixture& fx = QueryFixture::shared();
  std::vector<double> micros;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fx.store.query(kKernelPid, "profiles", options);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(result.value().size());
    micros.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(micros.begin(), micros.end());
  state.counters["p99_us"] =
      micros.empty() ? 0.0 : micros[micros.size() * 99 / 100];
  state.counters["rows"] = micros.empty()
                               ? 0.0
                               : static_cast<double>(
                                     fx.store.query(kKernelPid, "profiles",
                                                    options)
                                         .value()
                                         .size());
}

void BM_PointQueryIndexed(benchmark::State& state) {
  QueryOptions options;
  options.eq_field = "city";
  options.eq_value = "city777";
  run_timed(state, options);
}
BENCHMARK(BM_PointQueryIndexed)->Unit(benchmark::kMicrosecond);

void BM_PointQueryScan(benchmark::State& state) {
  QueryOptions options;
  options.eq_field = "city";
  options.eq_value = "city777";
  options.planner = PlannerMode::kScanOnly;
  run_timed(state, options);
}
BENCHMARK(BM_PointQueryScan)->Unit(benchmark::kMicrosecond);

void BM_OwnerQueryIndexed(benchmark::State& state) {
  QueryOptions options;
  options.owner = "u77";
  run_timed(state, options);
}
BENCHMARK(BM_OwnerQueryIndexed)->Unit(benchmark::kMicrosecond);

void BM_OwnerQueryScan(benchmark::State& state) {
  QueryOptions options;
  options.owner = "u77";
  options.planner = PlannerMode::kScanOnly;
  run_timed(state, options);
}
BENCHMARK(BM_OwnerQueryScan)->Unit(benchmark::kMicrosecond);

// Deep pagination: fetch the 50-row page that starts 500k records in.
// The offset path must materialize offset+limit rows per shard before
// slicing; the cursor path seeks straight to the resume key.
void BM_DeepPageOffset(benchmark::State& state) {
  QueryOptions options;
  options.offset = 500'000;
  options.limit = 50;
  run_timed(state, options);
}
BENCHMARK(BM_DeepPageOffset)->Unit(benchmark::kMicrosecond);

void BM_DeepPageCursor(benchmark::State& state) {
  QueryFixture& fx = QueryFixture::shared();
  QueryOptions options;
  options.limit = 50;
  options.cursor = "profiles/" + padded_id(499'999);
  std::vector<double> micros;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto page = fx.store.query_page(kKernelPid, "profiles", options);
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(page.value().records.size());
    micros.push_back(
        std::chrono::duration<double, std::micro>(stop - start).count());
  }
  std::sort(micros.begin(), micros.end());
  state.counters["p99_us"] =
      micros.empty() ? 0.0 : micros[micros.size() * 99 / 100];
}
BENCHMARK(BM_DeepPageCursor)->Unit(benchmark::kMicrosecond);

// §3.5 count channel: with quantum q an observer probing count() before
// and after a single insert learns nothing — both probes answer the
// same multiple of q. raw_delta replays the probe with quantization off
// to show the channel the quantum closes.
void BM_QuantizedCountChannel(benchmark::State& state) {
  QueryFixture& fx = QueryFixture::shared();
  const std::size_t quantum = static_cast<std::size_t>(state.range(0));
  Record probe;
  probe.collection = "profiles";
  probe.id = "zz-probe";
  probe.owner = "u0";
  probe.data["city"] = "city0";

  double quantized_delta = 0.0;
  double raw_delta = 0.0;
  for (auto _ : state) {
    fx.store.set_governor_config(QueryGovernorConfig{
        .count_quantum = quantum});
    const auto before = fx.store.count(kKernelPid, "profiles").value();
    (void)fx.store.put(kKernelPid, probe);
    const auto after = fx.store.count(kKernelPid, "profiles").value();
    quantized_delta = static_cast<double>(after - before);
    fx.store.set_governor_config(QueryGovernorConfig{.count_quantum = 1});
    const auto raw_after = fx.store.count(kKernelPid, "profiles").value();
    (void)fx.store.remove(kKernelPid, "profiles", "zz-probe");
    const auto raw_before = fx.store.count(kKernelPid, "profiles").value();
    raw_delta = static_cast<double>(raw_after - raw_before);
  }
  fx.store.set_governor_config(QueryGovernorConfig{});
  state.counters["quantized_delta"] = quantized_delta;
  state.counters["raw_delta"] = raw_delta;
  state.counters["quantum"] = static_cast<double>(quantum);
}
BENCHMARK(BM_QuantizedCountChannel)->Arg(100)->Unit(benchmark::kMillisecond);

// 64 owners, each with 64 small photos and one 64 KiB photo under their
// own secrecy tag; every tag is globally addable, as the provider makes
// each user's sec(u)+.
struct PageFixture {
  static constexpr std::size_t kPageOwners = 64;
  static constexpr std::size_t kPhotos = 64;

  w5::os::Kernel kernel;
  w5::util::SimClock clock;
  LabeledStore store{kernel, clock};

  // "u07-p12"; the 64 KiB photo is "u07-zbig", after every small one.
  static std::string photo_id(std::size_t owner, std::size_t p) {
    char buf[48];
    if (p == kPhotos) {
      std::snprintf(buf, sizeof buf, "u%02zu-zbig", owner);
    } else {
      std::snprintf(buf, sizeof buf, "u%02zu-p%02zu", owner, p);
    }
    return buf;
  }

  PageFixture() {
    w5::util::Rng rng(18);
    for (std::size_t o = 0; o < kPageOwners; ++o) {
      const Tag tag = kernel
                          .create_tag(kKernelPid, "sec(u" + std::to_string(o) +
                                                      ")",
                                      w5::difc::TagPurpose::kSecrecy)
                          .value();
      kernel.add_global_capability(plus(tag));
      const std::string owner = "u" + std::to_string(o);
      for (std::size_t p = 0; p <= kPhotos; ++p) {
        Record record;
        record.collection = "photos";
        record.id = photo_id(o, p);
        record.owner = owner;
        record.labels = ObjectLabels{Label{tag}, {}};
        record.data["title"] = "photo " + std::to_string(p);
        record.data["caption"] =
            p < kPhotos ? rng.next_string(16 + rng.next_below(49))
                        : rng.next_string(64 * 1024);
        (void)store.put(kKernelPid, std::move(record));
      }
    }
  }

  static PageFixture& shared() {
    static PageFixture* fx = new PageFixture();  // built once, leaked
    return *fx;
  }
};

void BM_OwnerPage(benchmark::State& state) {
  PageFixture& fx = PageFixture::shared();
  // One app process per thread: its clearance holds every owner's tag,
  // and its first page from each owner raises it once.
  const w5::os::Pid app = fx.kernel.spawn_trusted(
      "app:bench", w5::difc::LabelState({}, {}, {}));
  w5::util::Rng rng(static_cast<std::uint64_t>(state.thread_index()) + 1);
  std::size_t rows = 0;
  for (auto _ : state) {
    const std::size_t owner = rng.next_below(PageFixture::kPageOwners);
    const std::size_t start = rng.next_below(PageFixture::kPhotos - 50 + 1);
    QueryOptions options;
    options.owner = "u" + std::to_string(owner);
    options.limit = 50;
    if (start > 0)
      options.cursor = "photos/" + PageFixture::photo_id(owner, start - 1);
    auto page = fx.store.query_page(app, "photos", options);
    if (!page.ok()) {
      state.SkipWithError("query_page failed");
      break;
    }
    rows += page.value().records.size();
    benchmark::DoNotOptimize(page.value().records.data());
  }
  (void)fx.kernel.exit(app);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rows_per_page"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(rows) / static_cast<double>(state.iterations()),
      benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_OwnerPage)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// One owner's n records under one secrecy tag, with random ids (loaded
// in id order, which leaves the same posting lists as any order).
struct OwnerPutFixture {
  w5::os::Kernel kernel;
  w5::util::SimClock clock;
  LabeledStore store{kernel, clock};
  Tag tag;

  explicit OwnerPutFixture(std::size_t n) {
    tag = kernel.create_tag(kKernelPid, "sec(owner)",
                            w5::difc::TagPurpose::kSecrecy)
              .value();
    w5::util::Rng rng(9);
    std::vector<std::string> ids;
    for (std::size_t i = 0; i < n; ++i) ids.push_back(random_id(rng));
    std::sort(ids.begin(), ids.end());
    for (std::string& id : ids)
      (void)store.put(kKernelPid, record(std::move(id)));
  }

  static std::string random_id(w5::util::Rng& rng) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "r%016llx",
                  static_cast<unsigned long long>(rng.next_u64()));
    return buf;
  }

  Record record(std::string id) const {
    Record record;
    record.collection = "photos";
    record.id = std::move(id);
    record.owner = "owner";
    record.labels = ObjectLabels{Label{tag}, {}};
    record.data["title"] = "photo";
    return record;
  }

  static OwnerPutFixture& of(std::size_t n) {
    static std::map<std::size_t, OwnerPutFixture*> built;  // leaked
    OwnerPutFixture*& fx = built[n];
    if (fx == nullptr) fx = new OwnerPutFixture(n);
    return *fx;
  }
};

void BM_OwnerPut(benchmark::State& state) {
  OwnerPutFixture& fx =
      OwnerPutFixture::of(static_cast<std::size_t>(state.range(0)));
  w5::util::Rng rng(29);
  std::vector<double> micros;
  for (auto _ : state) {
    const std::string id = OwnerPutFixture::random_id(rng);
    Record record = fx.record(id);
    const auto start = std::chrono::steady_clock::now();
    const auto status = fx.store.put(kKernelPid, std::move(record));
    const auto stop = std::chrono::steady_clock::now();
    if (!status.ok()) {
      state.SkipWithError("put failed");
      break;
    }
    // Untimed: removing the key again keeps the population at n.
    (void)fx.store.remove(kKernelPid, "photos", id);
    const double seconds = std::chrono::duration<double>(stop - start).count();
    state.SetIterationTime(seconds);
    micros.push_back(seconds * 1e6);
  }
  std::sort(micros.begin(), micros.end());
  state.counters["p50_us"] = micros.empty() ? 0.0 : micros[micros.size() / 2];
}
BENCHMARK(BM_OwnerPut)
    ->Arg(10'000)
    ->Arg(100'000)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
