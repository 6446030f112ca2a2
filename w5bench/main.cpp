// w5bench: the W5 end-to-end benchmark (README.md).
//
//   w5bench --workload NAME --seed N --seconds S --trace 0|1
//           [--state-dir DIR] [--spans-out FILE] [--plant-wrong-body]
//           [--stream-hash]
//
// --trace 0: set up eleven times (setup_s is the median) and run the
// untraced closed loop for S seconds from the last set-up on, moving to a
// fresh set-up whenever the photos app's quota is half spent; prints the
// end-to-end metrics, scaled to the reference host speed (HostProbe).
// --trace 1: the same untraced run (program counters are diffed over
// it), then, on a fresh set-up, the traced pass at four threads and at
// one; prints the per-layer metrics. Either way a human-readable report
// comes first and the last stdout line is one JSON object.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <pthread.h>
#include <stdexcept>
#include <time.h>
#include <unistd.h>

#include "core/audit.h"
#include "difc/label_table.h"
#include "util/json.h"
#include "w5bench.h"

namespace w5bench {
namespace {

// Requests each client sends before measuring: caches fill and lazy
// set-up finishes before the run, not inside it.
constexpr int kWarmupOps = 200;
// Ops hashed per client for the request-stream fingerprint.
constexpr int kHashedOps = 1000;
// Set-ups per untraced invocation; setup_s is their median.
constexpr int kSetups = 11;
// Windows per started 10 s of measurement (see run_untraced()).
constexpr int kWindowsPer10s = 10;
// A provider is retired before the photos app has spent this share of
// its quota (see quota_spent()).
constexpr double kQuotaShare = 0.5;
// rss_mb is read when the untraced run has served this many requests,
// not at a time: the provider's memory grows with every request served
// until its audit log is full (the durable mix's never is within a run),
// so a peak read after a fixed time would follow the host's speed. Past
// the small and in-process mixes' fill, within the durable mix's 30 s on
// a slow host.
constexpr std::uint64_t kRssRequests = 120'000;
// Longest traced pass and one-thread pass, whatever --seconds says.
constexpr double kTracedSeconds = 5;
constexpr double kOneThreadSeconds = 2;

struct Args {
  Workload workload = Workload::kTcpSmallMix;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string state_dir = ".bench_build/w5bench-state";
  std::string spans_out;
  bool plant_wrong_body = false;
  bool stream_hash_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "w5bench: %s\nusage: w5bench --workload "
               "tcp_small_mix|inproc_bulk_read|tcp_durable_write --seed N "
               "--seconds S --trace 0|1 [--state-dir DIR] [--spans-out FILE] "
               "[--plant-wrong-body] [--stream-hash]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      const auto workload = workload_from_name(value());
      if (!workload) usage("unknown workload");
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      if (!(args.seconds > 0)) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = value() == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = value();
    } else if (flag == "--spans-out") {
      args.spans_out = value();
    } else if (flag == "--plant-wrong-body") {
      args.plant_wrong_body = true;
    } else if (flag == "--stream-hash") {
      args.stream_hash_only = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", value);
  return buf;
}

// ---- Checked exchanges ----------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_failure.empty()) first_failure = other.first_failure;
  }
};

// When a request was sent and when its answer was back; the checks that
// follow are the client's own time.
struct Timing {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Sends `request`, checks the answer against `op` and for leaks. A leak
// ends the process at once: no numbers are reported for a provider that
// hands one user's data to another.
std::optional<HttpResponse> exchange(Channel& channel, const World& world,
                                     const std::string& viewer, const Op& op,
                                     const HttpRequest& request, Tally& tally,
                                     Timing* timing) {
  ++tally.attempted;
  const std::int64_t start = now_ns();
  std::optional<HttpResponse> response = channel.send(request);
  if (timing != nullptr) *timing = {start, now_ns()};
  std::string failure;
  if (!response) {
    failure = "transport error";
  } else {
    const std::string leaked = find_leak(world, viewer, response->body);
    if (!leaked.empty()) {
      std::fprintf(stderr,
                   "w5bench: LEAK: a response to %s (%s) carries %s's "
                   "canary; aborting\n",
                   viewer.c_str(), op.target.c_str(), leaked.c_str());
      std::fflush(stderr);
      std::_Exit(3);
    }
    failure = check_response(op, response->status, response->body);
  }
  if (!failure.empty()) {
    ++tally.failed;
    if (tally.first_failure.empty())
      tally.first_failure = std::string(op.mix) + " " + op.target + ": " +
                            failure;
    return std::nullopt;
  }
  return response;
}

// ---- Set-up ---------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<Generator> generators;
};

// Replaces the provider with a freshly set-up one and warms it up.
// Returns the set-up time: from constructing the provider to the clients'
// first request (seeding, the durable mix's close and re-open, serving,
// connecting). The warm-up is left out: it measures request throughput,
// not set-up.
double set_up(Setup& setup, const World& world, const std::string& state_dir,
              Tally& tally) {
  setup.channels.clear();  // close connections before their server stops
  setup.deployment.reset();
  setup.generators.clear();
  // Hand the old provider's freed heap back, so peak RSS is one
  // provider's, not the sum of every set-up's leftovers.
  malloc_trim(0);
  const std::int64_t start = now_ns();
  setup.deployment = std::make_unique<Deployment>(world, state_dir);
  for (int c = 0; c < kClients; ++c) {
    setup.channels.push_back(open_channel(*setup.deployment));
    setup.generators.emplace_back(world, c);
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Generator& generator = setup.generators[c];
      for (int i = 0; i < kWarmupOps; ++i) {
        const Op op = generator.next();
        const HttpRequest request =
            make_request(*setup.deployment, c, op, false);
        (void)exchange(*setup.channels[c], world, generator.viewer(), op,
                       request, tallies[c], nullptr);
      }
      generator.reset();  // measurement starts at the stream's beginning
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& t : tallies) tally.merge(t);
  return seconds;
}

// ---- The photos app's quota -----------------------------------------------------

// The share of the photos app's quota spent so far, in its most-spent
// resource. The quota (ProviderConfig::app_limits) is cumulative over a
// provider's life, so a closed loop that runs long enough on one provider
// runs it out, and the faster the provider, the sooner.
double quota_spent(Provider& provider) {
  const w5::platform::Module* module =
      provider.modules().resolve("photoco", "photos");
  const w5::os::ResourceContainer* app = provider.modules().container_for(
      module->path(), provider.config().app_limits);
  const w5::os::ResourceVector usage = app->usage();
  double spent = 0;
  for (const auto r : {w5::os::Resource::kCpu, w5::os::Resource::kMemory,
                       w5::os::Resource::kDisk, w5::os::Resource::kNetwork}) {
    if (app->limits()[r] > 0)
      spent = std::max(spent, static_cast<double>(usage[r]) /
                                  static_cast<double>(app->limits()[r]));
  }
  return spent;
}

// A provider killed an app for its quota: the answers it then gives are
// 503s that say nothing about the code under test, so no numbers are
// reported. Not a wrong answer: the benchmark retired the provider late.
struct QuotaExhausted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require_quota(Provider& provider) {
  if (provider.audit().count(w5::platform::AuditKind::kQuotaKill) > 0)
    throw QuotaExhausted(
        "an app ran out of its quota on one provider; the run must move to "
        "a fresh set-up sooner (kQuotaShare)");
}

// ---- The untraced run -------------------------------------------------------------

// The run is cut into windows of equal length, each scaled to the
// reference host speed, and every end-to-end figure is the mean over the
// windows. The host's speed wanders over seconds; a median jumps between
// fast and slow stretches as their shares cross one half, while the mean
// moves only in proportion to the shares.
struct Window {
  double throughput_rps = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double cpu_us_per_req = 0;
};

// Accumulates over the sub-runs of one invocation.
struct RunResult {
  Tally tally;
  std::vector<Window> windows;      // at the reference host speed
  std::vector<Window> raw_windows;  // as measured
  std::vector<double> factors;      // host speed in each window
  // Peak RSS when kRssRequests had been served; 0 until then.
  double rss_mb = 0;
  double latency_sum_us = 0;
  std::uint64_t samples = 0;
  double elapsed_s = 0;

  double mean_latency_us() const {
    return samples > 0 ? latency_sum_us / static_cast<double>(samples) : 0;
  }
};

// Runs the closed loop on `setup` for at most `max_windows` windows of
// `window_ns` each and returns how many it measured. Between windows the
// clients pause and the host probe runs a slice; each window is scaled by
// the probe's rate around it (see HostProbe). The run stops early, after
// a window, when two more windows at the fastest quota spend seen so far
// would take the photos app past kQuotaShare of its quota.
int run_untraced(Setup& setup, const World& world, HostProbe& host,
                 std::int64_t window_ns, int max_windows,
                 bool plant_wrong_body, RunResult& result) {
  // Latencies go straight into their window, four bytes each, so the
  // benchmark's own memory stays small next to the provider's.
  struct PerClient {
    Tally tally;
    std::vector<std::vector<float>> latency_us;
    std::vector<std::uint64_t> ok;
    double latency_sum_us = 0;
    std::uint64_t samples = 0;
  };
  std::vector<PerClient> per(kClients);
  for (auto& mine : per) {
    mine.latency_us.resize(max_windows);
    mine.ok.resize(max_windows, 0);
  }
  // Two rendezvous per window: the window opens, and every client has
  // finished its last request of it. window < 0 sends the clients home.
  std::barrier sync(kClients + 1);
  std::atomic<int> window{0};
  std::atomic<std::int64_t> window_end{0};
  // Requests of the whole untraced run so far; the one that makes it
  // kRssRequests reads the peak RSS.
  std::atomic<std::uint64_t> served{result.samples};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& mine = per[c];
      Channel& channel = *setup.channels[c];
      Generator& generator = setup.generators[c];
      std::uint64_t n = 0;
      for (;;) {
        sync.arrive_and_wait();
        const int w = window.load();
        if (w < 0) return;
        const std::int64_t end = window_end.load();
        while (now_ns() < end) {
          Op op = generator.next();
          const HttpRequest request =
              make_request(*setup.deployment, c, op, false);
          if (plant_wrong_body && c == 0 && ++n == 5) op.expect_body += "#";
          Timing timing;
          const bool ok = exchange(channel, world, generator.viewer(), op,
                                   request, mine.tally, &timing)
                              .has_value();
          const double us =
              static_cast<double>(timing.end_ns - timing.start_ns) / 1e3;
          mine.latency_sum_us += us;
          ++mine.samples;
          mine.latency_us[w].push_back(static_cast<float>(us));
          if (ok) ++mine.ok[w];
          if (served.fetch_add(1, std::memory_order_relaxed) + 1 ==
              kRssRequests)
            result.rss_mb = peak_rss_mb();
        }
        sync.arrive_and_wait();
      }
    });
  }

  // CPU clocks when each window opens and closes: the process, each
  // client thread, and the program's share of an in-process client's
  // thread.
  std::vector<clockid_t> clocks(kClients);
  for (int c = 0; c < kClients; ++c)
    pthread_getcpuclockid(threads[c].native_handle(), &clocks[c]);
  const auto client_cpu = [&]() {
    std::int64_t total = 0;
    for (int c = 0; c < kClients; ++c) {
      timespec ts{};
      clock_gettime(clocks[c], &ts);
      total += static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
               ts.tv_nsec - setup.channels[c]->program_cpu_ns();
    }
    return total;
  };
  Provider& provider = setup.deployment->provider();
  double spent = quota_spent(provider);
  double fastest = 0;  // most quota one window has spent
  int windows = max_windows;
  // Per window: [open, close) of the process and client CPU clocks, the
  // wall time until the last client finished, and the host factor.
  std::vector<std::int64_t> process_open, process_close, clients_open,
      clients_close, wall_ns;
  std::vector<double> factor;
  double probe_before = host.probe();
  for (int w = 0; w < max_windows; ++w) {
    window.store(w);
    process_open.push_back(process_cpu_ns());
    clients_open.push_back(client_cpu());
    const std::int64_t open = now_ns();
    window_end.store(open + window_ns);
    sync.arrive_and_wait();  // the window opens
    sync.arrive_and_wait();  // every client is back
    wall_ns.push_back(now_ns() - open);
    process_close.push_back(process_cpu_ns());
    clients_close.push_back(client_cpu());
    const double probe_after = host.probe();
    factor.push_back(host.factor((probe_before + probe_after) / 2));
    probe_before = probe_after;
    const double now_spent = quota_spent(provider);
    fastest = std::max(fastest, now_spent - spent);
    spent = now_spent;
    if (w + 1 < max_windows && spent + 2 * fastest > kQuotaShare) {
      windows = w + 1;
      break;
    }
  }
  window.store(-1);
  sync.arrive_and_wait();
  for (auto& thread : threads) thread.join();

  for (const auto& mine : per) {
    result.tally.merge(mine.tally);
    result.latency_sum_us += mine.latency_sum_us;
    result.samples += mine.samples;
  }
  for (int w = 0; w < windows; ++w) {
    std::vector<double> latency_us;
    std::uint64_t ok = 0;
    for (const auto& mine : per) {
      latency_us.insert(latency_us.end(), mine.latency_us[w].begin(),
                        mine.latency_us[w].end());
      ok += mine.ok[w];
    }
    result.elapsed_s += static_cast<double>(wall_ns[w]) / 1e9;
    Window raw;
    const double requests = static_cast<double>(latency_us.size());
    raw.throughput_rps =
        static_cast<double>(ok) / (static_cast<double>(wall_ns[w]) / 1e9);
    raw.p50_us = quantile(latency_us, 0.50);
    raw.p90_us = quantile(latency_us, 0.90);
    raw.p99_us = quantile(latency_us, 0.99);
    const double program_ns =
        static_cast<double>((process_close[w] - process_open[w]) -
                            (clients_close[w] - clients_open[w]));
    raw.cpu_us_per_req = requests > 0 ? program_ns / 1e3 / requests : 0;
    // At the reference host speed: a host running at `f` times it
    // serves f times the requests, each in 1/f of the time.
    const double f = factor[w];
    Window adjusted = raw;
    adjusted.throughput_rps /= f;
    adjusted.p50_us *= f;
    adjusted.p90_us *= f;
    adjusted.p99_us *= f;
    adjusted.cpu_us_per_req *= f;
    result.raw_windows.push_back(raw);
    result.windows.push_back(adjusted);
    result.factors.push_back(f);
  }
  return windows;
}

double mean_over(const std::vector<Window>& windows, double Window::*field) {
  double sum = 0;
  for (const auto& window : windows) sum += window.*field;
  return windows.empty() ? 0 : sum / static_cast<double>(windows.size());
}

// ---- Program counters ---------------------------------------------------------------

struct Counters {
  w5::util::Json metrics;
  std::uint64_t flow_hits = 0;
  std::uint64_t flow_misses = 0;
  std::uint64_t audit_events = 0;
  std::uint64_t store_puts = 0;
};

Counters read_counters(Provider& provider) {
  Counters out;
  out.metrics = provider.metrics().to_json();
  const auto& cache = w5::difc::FlowCache::instance();
  out.flow_hits = cache.hits();
  out.flow_misses = cache.misses();
  for (int kind = 0; kind < 8; ++kind)
    out.audit_events +=
        provider.audit().count(static_cast<w5::platform::AuditKind>(kind));
  out.store_puts = provider.store().op_counts().puts;
  return out;
}

// A histogram diffed over the run: count, sum, and per-bucket counts.
struct HistogramDelta {
  double count = 0;
  double sum = 0;
  std::vector<double> bounds;   // finite upper edges
  std::vector<double> buckets;  // bounds.size() + 1, last is +Inf

  double mean() const { return count > 0 ? sum / count : 0; }
  // Linear interpolation inside the winning bucket, the rule
  // util::Histogram::percentile uses.
  double percentile(double p) const {
    if (count <= 0) return 0;
    const double rank = p / 100.0 * count;
    double seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (seen + buckets[i] >= rank && buckets[i] > 0) {
        if (i >= bounds.size()) return bounds.empty() ? 0 : bounds.back();
        const double lo = i == 0 ? 0 : bounds[i - 1];
        return lo + (bounds[i] - lo) * (rank - seen) / buckets[i];
      }
      seen += buckets[i];
    }
    return bounds.empty() ? 0 : bounds.back();
  }
};

// Program counters summed over the sub-runs (each on its own provider).
struct CounterDeltas {
  std::map<std::string, double> counters;
  std::map<std::string, HistogramDelta> histograms;
  double flow_hits = 0;
  double flow_misses = 0;
  double audit_events = 0;
  double store_puts = 0;

  void add(const Counters& before, const Counters& after) {
    const auto& then = before.metrics.at("counters");
    for (const auto& [name, value] : after.metrics.at("counters").as_object())
      counters[name] += value.as_number() -
                        (then.contains(name) ? then.at(name).as_number() : 0);
    const auto& then_h = before.metrics.at("histograms");
    for (const auto& [name, entry] :
         after.metrics.at("histograms").as_object()) {
      const w5::util::Json* old =
          then_h.contains(name) ? &then_h.at(name) : nullptr;
      HistogramDelta& delta = histograms[name];
      delta.count += entry.at("count").as_number() -
                     (old ? old->at("count").as_number() : 0);
      delta.sum += entry.at("sum").as_number() -
                   (old ? old->at("sum").as_number() : 0);
      const auto& buckets = entry.at("buckets").as_array();
      delta.buckets.resize(buckets.size(), 0);
      delta.bounds.clear();
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        const auto& le = buckets[i].at("le");
        if (le.is_number()) delta.bounds.push_back(le.as_number());
        delta.buckets[i] +=
            buckets[i].at("count").as_number() -
            (old ? old->at("buckets").as_array()[i].at("count").as_number()
                 : 0);
      }
    }
    flow_hits += static_cast<double>(after.flow_hits - before.flow_hits);
    flow_misses += static_cast<double>(after.flow_misses - before.flow_misses);
    audit_events +=
        static_cast<double>(after.audit_events - before.audit_events);
    store_puts += static_cast<double>(after.store_puts - before.store_puts);
  }

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  HistogramDelta histogram(const std::string& name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? HistogramDelta{} : it->second;
  }
};

// ---- Span statistics ---------------------------------------------------------------

struct LayerStats {
  std::vector<double> self_us;  // one entry per call
  double total_self_us = 0;
  double total_us = 0;  // span durations, children included
};

struct TraceSummary {
  std::map<std::string, LayerStats> layers;   // benchmark spans
  std::map<std::string, LayerStats> program;  // the provider's own spans
  std::uint64_t requests = 0;
  double request_total_us = 0;
  double layer_self_total_us = 0;
};

void summarize(const SpanLog& log, TraceSummary& out) {
  const auto& spans = log.spans();
  std::vector<double> child_us(spans.size() + 1, 0);
  for (const Span& span : spans) {
    if (span.parent != 0)
      child_us[span.parent] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e3;
  }
  for (const Span& span : spans) {
    const double dur = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    if (span.parent == 0) {
      ++out.requests;
      out.request_total_us += dur;
      continue;
    }
    const double self = dur - child_us[span.id];
    LayerStats& stats =
        (span.program ? out.program : out.layers)[span.name];
    stats.self_us.push_back(self);
    stats.total_self_us += self;
    stats.total_us += dur;
    if (!span.program) out.layer_self_total_us += self;
  }
}

// Mean duration of one call to `layer`, children included; 0 when the
// layer was not called.
double mean_call_us(const TraceSummary& summary, const char* layer) {
  const auto it = summary.layers.find(layer);
  if (it == summary.layers.end() || it->second.self_us.empty()) return 0;
  return it->second.total_us / static_cast<double>(it->second.self_us.size());
}

// One CSV row per span; start is relative to the pass's first span.
void write_spans(const std::string& path,
                 const std::vector<SpanLog>& logs) {
  if (path.empty()) return;
  std::int64_t origin = INT64_MAX;
  for (const auto& log : logs)
    if (!log.spans().empty())
      origin = std::min(origin, log.spans().front().start_ns);
  std::ofstream out(path, std::ios::trunc);
  out << "client,request,id,parent,name,start_ns,duration_ns,program\n";
  for (const auto& log : logs) {
    for (const Span& span : log.spans()) {
      out << (span.request >> 32) << ',' << (span.request & 0xffffffffu)
          << ',' << span.id << ',' << span.parent << ',' << span.name << ','
          << span.start_ns - origin << ',' << span.end_ns - span.start_ns
          << ',' << (span.program ? 1 : 0) << '\n';
    }
  }
}

// ---- The traced passes ----------------------------------------------------------------

struct TracedResult {
  Tally tally;
  std::vector<SpanLog> logs;  // one per thread
  ReplayStats stats;
};

// Each request is issued for real with X-W5-Sampled: 1, then replayed
// layer by layer (replay_layers), for `seconds` from the start of every
// client's stream. With `threads` == kClients each thread is one client;
// with 1, one thread takes the clients' requests in turn. Two passes that
// differ only in `threads` make the same calls, and comparing them prices
// what running beside the other clients costs (the *.wait_us metrics).
TracedResult run_traced(Setup& setup, const World& world, double seconds,
                        int threads) {
  TracedResult result;
  result.logs.resize(threads);
  std::vector<Tally> tallies(threads);
  std::vector<ReplayStats> stats(threads);
  std::vector<std::uint64_t> issued(kClients, 0);
  for (auto& generator : setup.generators) generator.reset();
  const std::int64_t stop =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SpanLog& log = result.logs[t];
      log.reserve(1 << 18);
      while (now_ns() < stop) {
        for (int c = t; c < kClients; c += threads) {
          Channel& channel = *setup.channels[c];
          Generator& generator = setup.generators[c];
          const Op op = generator.next();
          const HttpRequest request =
              make_request(*setup.deployment, c, op, true);
          log.set_request((static_cast<std::uint64_t>(c) << 32) |
                          ++issued[c]);
          Timing timing;
          const auto response = exchange(channel, world, generator.viewer(),
                                         op, request, tallies[t], &timing);
          const std::uint32_t root =
              log.add("request", 0, timing.start_ns, timing.end_ns, false);
          if (response)
            replay_layers(*setup.deployment, c, op, request, *response,
                          channel.tcp(), root, log, stats[t]);
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  for (int t = 0; t < threads; ++t) {
    result.tally.merge(tallies[t]);
    result.stats.query_rows += stats[t].query_rows;
    result.stats.dump_bytes += stats[t].dump_bytes;
  }
  return result;
}

// ---- The program's own spans for one force-sampled request ----------------------------

struct Probe {
  bool ok = false;
  std::string report;
};

Probe probe_program_spans(Setup& setup, const World& world, Tally& tally) {
  Probe probe;
  const std::string& viewer = world.owners[0];
  Op op;
  op.kind = OpKind::kPhotoView;
  op.mix = "probe";
  op.collection = "photos";
  op.record_id = world.photo_ids.at(viewer).front();
  op.subject = viewer;
  op.target = "/dev/photoco/photos/view?id=" + op.record_id;
  op.expect_body = world.records.at("photos/" + op.record_id);
  const HttpRequest request = make_request(*setup.deployment, 0, op, true);
  Channel& channel = *setup.channels[0];
  const auto response =
      exchange(channel, world, viewer, op, request, tally, nullptr);
  if (!response) {
    probe.report = "probe request failed";
    return probe;
  }
  const std::string id = response->headers.get("X-W5-Trace").value_or("");
  std::vector<std::string> want = {"kernel.spawn", "app", "store.get",
                                   "declassify", "flow-check"};
  if (channel.tcp()) {
    for (const char* stage : {"stage.parse", "stage.dispatch",
                              "stage.handler", "stage.write"})
      want.emplace_back(stage);
  }
  // Stage spans attach after the response's last byte is written.
  std::optional<w5::platform::Trace> trace;
  std::vector<std::string> missing;
  for (int attempt = 0; attempt < 100; ++attempt) {
    trace = setup.deployment->provider().traces().find(id);
    missing.clear();
    for (const auto& name : want) {
      const bool found =
          trace && std::any_of(trace->spans.begin(), trace->spans.end(),
                               [&](const auto& s) { return s.name == name; });
      if (!found) missing.push_back(name);
    }
    if (missing.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // The same request replayed, for the side-by-side report.
  SpanLog log;
  ReplayStats stats;
  replay_layers(*setup.deployment, 0, op, request, *response, channel.tcp(),
                0, log, stats);
  std::string report = "# program spans (trace " + id + "):";
  if (trace) {
    for (const auto& span : trace->spans)
      report += " " + span.name + "=" + std::to_string(span.duration) + "us";
  }
  report += "\n# replay spans (same request):";
  for (const Span& span : log.spans())
    report += std::string(" ") + span.name + "=" +
              fmt(static_cast<double>(span.end_ns - span.start_ns) / 1e3) +
              "us";
  if (!missing.empty()) {
    report += "\n# MISSING program spans:";
    for (const auto& name : missing) report += " " + name;
  }
  probe.ok = missing.empty();
  probe.report = report;
  return probe;
}

// ---- Output ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(tally.attempted) +
                    ", \"failed\": " + std::to_string(tally.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt(std::isfinite(metrics[i].value) ? metrics[i].value : 0) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// "audit.wait_us", "search.wait_us", "os.spawn.wait_us", ...
std::string wait_metric(const std::string& layer) {
  if (layer == "audit.record") return "audit.wait_us";
  if (layer == "search.record_use") return "search.wait_us";
  return layer + ".wait_us";
}

int run(const Args& args) {
  const World world = make_world(args.workload, args.seed);
  const std::uint64_t hash = stream_hash(world, kHashedOps);
  if (args.stream_hash_only) {
    std::printf("%016" PRIx64 "\n", hash);
    return 0;
  }
  const char* name = workload_name(args.workload);
  std::printf("# w5bench workload=%s seed=%" PRIu64
              " seconds=%s trace=%d clients=%d\n",
              name, args.seed, fmt(args.seconds).c_str(),
              args.trace ? 1 : 0, kClients);
  std::printf("# stream_hash=%016" PRIx64 "\n", hash);

  Tally tally;  // every checked request of this invocation
  // The probe's table stays resident for the whole run; rss_mb leaves
  // it out.
  const double rss_before_probe_mb = current_rss_mb();
  HostProbe host(args.workload, args.state_dir + "/probe-" +
                                    std::to_string(::getpid()));
  const double probe_mb = current_rss_mb() - rss_before_probe_mb;
  Setup setup;
  std::vector<double> setup_s;
  std::vector<double> recovery_s;
  int setups_made = 0;
  const auto fresh_setup = [&] {
    const std::string state_dir = args.state_dir + "/" + name + "-" +
                                  std::to_string(::getpid()) + "-" +
                                  std::to_string(setups_made++);
    setup_s.push_back(set_up(setup, world, state_dir, tally));
    recovery_s.push_back(setup.deployment->recovery_s());
  };
  const double probe_before_setups = host.probe();
  fresh_setup();
  const Fingerprint fingerprint =
      build_fingerprint(setup.deployment->provider());
  std::printf("# build %s\n", fingerprint.text.c_str());
  if (!fingerprint.refusal.empty()) {
    std::fprintf(stderr, "w5bench: refusing to report numbers: %s\n",
                 fingerprint.refusal.c_str());
    return 2;
  }
  // Set-ups that only time set-up; the last one carries the run.
  for (int k = 1; k < (args.trace ? 1 : kSetups); ++k) fresh_setup();
  const double setup_factor =
      host.factor((probe_before_setups + host.probe()) / 2);

  // The measured time, in windows of equal length, on as many providers
  // as the photos app's quota asks for (see run_untraced()).
  const int windows =
      kWindowsPer10s *
      std::max(1, static_cast<int>(std::ceil(args.seconds / 10)));
  const auto window_ns =
      static_cast<std::int64_t>(args.seconds * 1e9 / windows);
  RunResult run;
  CounterDeltas deltas;
  double rss_mb = 0;
  int sub_runs = 0;
  for (int done = 0; done < windows; ++sub_runs) {
    if (sub_runs > 0) fresh_setup();
    Provider& provider = setup.deployment->provider();
    const Counters before = read_counters(provider);
    done += run_untraced(setup, world, host, window_ns, windows - done,
                         args.plant_wrong_body && sub_runs == 0, run);
    deltas.add(before, read_counters(provider));
    require_quota(provider);
    // Peak RSS within the first sub-run (at its end when it served fewer
    // than kRssRequests): later providers are set up over the freed heap
    // of earlier ones, which the allocator does not all hand back.
    if (sub_runs == 0)
      rss_mb = (run.rss_mb > 0 ? run.rss_mb : peak_rss_mb()) - probe_mb;
  }
  tally.merge(run.tally);

  const double attempted = static_cast<double>(run.tally.attempted);
  const double mean_latency_us = run.mean_latency_us();
  const std::vector<Metric> end_to_end = {
      {"throughput_rps", mean_over(run.windows, &Window::throughput_rps),
       "1/s"},
      {"latency_p50_us", mean_over(run.windows, &Window::p50_us), "us"},
      {"latency_p90_us", mean_over(run.windows, &Window::p90_us), "us"},
      {"cpu_us_per_req", mean_over(run.windows, &Window::cpu_us_per_req),
       "us"},
      {"rss_mb", rss_mb, "MiB"},
      {"setup_s", quantile(setup_s, 0.5) * setup_factor, "s"},
  };
  std::printf("# untraced run: %" PRIu64 " attempted, %" PRIu64
              " failed, error_ratio=%s, %" PRIu64
              " latency samples, %s s in %d sub-runs, means over %zu "
              "windows\n",
              run.tally.attempted, run.tally.failed,
              fmt(ratio(static_cast<double>(run.tally.failed), attempted))
                  .c_str(),
              run.samples, fmt(run.elapsed_s).c_str(), sub_runs,
              run.windows.size());
  for (std::size_t w = 0; w < run.windows.size(); ++w) {
    const Window& window = run.raw_windows[w];
    std::printf(
        "# window %zu (as measured, host %s): %s rps, p50 %s us, p90 %s "
        "us, p99 %s us, cpu %s us/req\n",
        w, fmt(run.factors[w]).c_str(), fmt(window.throughput_rps).c_str(),
        fmt(window.p50_us).c_str(), fmt(window.p90_us).c_str(),
        fmt(window.p99_us).c_str(), fmt(window.cpu_us_per_req).c_str());
  }
  std::string probes_text;
  for (const double r : host.rates()) probes_text += " " + fmt(r);
  std::printf("# host probe (%s MiB resident) rates (1/s):%s\n",
              fmt(probe_mb).c_str(), probes_text.c_str());
  std::printf("# as measured: %s rps, p50 %s us, p90 %s us, cpu %s us/req, "
              "setup %s s\n",
              fmt(mean_over(run.raw_windows, &Window::throughput_rps)).c_str(),
              fmt(mean_over(run.raw_windows, &Window::p50_us)).c_str(),
              fmt(mean_over(run.raw_windows, &Window::p90_us)).c_str(),
              fmt(mean_over(run.raw_windows, &Window::cpu_us_per_req)).c_str(),
              fmt(quantile(setup_s, 0.5)).c_str());
  std::string setups_text;
  for (const double s : setup_s) setups_text += " " + fmt(s);
  std::printf("# setup_s runs (as measured, host %s):%s\n",
              fmt(setup_factor).c_str(), setups_text.c_str());
  if (args.workload == Workload::kTcpDurableWrite) {
    const double recovery = quantile(recovery_s, 0.5);
    std::printf("# recovery_s (close and re-open) median %s s, %s of the "
                "setup_s median; %" PRIu64 " WAL entries replayed\n",
                fmt(recovery).c_str(),
                fmt(ratio(recovery, quantile(setup_s, 0.5))).c_str(),
                setup.deployment->provider().recovery_stats().replayed_entries);
  }
  for (const auto& m : end_to_end)
    std::printf("# %-16s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
  // Report-only: on this shared host the run-to-run spread of p99 is far
  // wider than any usable bound (README.md "Limits").
  std::printf("# %-16s %14s %s\n", "latency_p99_us",
              fmt(mean_over(run.windows, &Window::p99_us)).c_str(), "us");

  if (!args.trace) {
    if (!tally.first_failure.empty())
      std::printf("# first failure: %s\n", tally.first_failure.c_str());
    print_result(tally.failed == 0, tally, end_to_end);
    return 0;
  }

  // ---- Counter-derived layer metrics, over the untraced run ----
  const auto delta = [&](const std::string& counter) {
    return deltas.counter(counter);
  };
  const double audit_events = deltas.audit_events;
  const double decisions =
      delta("w5_declassifier_decisions_total{verdict=\"allow\"}") +
      delta("w5_declassifier_decisions_total{verdict=\"deny\"}");
  const double exports_allowed = delta("w5_exports_total{verdict=\"allow\"}");
  const double exports_blocked =
      delta("w5_exports_total{verdict=\"blocked\"}");
  const double flow_hits = deltas.flow_hits;
  const double flow_misses = deltas.flow_misses;
  const auto stage = [&](const char* which) {
    return deltas.histogram(std::string("w5_reactor_stage_micros{stage=\"") +
                            which + "\"}");
  };
  const HistogramDelta lag = deltas.histogram("w5_reactor_loop_lag_micros");
  const HistogramDelta batch = deltas.histogram("w5_reactor_epoll_batch");
  const HistogramDelta wal_batch = deltas.histogram("w5_wal_batch_entries");
  const HistogramDelta wal_fsync = deltas.histogram("w5_wal_fsync_micros");
  const double puts = deltas.store_puts;

  // ---- The traced passes, on a provider of their own ----
  fresh_setup();
  const TracedResult traced = run_traced(
      setup, world, std::clamp(args.seconds / 2, 0.5, kTracedSeconds),
      kClients);
  tally.merge(traced.tally);
  const TracedResult alone = run_traced(
      setup, world, std::clamp(args.seconds / 4, 0.25, kOneThreadSeconds), 1);
  tally.merge(alone.tally);
  const Probe probe = probe_program_spans(setup, world, tally);
  require_quota(setup.deployment->provider());

  TraceSummary summary;
  for (const auto& log : traced.logs) summarize(log, summary);
  TraceSummary one_thread;
  for (const auto& log : alone.logs) summarize(log, one_thread);
  write_spans(args.spans_out, traced.logs);
  const double requests = static_cast<double>(summary.requests);
  const double traced_mean_us = ratio(summary.request_total_us, requests);

  std::printf("# traced pass: %" PRIu64 " requests, mean %s us per request "
              "(untraced mean %s us); one-thread pass: %" PRIu64
              " requests\n",
              summary.requests, fmt(traced_mean_us).c_str(),
              fmt(mean_latency_us).c_str(), one_thread.requests);
  std::printf("# %-20s %9s %10s %10s %10s %8s\n", "layer", "calls/req",
              "self_p50", "self_p99", "self_mean", "share");
  std::vector<std::pair<double, std::string>> by_share;
  std::map<std::string, double> median_us;
  for (const char* layer : kLayers) {
    const auto it = summary.layers.find(layer);
    const LayerStats empty;
    const LayerStats& stats = it == summary.layers.end() ? empty : it->second;
    const double calls = static_cast<double>(stats.self_us.size());
    const double share = ratio(stats.total_self_us, summary.request_total_us);
    median_us[layer] = quantile(stats.self_us, 0.5);
    by_share.emplace_back(share, layer);
    std::printf("# %-20s %9s %10s %10s %10s %8s\n", layer,
                fmt(ratio(calls, requests)).c_str(),
                fmt(median_us[layer]).c_str(),
                fmt(quantile(stats.self_us, 0.99)).c_str(),
                fmt(ratio(stats.total_self_us, calls)).c_str(),
                fmt(share).c_str());
  }
  for (const auto& [name_, stats] : summary.program) {
    std::printf("# %-20s %9s %10s %10s %10s %8s\n", name_.c_str(),
                fmt(ratio(static_cast<double>(stats.self_us.size()), requests))
                    .c_str(),
                fmt(quantile(stats.self_us, 0.5)).c_str(),
                fmt(quantile(stats.self_us, 0.99)).c_str(),
                fmt(ratio(stats.total_self_us,
                          static_cast<double>(stats.self_us.size())))
                    .c_str(),
                "(child)");
  }
  std::sort(by_share.rbegin(), by_share.rend());
  std::printf("# top layers by self time: %s %s %s\n",
              by_share[0].second.c_str(), by_share[1].second.c_str(),
              by_share[2].second.c_str());

  // wait = mean call time in the pass at kClients threads minus the same
  // pass's on one thread.
  std::map<std::string, double> wait_us;
  for (const char* layer : kContendedLayers) {
    const double many = mean_call_us(summary, layer);
    const double one = mean_call_us(one_thread, layer);
    if (many > 0 && one > 0) wait_us[layer] = many - one;
    std::printf("# %-20s wait %s us (%d threads %s us, 1 thread %s us)\n",
                layer, fmt(many - one).c_str(), kClients, fmt(many).c_str(),
                fmt(one).c_str());
  }
  std::printf("%s\n", probe.report.c_str());

  const auto calls_to = [&](const char* layer) {
    const auto it = summary.layers.find(layer);
    return it == summary.layers.end()
               ? 0.0
               : static_cast<double>(it->second.self_us.size());
  };
  // Every metric measured on this workload goes into the JSON line. One
  // with nothing to measure here (its layer never called, its histogram
  // empty) is left out rather than printed as a constant 0.
  std::vector<Metric> all = {
      {"audit.events_per_req", ratio(audit_events, attempted), "count"},
      {"declassify.decisions_per_req", ratio(decisions, attempted), "count"},
      {"export.blocked_ratio",
       ratio(exports_blocked, exports_allowed + exports_blocked), "ratio"},
      {"flow_cache.hit_ratio", ratio(flow_hits, flow_hits + flow_misses),
       "ratio"},
      {"layers.unattributed_share",
       1 - ratio(summary.layer_self_total_us, summary.request_total_us),
       "ratio"},
      {"trace.overhead_pct",
       mean_latency_us > 0
           ? (traced_mean_us - mean_latency_us) / mean_latency_us * 100
           : 0,
       "%"},
  };
  const auto measured = [&all](bool yes, Metric metric) {
    if (yes) all.push_back(std::move(metric));
  };
  for (const char* which : {"parse", "dispatch", "handler", "write"}) {
    const HistogramDelta histogram = stage(which);
    measured(histogram.count > 0, {std::string("reactor.") + which + "_us",
                                   histogram.mean(), "us"});
  }
  measured(lag.count > 0,
           {"reactor.loop_lag_us_p99", lag.percentile(99), "us"});
  measured(batch.count > 0,
           {"reactor.epoll_batch_mean", batch.mean(), "count"});
  measured(wal_fsync.count > 0,
           {"wal.fsyncs_per_put", ratio(delta("w5_wal_fsyncs_total"), puts),
            "count"});
  measured(wal_batch.count > 0,
           {"wal.batch_entries_mean", wal_batch.mean(), "count"});
  measured(wal_fsync.count > 0,
           {"wal.fsync_us_p50", wal_fsync.percentile(50), "us"});
  measured(calls_to("store.query_page") > 0,
           {"store.rows_per_call",
            ratio(static_cast<double>(traced.stats.query_rows),
                  calls_to("store.query_page")),
            "count"});
  measured(calls_to("json.dump") > 0,
           {"json.dump_bytes",
            ratio(static_cast<double>(traced.stats.dump_bytes),
                  calls_to("json.dump")),
            "bytes"});
  for (const char* layer : kLayers)
    measured(calls_to(layer) > 0,
             {std::string(layer) + "_us", median_us[layer], "us"});
  for (const auto& [layer, wait] : wait_us)
    all.push_back({wait_metric(layer), wait, "us"});
  for (const auto& m : all)
    std::printf("# %-28s %14s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());

  if (!tally.first_failure.empty())
    std::printf("# first failure: %s\n", tally.first_failure.c_str());
  print_result(tally.failed == 0 && probe.ok, tally, all);
  return 0;
}

}  // namespace
}  // namespace w5bench

int main(int argc, char** argv) {
  const w5bench::Args args = w5bench::parse_args(argc, argv);
  try {
    return w5bench::run(args);
  } catch (const w5bench::QuotaExhausted& e) {
    std::fprintf(stderr, "w5bench: quota exhausted: %s\n", e.what());
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "w5bench: %s\n", e.what());
    return 1;
  }
}
