// The provider under test, the client channels into it, and the
// process-level measurements (CPU, RSS, build fingerprint).
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "apps/apps.h"
#include "core/statusz.h"
#include "net/http_client.h"
#include "util/json.h"
#include "w5bench.h"

namespace w5bench {

namespace {

std::string password_of(const std::string& owner) { return "pw-" + owner; }

// Request-read timeout: a provider that stops answering fails the run
// instead of hanging it.
constexpr w5::util::Micros kReadTimeoutMicros = 10'000'000;

class InprocChannel final : public Channel {
 public:
  explicit InprocChannel(Provider& provider) : provider_(provider) {}

  std::optional<HttpResponse> send(const HttpRequest& request) override {
    const std::int64_t cpu_before = thread_cpu_ns();
    HttpResponse response = provider_.handle(request);
    program_cpu_.fetch_add(thread_cpu_ns() - cpu_before,
                           std::memory_order_relaxed);
    return response;
  }
  bool tcp() const override { return false; }
  std::int64_t program_cpu_ns() const override {
    return program_cpu_.load(std::memory_order_relaxed);
  }

 private:
  Provider& provider_;
  std::atomic<std::int64_t> program_cpu_{0};  // read by the sampling thread
};

class TcpChannel final : public Channel {
 public:
  explicit TcpChannel(std::uint16_t port) : port_(port) { dial(); }

  std::optional<HttpResponse> send(const HttpRequest& request) override {
    if (connection_ == nullptr) {
      dial();
      return std::nullopt;
    }
    auto response = client_.roundtrip(*connection_, request);
    if (!response.ok()) {
      dial();  // a re-dial is a failed request, never a silent retry
      return std::nullopt;
    }
    return std::move(response).value();
  }
  bool tcp() const override { return true; }

 private:
  void dial() {
    connection_.reset();
    auto dialed = w5::net::tcp_connect(port_);
    if (!dialed.ok()) return;
    connection_ = std::move(dialed).value();
    connection_->set_read_timeout(kReadTimeoutMicros);
  }

  std::uint16_t port_;
  w5::net::HttpClient client_;
  std::unique_ptr<w5::net::Connection> connection_;
};

[[noreturn]] void fail_setup(const std::string& what) {
  throw std::runtime_error("setup: " + what);
}

}  // namespace

// ---- Deployment -----------------------------------------------------------------

Deployment::Deployment(const World& world, const std::string& state_dir)
    : world_(world), state_dir_(state_dir) {
  const bool durable = world_.workload == Workload::kTcpDurableWrite;
  if (durable) {
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);  // a fresh state dir
  }
  // Seeding writes its WAL without fsync: it is the benchmark's
  // preparation, and one fsync per seeded record would make set-up time
  // a measure of fsync latency rather than of recovery.
  open_provider(w5::store::DurabilityMode::kNone);
  seed();
  if (durable) {
    // Close and re-open over the same state dir at the default mode, so
    // set-up times recovery: a replay of every seeded mutation.
    const std::int64_t start = now_ns();
    provider_.reset();
    open_provider(w5::store::DurabilityConfig{}.mode);
    recovery_s_ = static_cast<double>(now_ns() - start) / 1e9;
    if (provider_->recovery_stats().replayed_entries < world_.records.size())
      fail_setup("the re-open replayed fewer WAL entries than records seeded");
  }
  for (int c = 0; c < kClients; ++c) {
    const std::string& user = world_.owners[c];
    auto token = provider_->login(user, password_of(user));
    if (!token.ok()) fail_setup("login " + user + ": " + token.error().code);
    cookies_.push_back(std::string(w5::platform::kSessionCookie) + "=" +
                       token.value());
  }
  if (over_tcp(world_.workload)) {
    if (!listener_.listen(0, 64).ok()) fail_setup("listen");
    serve_thread_ = std::thread([this] { provider_->serve(listener_); });
  }
}

Deployment::~Deployment() {
  if (serve_thread_.joinable()) {
    listener_.close();
    serve_thread_.join();
  }
  provider_.reset();
  if (world_.workload == Workload::kTcpDurableWrite) {
    std::error_code ignored;
    std::filesystem::remove_all(state_dir_, ignored);
  }
}

void Deployment::open_provider(w5::store::DurabilityMode mode) {
  w5::platform::ProviderConfig config;
  if (world_.workload == Workload::kTcpDurableWrite) {
    config.durability.enabled = true;
    config.durability.dir = state_dir_;
    config.durability.mode = mode;
  }
  provider_ = std::make_unique<Provider>(std::move(config), clock_);
  if (!provider_->durability_status().ok())
    fail_setup("durability: " + provider_->durability_status().error().code);
  w5::apps::register_standard_apps(*provider_);
}

void Deployment::seed() {
  std::map<std::string, std::string> sessions;
  for (std::size_t i = 0; i < world_.owners.size(); ++i) {
    const std::string& owner = world_.owners[i];
    if (auto status = provider_->signup(owner, password_of(owner));
        !status.ok())
      fail_setup("signup " + owner + ": " + status.error().code);
    auto token = provider_->login(owner, password_of(owner));
    if (!token.ok()) fail_setup("login " + owner);
    sessions[owner] = token.value();

    w5::platform::UserPolicy policy;
    policy.secrecy_declassifier = "std/friends";
    if (i < static_cast<std::size_t>(kClients))
      policy.write_grants = {"photoco/photos"};
    provider_->policies().set(owner, std::move(policy));

    std::string friends;
    for (const std::string& viewer : world_.friend_list.at(owner))
      friends += (friends.empty() ? "\"" : ",\"") + viewer + "\"";
    const auto response =
        provider_->http(Method::kPost, "/data/friends/" + owner,
                        R"({"friends":[)" + friends + "]}", token.value());
    if (response.status != 201) fail_setup("friends of " + owner);
  }
  for (const auto& [key, body] : world_.records) {
    const auto response =
        provider_->http(Method::kPost, "/data/" + key, body,
                        sessions.at(world_.record_owner.at(key)));
    if (response.status != 201) fail_setup("seed " + key);
  }
}

std::unique_ptr<Channel> open_channel(Deployment& deployment) {
  if (over_tcp(deployment.world().workload))
    return std::make_unique<TcpChannel>(deployment.port());
  return std::make_unique<InprocChannel>(deployment.provider());
}

HttpRequest make_request(const Deployment& deployment, int client,
                         const Op& op, bool sampled) {
  HttpRequest request;
  request.method = op.method;
  request.target = op.target;
  request.body = op.body;
  if (auto parsed = w5::net::parse_request_target(op.target))
    request.parsed = std::move(*parsed);
  request.headers.set("Cookie", deployment.cookie(client));
  if (sampled) request.headers.set("X-W5-Sampled", "1");
  return request;
}

// ---- Clocks and statistics --------------------------------------------------------

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0;
  double pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}


// ---- Build fingerprint --------------------------------------------------------------

Fingerprint build_fingerprint(Provider& provider) {
  Fingerprint out;
  std::vector<std::string> refusals;
  std::string text = "compiler=gcc-" __VERSION__;
#if defined(__clang__)
  text = "compiler=clang-" __clang_version__;
#endif
  std::replace(text.begin(), text.end(), ' ', '_');
  text += std::string(" build_type=") + W5BENCH_BUILD_TYPE;
#ifdef NDEBUG
  text += " NDEBUG=1";
#else
  text += " NDEBUG=0";
#endif
#ifdef W5_LOCK_WITNESS
  text += " W5_LOCK_WITNESS=1";
  refusals.push_back("the lock-order witness is compiled in");
#else
  text += " W5_LOCK_WITNESS=0";
#endif
#ifdef W5_NO_TELEMETRY
  text += " W5_NO_TELEMETRY=1";
#else
  text += " W5_NO_TELEMETRY=0";
#endif
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address,";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread,";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizers += "address,";
#endif
#if __has_feature(thread_sanitizer)
  sanitizers += "thread,";
#endif
#if __has_feature(undefined_behavior_sanitizer)
  sanitizers += "undefined,";
#endif
#endif
  if (!sanitizers.empty()) {
    sanitizers.pop_back();
    refusals.push_back("sanitizers are compiled in (" + sanitizers + ")");
  }
  text += " sanitizers=" + (sanitizers.empty() ? "none" : sanitizers);
  // The library's own view of its build (core/statusz.cpp), compiled
  // with the library's flags rather than this file's.
  const w5::util::Json build =
      w5::platform::build_statusz(provider).at("build");
  const bool optimized = build.at("optimized").as_bool();
  text += std::string(" lib_optimized=") + (optimized ? "1" : "0");
  if (!optimized) refusals.push_back("the provider library is not optimized");
  text += " nproc=" + std::to_string(std::thread::hardware_concurrency());
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000002, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      __get_cpuid(0x80000003, &regs[4], &regs[5], &regs[6], &regs[7]) &&
      __get_cpuid(0x80000004, &regs[8], &regs[9], &regs[10], &regs[11])) {
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
    model.erase(model.find_last_not_of(' ') + 1);
  }
#endif
  std::replace(model.begin(), model.end(), ' ', '_');
  text += " cpu=" + model;
  out.text = text;
  for (const auto& reason : refusals)
    out.refusal += (out.refusal.empty() ? "" : "; ") + reason;
  return out;
}

}  // namespace w5bench
