// Shared declarations of the W5 end-to-end benchmark (see README.md).
//
// The benchmark drives an unmodified Provider with one of three seeded
// traffic mixes, checks every response against its own model of what it
// wrote, and reports end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/provider.h"
#include "net/http.h"
#include "net/tcp.h"
#include "util/clock.h"

namespace w5bench {

using w5::net::HttpRequest;
using w5::net::HttpResponse;
using w5::net::Method;
using w5::platform::Provider;

// ---- Workloads --------------------------------------------------------------

enum class Workload : std::uint8_t {
  kTcpSmallMix,
  kInprocBulkRead,
  kTcpDurableWrite,
};

std::optional<Workload> workload_from_name(std::string_view name);
const char* workload_name(Workload workload);
bool over_tcp(Workload workload);

// Client threads: each holds one connection (TCP mixes) or calls
// Provider::handle directly (in-process mix), and acts as one user.
inline constexpr int kClients = 4;

// splitmix64: the same seed gives the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

// ---- The seeded world ---------------------------------------------------------

// Everything the seed decides before the provider exists: users, friend
// lists, and the canonical JSON bytes of every seeded record. Immutable
// once built; client threads share it read-only.
struct World {
  Workload workload = Workload::kTcpSmallMix;
  std::uint64_t seed = 0;
  // All data owners; owners[0..kClients) are the logged-in client users.
  std::vector<std::string> owners;
  std::map<std::string, std::string> canary;  // owner -> canary string
  // owner -> users allowed through the owner's std/friends declassifier.
  std::map<std::string, std::set<std::string>> friend_list;
  // Per client: owners whose data it may read, and owners it may not.
  std::vector<std::vector<std::string>> friends;
  std::vector<std::vector<std::string>> strangers;
  // owner -> ids of its small photos, sorted (store key order).
  std::map<std::string, std::vector<std::string>> photo_ids;
  // "collection/id" -> canonical JSON body, as seeded.
  std::map<std::string, std::string> records;
  // "collection/id" -> owner, for every seeded record.
  std::map<std::string, std::string> record_owner;
  // Small photo id -> (caption, title), for expected list pages.
  std::map<std::string, std::pair<std::string, std::string>> photo_text;
  int notes_per_client = 0;
  int uploads_per_client = 0;
};

World make_world(Workload workload, std::uint64_t seed);

// ---- Requests -----------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kPhotoView,  // GET /dev/photoco/photos/view?id=
  kPhotoList,  // GET /dev/photoco/photos/list?user=&limit=50
  kUpload,     // POST /dev/photoco/photos/upload?id=
  kDataGet,    // GET /data/:collection/:id
  kDataPut,    // POST /data/:collection/:id
  kDataList,   // GET /data/photos?limit=50
};

inline constexpr int kPageRows = 50;

// One generated request plus exactly what a correct provider answers.
struct Op {
  OpKind kind = OpKind::kDataGet;
  const char* mix = "";  // share of the mix it came from ("own_view", ...)
  Method method = Method::kGet;
  std::string target;
  std::string body;
  std::string collection;
  std::string record_id;  // view/get/put/upload key
  std::string subject;    // list pages: whose rows; else the record owner
  std::string cursor;     // list pages: resume token, "" = first page
  int expect_status = 200;
  std::string expect_body;
  bool denied = false;    // expects the generic perimeter denial
};

// The perimeter's one denial body (core/gateway.cpp perimeter_denial()).
inline constexpr std::string_view kDenialBody =
    R"({"error":"export blocked by security perimeter"})";

// Deterministic per-client request stream. Writes update the client's
// own model, so a later read expects the bytes last written; reset()
// restarts the stream (same ops, same bodies) but keeps the model.
class Generator {
 public:
  Generator(const World& world, int client);
  Op next();
  void reset();
  const std::string& viewer() const noexcept { return viewer_; }

 private:
  Op photo_view(const std::string& id, const std::string& owner,
                const char* mix);
  Op data_get(const std::string& collection, const std::string& id,
              const char* mix);
  Op data_put(const std::string& id);
  Op upload(const std::string& id);
  Op app_list(const std::string& subject, const char* mix);
  Op data_list(const char* mix);
  const std::string& body_of(const std::string& key) const;

  const World& world_;
  int client_;
  std::string viewer_;
  Rng rng_;
  std::uint64_t index_ = 0;  // position in the stream
  // Bodies this client changed since seeding ("collection/id" -> JSON).
  std::map<std::string, std::string> written_;
  std::string last_write_;  // "collection/id" of the newest write
};

// FNV-1a over the first `count` ops of every client's stream.
std::uint64_t stream_hash(const World& world, int count);

// "" when `response` is what `op` expects; else a short reason.
std::string check_response(const Op& op, int status, const std::string& body);

// Owner whose canary appears in `body` although `viewer` may not read
// that owner's data; "" when the body leaks nothing.
std::string find_leak(const World& world, const std::string& viewer,
                      const std::string& body);

// ---- The deployment under test ------------------------------------------------

// A provider seeded with the world and, for TCP mixes, served on a
// loopback port by Provider::serve on its own thread.
class Deployment {
 public:
  Deployment(const World& world, const std::string& state_dir);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  Provider& provider() { return *provider_; }
  const World& world() const { return world_; }
  const std::string& cookie(int client) const { return cookies_[client]; }
  std::uint16_t port() const { return listener_.port(); }
  // Wall time of the close and re-open over the state dir (durable mix
  // only; 0 otherwise).
  double recovery_s() const { return recovery_s_; }

 private:
  void open_provider(w5::store::DurabilityMode mode);
  void seed();

  const World& world_;
  std::string state_dir_;
  double recovery_s_ = 0;
  w5::util::WallClock clock_;
  std::unique_ptr<Provider> provider_;
  w5::net::TcpListener listener_;
  std::vector<std::string> cookies_;  // "w5session=<token>" per client
  std::thread serve_thread_;          // last: joins before members die
};

// One client's way to the provider: a keep-alive TCP connection or a
// direct Provider::handle call.
class Channel {
 public:
  virtual ~Channel() = default;
  // nullopt on a transport error; the channel re-dials before returning.
  virtual std::optional<HttpResponse> send(const HttpRequest& request) = 0;
  virtual bool tcp() const = 0;
  // CPU the client's thread spent inside the program so far (in-process
  // only); safe to read from another thread.
  virtual std::int64_t program_cpu_ns() const { return 0; }
};

std::unique_ptr<Channel> open_channel(Deployment& deployment);

// Builds the wire-ready request for `op` as `client`.
HttpRequest make_request(const Deployment& deployment, int client,
                         const Op& op, bool sampled);

// ---- Host probe ---------------------------------------------------------------

// A benchmark-owned stand-in for the provider, shaped like the workload
// (same client threads and transport, fixed work per exchange, an
// fdatasync per exchange in the durable shape) but running none of the
// code under test. Its rate, measured in slices between the measured
// windows, tracks how fast the shared host is at that moment.
class HostProbe {
 public:
  // `dir` holds the durable shape's log file.
  HostProbe(Workload workload, const std::string& dir);
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // Runs the stand-in for one 0.1 s slice; returns exchanges per second.
  double probe();
  // The host's speed relative to the reference box, at probe rate `rate`.
  double factor(double rate) const { return rate / shape_.reference_rate; }
  // Every slice's rate so far, for the report.
  const std::vector<double>& rates() const { return rates_; }

 private:
  struct Shape {
    bool tcp = true;     // loopback TCP to one server thread, else in process
    int lookups = 0;     // table rows copied per exchange
    bool fsync = false;  // an append and fdatasync per exchange
    double reference_rate = 1;  // exchanges per second on the reference box
  };
  static Shape shape_of(Workload workload);
  void work(const char* request, char* answer);
  void serve();

  Shape shape_;
  std::unordered_map<std::string, std::string> table_;
  std::shared_mutex table_mutex_;  // in-process shape: readers only
  std::string log_dir_;  // durable shape: holds the probe's log
  int log_fd_ = -1;
  int listen_fd_ = -1;
  std::vector<int> client_fds_;
  std::vector<int> server_fds_;
  std::thread server_;
  std::vector<double> rates_;
};

// ---- Clocks and statistics ----------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();
double peak_rss_mb();
double current_rss_mb();

// Quantile by linear interpolation between closest ranks; 0 when empty.
double quantile(std::vector<double> values, double q);

// ---- Spans --------------------------------------------------------------------

// A benchmark-side span. `parent` names the request or layer call whose
// work this span stands for; self time = duration minus the durations
// of the spans whose parent it is.
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none (a request root)
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool program = false;  // copied from the provider's own trace
};

class SpanLog {
 public:
  // Opens a span now; close() stamps its end.
  std::uint32_t open(const char* name, std::uint32_t parent);
  void close(std::uint32_t id);
  std::uint32_t add(const char* name, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns,
                    bool program);
  void set_request(std::uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

 private:
  std::vector<Span> spans_;
  std::uint64_t request_ = 0;
};

// ---- Layer replay -------------------------------------------------------------

// The layers whose public functions the traced pass times.
inline constexpr const char* kLayers[] = {
    "net.parse",      "net.to_wire",       "gateway.floor",
    "auth.session",   "os.spawn",          "os.container",
    "store.get",      "store.query_page",  "store.put",
    "difc.check_export", "core.declassify", "apps.handler",
    "json.dump",      "json.parse",        "audit.record",
    "search.record_use", "trace.record",
};

// Layers whose waiting the traced run prices: their mean call time in the
// pass at kClients threads minus the same in the pass on one thread.
inline constexpr const char* kContendedLayers[] = {
    "audit.record", "search.record_use", "os.container",
    "store.query_page", "os.spawn",
};

struct ReplayStats {
  std::uint64_t query_rows = 0;   // rows returned by store.query_page
  std::uint64_t dump_bytes = 0;   // bytes produced by json.dump
};

// Calls each layer's public function on the inputs of one request that
// was just issued for real (`request` as sent, `response` as received),
// recording one span per call under `root`.
void replay_layers(Deployment& deployment, int client, const Op& op,
                   const HttpRequest& request, const HttpResponse& response,
                   bool tcp, std::uint32_t root, SpanLog& log,
                   ReplayStats& stats);

// ---- Build fingerprint ----------------------------------------------------------

struct Fingerprint {
  std::string text;      // one line for the report
  std::string refusal;   // non-empty: numbers from this build are refused
};
Fingerprint build_fingerprint(Provider& provider);

}  // namespace w5bench
