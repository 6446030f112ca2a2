// Provider: one W5 meta-application (paper Fig. 2).
//
// Owns the whole trusted stack — kernel, labeled filesystem and store,
// user directory, sessions, policies, declassifiers, module registry,
// audit log — and the Gateway that fronts it over HTTP. Everything a test,
// bench, example, or federation peer does goes through this type.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/audit.h"
#include "core/auth.h"
#include "core/declassifier.h"
#include "core/flight_recorder.h"
#include "core/module_registry.h"
#include "core/policy.h"
#include "core/search_service.h"
#include "core/trace.h"
#include "core/user.h"
#include "net/event_loop_server.h"
#include "net/http.h"
#include "net/http_parser.h"
#include "net/tcp.h"
#include "os/filesystem.h"
#include "os/kernel.h"
#include "os/thread_pool.h"
#include "store/durable_store.h"
#include "store/labeled_store.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace w5::platform {

class Gateway;
using ExternalFetcher =
    std::function<util::Result<std::string>(const std::string& url)>;

// ---- Federated metasearch seam (DESIGN.md §18) ------------------------------
// The layering DAG forbids core/ → fed/, so the gateway reaches the
// scatter/gather plane through a hook the federation layer installs
// (fed::Metasearch::install), the same seam shape as ExternalFetcher.
// The types are core-owned; fed/ includes core/ and fills them in.

struct FederatedQuery {
  std::string collection;
  std::string terms;  // free-text AND match, tokenized downstream
  // Indexable equality constraint, forwarded into store::QueryOptions.
  std::string eq_field;
  std::string eq_value;
  // Fields to facet-count over the merged window (§3.5-quantized).
  std::vector<std::string> facets;
  std::size_t limit = 20;
  std::string cursor;  // merge cursor from a previous page
  // Query-budget principal for the local store leg ("" = unmetered
  // trusted front-end; AppContext stamps the module id).
  std::string principal;
};

struct FederatedPage {
  // Rendered result document: items/facets/peers/partial/next_cursor.
  util::Json body = util::Json::object();
  // Union of the local records' secrecy labels — what the gateway's
  // export perimeter must clear before the page reaches a browser.
  // Remote rows crossed the peer's mirror declassifier already and
  // carry no local tags.
  difc::Label secrecy;
  bool partial = false;  // at least one peer missing from the merge
};

// `pid` is the querying labeled process: the local store leg runs (and
// contaminates) under it. The gateway passes os::kKernelPid and applies
// the export check on `secrecy` instead.
using FederatedSearchFn = std::function<util::Result<FederatedPage>(
    os::Pid pid, const std::string& viewer, const FederatedQuery& query)>;

// Where the reactor (net::EventLoopHttpServer, DESIGN.md §15) runs
// application handlers.
enum class AppDispatch : std::uint8_t {
  // On the owning I/O loop, synchronously. No cross-thread handoff — the
  // right default for the fast in-memory gateway path; overload shows up
  // as TCP backpressure (the loop stops reading) rather than 503s.
  kInline,
  // On the worker pool, completing through the loop's mailbox. Pays two
  // context switches per request but keeps blocking handlers (slow
  // module calls, /fed/search fan-out) off the I/O loops, and sheds
  // 503 + Retry-After when the pool queue hits max_queued_connections.
  // fsync-mode durability needs neither: a durable write parks its
  // connection, not the thread (Provider::serve).
  kPooled,
};

struct ProviderConfig {
  std::string name = "w5.org";
  util::Micros session_ttl_micros = 30ll * 60 * 1000 * 1000;  // 30 min
  // Per-application resource limits (paper §3.5). Defaults generous but
  // finite so a rogue app is always eventually contained.
  os::ResourceVector app_limits{
      .cpu_ticks = 1'000'000,
      .memory_bytes = 64ll << 20,
      .disk_bytes = 256ll << 20,
      .network_bytes = 64ll << 20,
  };
  // Per-request child limits.
  os::ResourceVector request_limits{
      .cpu_ticks = 10'000,
      .memory_bytes = 8ll << 20,
      .disk_bytes = 16ll << 20,
      .network_bytes = 4ll << 20,
  };
  bool strip_javascript = true;  // §3.5 client-side support
  net::ParserLimits http_limits;
  // Worker threads for AppDispatch::kPooled; handlers queue beyond this
  // (bounded concurrency is the §3.5 admission control, not
  // thread-per-client). Unused under the default inline dispatch.
  std::size_t worker_threads = 8;
  // ---- Robustness (DESIGN.md §12) ----------------------------------------
  // Slow-client reaping defaults: a client gets 10 s to deliver its
  // header block, 30 s for the declared body, and 10 s to drain each
  // response before the connection is reaped (0 disables a deadline).
  net::ServerOptions http_robustness{
      .header_deadline_micros = 10'000'000,
      .body_deadline_micros = 30'000'000,
      .write_timeout_micros = 10'000'000,
  };
  // Under AppDispatch::kPooled, requests allowed to wait for a worker;
  // beyond this the reactor sheds with 503 + Retry-After instead of
  // queueing unboundedly.
  std::size_t max_queued_connections = 256;
  // ---- Serving (DESIGN.md §15) --------------------------------------------
  // Reactor I/O loop threads. One loop multiplexes tens of thousands of
  // connections; raise it to use more cores.
  std::size_t io_threads = 1;
  // Reactor handler placement: inline on the loop by default; kPooled
  // offloads to the worker pool for blocking handlers.
  AppDispatch app_dispatch = AppDispatch::kInline;
  // Per-request wall-clock budget stamped into RequestContext at the
  // gateway (tightened by a client X-W5-Deadline-Ms header; 0 disables).
  util::Micros request_deadline_micros = 30'000'000;
  // ---- Observability (DESIGN.md §16) --------------------------------------
  // Requests slower than this land in the flight recorder with their full
  // span dump, queryable at /debug/slowlog (0 disables the recorder).
  util::Micros slow_request_micros = 250'000;
  // ---- Durability (DESIGN.md §13) -----------------------------------------
  // Off by default: the provider stays purely in-memory, as before. When
  // enabled, construction recovers from durability.dir (newest valid
  // snapshot + WAL tail) and every later mutation is WAL-logged per the
  // configured mode before its request completes.
  store::DurabilityConfig durability;
  // ---- Store query engine (DESIGN.md §17) ---------------------------------
  // Secondary indexes registered at boot (and re-registered before
  // durability recovery, so replayed records land indexed). The default
  // covers the dating app's city lookups — the platform's one built-in
  // equality query.
  std::vector<store::IndexSpec> store_indexes{{"profiles", "city"}};
  // §3.5 covert-channel knobs: count quantization + per-principal query
  // budgets. Defaults (quantum 1, budget 0) are fully open.
  store::QueryGovernorConfig query_governor;
};

class Provider {
 public:
  explicit Provider(ProviderConfig config, const util::Clock& clock);
  ~Provider();

  Provider(const Provider&) = delete;
  Provider& operator=(const Provider&) = delete;

  const ProviderConfig& config() const noexcept { return config_; }
  const util::Clock& clock() const noexcept { return clock_; }

  os::Kernel& kernel() noexcept { return kernel_; }
  os::FileSystem& fs() noexcept { return fs_; }
  store::LabeledStore& store() noexcept { return store_; }
  UserDirectory& users() noexcept { return users_; }
  SessionManager& sessions() noexcept { return sessions_; }
  PolicyStore& policies() noexcept { return policies_; }
  DeclassifierRegistry& declassifiers() noexcept { return declassifiers_; }
  ModuleRegistry& modules() noexcept { return modules_; }
  AuditLog& audit() noexcept { return audit_; }
  SearchService& search_service() noexcept { return search_; }
  Gateway& gateway() noexcept { return *gateway_; }
  util::MetricsRegistry& metrics() noexcept { return metrics_; }
  TraceBuffer& traces() noexcept { return traces_; }
  FlightRecorder& flight_recorder() noexcept { return flight_recorder_; }
  // Per-reactor-loop counters (entry i = I/O loop i), sized at
  // construction so /debug/statusz can read them while serve() runs.
  const std::vector<net::LoopStats>& reactor_loop_stats() const noexcept {
    return loop_stats_;
  }

  // The simulated outside world; tests replace it to observe exfiltration
  // attempts.
  void set_external_fetcher(ExternalFetcher fetcher);
  const ExternalFetcher& external_fetcher() const noexcept {
    return external_fetcher_;
  }

  // Scatter/gather query plane, installed by fed::Metasearch when this
  // provider federates; unset (and /fed/search answers 503) otherwise.
  void set_federated_search(FederatedSearchFn fn) {
    federated_search_ = std::move(fn);
  }
  const FederatedSearchFn& federated_search() const noexcept {
    return federated_search_;
  }

  // ---- Conveniences used by tests, benches, and examples --------------------
  util::Status signup(const std::string& user, const std::string& password,
                      const std::string& display_name = {});
  util::Result<std::string> login(const std::string& user,
                                  const std::string& password);

  // Full HTTP round trip through the gateway. Thread-safe: reactor loops
  // and workers call this concurrently; all provider state is internally
  // locked (see DESIGN.md "Concurrency model").
  net::HttpResponse handle(const net::HttpRequest& request);

  // Serves real TCP clients on the reactor, config().io_threads loops.
  // Blocks until the listener is closed (call listener.close() from
  // elsewhere). Returns the number of connections accepted. With fsync
  // durability, a request that wrote something parks its connection
  // until the WAL reports the write durable (DESIGN.md §13), so one loop
  // keeps many writes in each group commit; handle() and http() block
  // instead.
  std::size_t serve(net::TcpListener& listener);

  // The pool behind AppDispatch::kPooled, created by the first serve()
  // that dispatches to it (inline dispatch spawns no workers).
  os::ThreadPool& worker_pool();
  // Non-spawning view for /metrics: null until worker_pool() has run, so
  // a scrape never starts threads as a side effect.
  os::ThreadPool* pool_if_started() noexcept {
    return pool_ptr_.load(std::memory_order_acquire);
  }

  // Robustness counters for serve(): timeouts, reaped/shed connections,
  // 413/431 rejections (DESIGN.md §12). Exported via /metrics.
  net::ServerStats& server_stats() noexcept { return server_stats_; }
  const net::ServerStats& server_stats() const noexcept {
    return server_stats_;
  }

  // Connection-plane gauges/counters for serve() (DESIGN.md §15):
  // open/idle levels, accepts, timeout closes, resets. Exported via
  // /metrics.
  net::ConnStats& conn_stats() noexcept { return conn_stats_; }
  const net::ConnStats& conn_stats() const noexcept { return conn_stats_; }

  // Builds + dispatches a request in one call; `session` becomes the
  // session cookie when non-empty.
  net::HttpResponse http(net::Method method, const std::string& target,
                         const std::string& body = {},
                         const std::string& session = {});

  // ---- Persistence ------------------------------------------------------------
  // Full provider state: tag registry, accounts, policies, filesystem,
  // and record store. Sessions and the audit log are deliberately
  // ephemeral. Labels round-trip exactly (policies travel with data, §1).
  util::Json snapshot() const;
  util::Status restore(const util::Json& snapshot);
  util::Status save_to_file(const std::string& path) const;
  util::Status load_from_file(const std::string& path);

  // Registers a group declassifier "std/group/<name>"; membership is the
  // user-editable store record groups/<name> {"members": [...]} — the
  // same pattern as the friend-list declassifier (§3.1 pluggability).
  void add_group_declassifier(const std::string& group);

  // ---- Durability (DESIGN.md §13) -----------------------------------------
  // Null when config().durability.enabled is false, or when bringing the
  // plane up failed (durability_status() then carries the error and the
  // provider runs in-memory rather than refusing to start).
  store::DurableStore* durable() noexcept { return durable_.get(); }
  const store::DurableStore::RecoveryStats& recovery_stats() const noexcept {
    return recovery_stats_;
  }
  const util::Status& durability_status() const noexcept {
    return durability_status_;
  }
  // Rotate + snapshot + GC now (the compactor does this on its own
  // cadence; tests and operators force it here).
  util::Status checkpoint();

 private:
  void init_durability();
  // The reactor's handler: handle(), then answer at once or park the
  // connection until the request's writes are durable.
  void serve_one(const net::HttpRequest& request, net::Responder respond);
  // Dispatches a replayed WAL op to the owning component's trusted apply.
  util::Status apply_wal_op(const util::Json& op);

  ProviderConfig config_;
  const util::Clock& clock_;
  os::Kernel kernel_;
  os::FileSystem fs_;
  store::LabeledStore store_;
  UserDirectory users_;
  SessionManager sessions_;
  PolicyStore policies_;
  DeclassifierRegistry declassifiers_;
  ModuleRegistry modules_;
  AuditLog audit_;
  SearchService search_;
  util::MetricsRegistry metrics_;
  TraceBuffer traces_;
  FlightRecorder flight_recorder_;
  // Sized once in the constructor (io_threads never changes after):
  // statusz readers iterate concurrently with loop-thread writers, so the
  // vector must never reallocate.
  std::vector<net::LoopStats> loop_stats_;
  ExternalFetcher external_fetcher_;
  FederatedSearchFn federated_search_;
  std::unique_ptr<Gateway> gateway_;  // after metrics_: caches Counter*s
  // §14 static-enforcement note: the provider itself holds no mutex —
  // its one lazy-init race (the worker pool) goes through std::call_once
  // plus an acquire/release atomic, and every mutable subsystem above
  // synchronizes internally with annotated util::Mutex/SharedMutex locks.
  std::once_flag pool_once_;
  std::unique_ptr<os::ThreadPool> pool_;  // lazy; see worker_pool()
  std::atomic<os::ThreadPool*> pool_ptr_{nullptr};
  net::ServerStats server_stats_;
  net::ConnStats conn_stats_;
  // Durability plane; components hold a MutationLog* into it, and the
  // destructor closes it only after the worker pool has stopped.
  std::unique_ptr<store::DurableStore> durable_;
  store::DurableStore::RecoveryStats recovery_stats_;
  util::Status durability_status_ = util::ok_status();
};

}  // namespace w5::platform
