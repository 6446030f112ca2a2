// Epoll edge-triggered reactor: the provider's TCP front door
// (DESIGN.md §15).
//
// A small set of I/O loop threads multiplex every connection with
// epoll(7) in edge-triggered mode, each connection a state machine
//
//   idle → reading (headers → body) → dispatched → writing → idle
//
// driving the incremental net/http_parser. Application work (the
// Handler) runs where the executor puts it: inline on the owning loop,
// or on the provider's worker pool. The handler answers through a
// one-shot Responder, at once or later from any thread: a response that
// comes back off the owning loop is handed to it through a mailbox +
// eventfd wakeup, and the connection waits in `dispatched` meanwhile
// while the loop serves the others (a durable write parks its
// connection that way until its WAL fsync lands, DESIGN.md §13).
// Connection state is only ever touched by its owning loop thread — the
// thread-ownership rule that keeps the reactor lock-free on the hot
// path.
//
// Deadlines (ServerOptions: header/idle, body and write budgets, with
// 408/413/431/503 semantics) come from a hashed timer wheel per loop
// instead of poll-quantum wakeups: tens of thousands of idle keep-alive
// connections sleep in the epoll set at ~0 CPU until bytes arrive or
// their deadline slot comes up.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.h"
#include "net/http_parser.h"
#include "net/http_server.h"
#include "net/tcp.h"
#include "net/timer_wheel.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace w5::net {

// Admission-controlled executor: runs a job (inline, or on a worker
// pool) and returns false when the job was refused (queue full, pool
// stopping) — the reactor then sheds the request with a 503 instead of
// queueing unboundedly. Keeps the net layer free of a dependency on
// os::ThreadPool; the provider passes its pool's try_submit() here.
using BoundedExecutor = std::function<bool(std::function<void()>)>;

// Robustness knobs (DESIGN.md §12). All deadlines are wall-clock micros;
// 0 disables that deadline.
struct ServerOptions {
  // From the start of a request (or keep-alive idle) until the header
  // block is complete. Doubles as the idle-connection cap: a keep-alive
  // client that sends nothing for this long is closed (without a 408).
  util::Micros header_deadline_micros = 0;
  // From headers-complete until the declared body has fully arrived.
  util::Micros body_deadline_micros = 0;
  // From the first byte of a response until its last: a receiver that
  // never drains is reaped.
  util::Micros write_timeout_micros = 0;
  // Retry-After seconds advertised on shed (503) responses.
  int retry_after_seconds = 1;
};

// Shared robustness counters, exported at /metrics. Owned by the caller
// (the Provider) and written with relaxed atomics from every loop.
struct ServerStats {
  std::atomic<std::uint64_t> handled_total{0};     // requests served
  std::atomic<std::uint64_t> timeouts_total{0};    // read/write timeouts seen
  std::atomic<std::uint64_t> reaped_total{0};      // connections killed by deadline
  std::atomic<std::uint64_t> shed_total{0};        // 503s sent at dispatch
  std::atomic<std::uint64_t> rejected_413_total{0};
  std::atomic<std::uint64_t> rejected_431_total{0};
};

// Connection-plane telemetry (DESIGN.md §15), exported as the w5_net_*
// connection family at /metrics. Gauges are live levels; counters are
// lifetime totals.
struct ConnStats {
  std::atomic<std::int64_t> open{0};   // accepted and not yet closed
  std::atomic<std::int64_t> idle{0};   // open, keep-alive, no request bytes
  std::atomic<std::uint64_t> accepted_total{0};
  std::atomic<std::uint64_t> timeout_closes_total{0};  // closed by deadline
  std::atomic<std::uint64_t> reset_total{0};  // peer reset / abrupt close
};

// Wraps each accepted connection before the reactor performs any I/O on
// it — the chaos hook: tests wrap accepted sockets in FaultyConnection
// so injected short reads / drops / resets fire identically on the
// event path. The reactor keeps the raw fd for epoll registration; all
// reads and writes go through the (possibly decorated) Connection.
using ConnectionDecorator =
    std::function<std::unique_ptr<Connection>(std::unique_ptr<Connection>)>;

// ---- Reactor stage attribution (DESIGN.md §16) -----------------------------

// Absolute wall-clock stamps for one *handled* request's trip through the
// per-connection state machine, reported after the response's last byte
// is written. Early exits (408/413/431/503) report nothing — they never
// ran a handler. trace_id is the response's X-W5-Trace echo: an id, never
// request bytes (§3.5).
struct StageSample {
  std::string trace_id;
  std::size_t loop_index = 0;
  util::Micros request_start = 0;  // first byte of the request arrived
  util::Micros parse_done = 0;     // request fully parsed (dispatch point)
  util::Micros handler_start = 0;  // handler began executing
  // The handler answered — or, for a parked request, returned without
  // answering.
  util::Micros handler_done = 0;
  // A parked request's response was released (0: it never parked).
  util::Micros released = 0;
  util::Micros write_done = 0;     // last response byte accepted by the kernel
};
using StageCallback = std::function<void(const StageSample&)>;

// Per-loop reactor counters, written by the owning loop thread with
// relaxed atomics and read by /metrics and /debug/statusz. The caller
// owns the array (entry i belongs to loop i) and must keep it alive for
// the server's lifetime.
struct LoopStats {
  std::atomic<std::int64_t> connections{0};       // open conns on this loop
  std::atomic<std::uint64_t> epoll_wakeups{0};    // epoll_wait returns > 0
  std::atomic<std::uint64_t> epoll_events{0};     // events across wakeups
  std::atomic<std::uint64_t> mailbox_items{0};    // cross-thread handoffs
  std::atomic<std::uint64_t> timer_fires{0};      // wheel entries fired
  std::atomic<std::uint64_t> requests{0};         // responses fully written
};

// Optional reactor telemetry sinks, all nullable — the reactor stamps
// clocks only for the sinks that are actually installed, so a bare
// server (or a W5_NO_TELEMETRY build) pays nothing.
struct ReactorTelemetry {
  util::Histogram* loop_lag_micros = nullptr;    // mailbox post → drain delay
  util::Histogram* epoll_batch = nullptr;        // events per wakeup
  util::Histogram* timer_drift_micros = nullptr; // fire time − deadline
  std::vector<LoopStats>* loop_stats = nullptr;  // sized ≥ io_threads
  StageCallback on_stage;                        // per-request stage stamps
};

struct EventLoopOptions {
  // Reactor loop threads. Loop 0 runs on the serve() caller's thread and
  // owns the listener; accepted connections are dealt round-robin.
  std::size_t io_threads = 1;
  // Timer wheel slot width: deadlines fire at most one slot late.
  util::Micros timer_granularity_micros = 20'000;
  std::size_t timer_slots = 1024;
  // Bytes per read(2) into the parser.
  std::size_t read_chunk_bytes = 16 * 1024;
  ConnectionDecorator decorate;  // optional (fault injection)
  ReactorTelemetry telemetry;    // optional (DESIGN.md §16)
};

class EventLoopHttpServer {
 private:
  struct Exchange;  // one dispatched request and where its answer goes

 public:
  // The one-shot completion a Handler answers through. Called on the
  // connection's owning loop thread it completes the request inline;
  // called from any other thread it posts through that loop's mailbox.
  // Until then the connection stays dispatched, so requests pipelined
  // behind it are answered in order. Copies share one completion: only
  // the first call counts. A response for a connection that died
  // meanwhile is dropped.
  class Responder {
   public:
    void operator()(HttpResponse response) const;

   private:
    friend class EventLoopHttpServer;
    explicit Responder(std::shared_ptr<Exchange> exchange)
        : exchange_(std::move(exchange)) {}
    std::shared_ptr<Exchange> exchange_;
  };
  using Handler = std::function<void(const HttpRequest&, Responder)>;

  // Adapts a blocking handler: its return value is the response, sent at
  // once.
  static Handler blocking(ServerHandler handler);

  EventLoopHttpServer(Handler handler, BoundedExecutor executor,
                      ParserLimits limits = {}, ServerOptions options = {},
                      EventLoopOptions loop_options = {},
                      ServerStats* stats = nullptr,
                      ConnStats* conn_stats = nullptr);
  ~EventLoopHttpServer();

  EventLoopHttpServer(const EventLoopHttpServer&) = delete;
  EventLoopHttpServer& operator=(const EventLoopHttpServer&) = delete;

  // Runs the reactor until the listener is closed (listener.close() from
  // another thread).
  // Returns the number of connections accepted. The caller is
  // responsible for draining its executor afterwards — completions for
  // connections that no longer exist are dropped harmlessly.
  std::size_t serve(TcpListener& listener);

 private:
  struct Conn;
  struct Loop;
  struct Mailbox;

  void run_loop(Loop& loop);
  void accept_ready(Loop& loop);
  void add_conn(Loop& loop, std::unique_ptr<Connection> io, int fd,
                std::uint64_t id);
  void drain_mailbox(Loop& loop);
  // Runs the handler for one dispatched request (on the executor).
  void run_handler(const std::shared_ptr<Exchange>& exchange);
  // Applies a finished handler response to the connection (if it still
  // exists and still awaits one). Loop-thread only. The stamps are
  // wall-clock micros, 0 when stage attribution is off.
  void complete(Loop& loop, std::uint64_t id, HttpResponse response,
                util::Micros handler_start, util::Micros handler_done,
                util::Micros released);
  void handle_event(Loop& loop, std::uint64_t id, std::uint32_t events);
  void pump_read(Loop& loop, Conn& conn);
  // Feeds data to the connection's parser, driving state transitions.
  // Returns bytes consumed (short on request completion — pipelining).
  std::size_t feed(Loop& loop, Conn& conn, std::string_view data);
  void dispatch(Loop& loop, Conn& conn);
  void start_write(Loop& loop, Conn& conn, HttpResponse response,
                   bool close_after, bool count_handled);
  void pump_write(Loop& loop, Conn& conn);
  void on_timer(Loop& loop, std::uint64_t id, util::Micros deadline);
  void arm_timer(Loop& loop, Conn& conn, util::Micros delay);
  void disarm_timer(Conn& conn);
  void enter_idle(Loop& loop, Conn& conn);
  void leave_idle(Conn& conn);
  // 408 (only when the client owed us a request), then close.
  void reap(Loop& loop, Conn& conn, bool send_408);
  void destroy(Loop& loop, Conn& conn);
  void request_stop();

  // Per-loop stats slot for `loop`, null when the caller installed none.
  LoopStats* loop_stats(const Loop& loop) const;
  // Builds and reports the stage sample for a fully-written response.
  void report_stages(Loop& loop, Conn& conn);

  Handler handler_;
  BoundedExecutor executor_;
  ParserLimits limits_;
  ServerOptions options_;
  EventLoopOptions loop_options_;
  ServerStats* stats_;
  ConnStats* conn_stats_;
  // Stage attribution on: an on_stage sink is installed (and telemetry
  // is compiled in) — gates every per-request wall_now() stamp.
  bool stage_enabled_ = false;

  std::vector<std::unique_ptr<Loop>> loops_;
  TcpListener* listener_ = nullptr;
  std::atomic<std::uint64_t> accepted_{0};
  std::uint64_t next_conn_id_;  // loop-0 thread only (the accepting loop)
  std::size_t next_loop_ = 0;   // round-robin dealing, loop-0 thread only
};

using Responder = EventLoopHttpServer::Responder;

}  // namespace w5::net
