#include "net/event_loop_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "net/tracing.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::net {

namespace {

// Deadlines reap real stalled sockets, so the reactor reads the wall
// clock directly rather than threading a Clock& through every transport.
util::Micros wall_now() {
  static const util::WallClock clock;
  return clock.now();
}

void count(std::atomic<std::uint64_t>* counter) {
  if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
}

void gauge_add(std::atomic<std::int64_t>* gauge, std::int64_t delta) {
  if (gauge != nullptr) gauge->fetch_add(delta, std::memory_order_relaxed);
}

// epoll user-data keys below kFirstConnId name loop-level fds.
constexpr std::uint64_t kListenerKey = 0;
constexpr std::uint64_t kMailboxKey = 1;
constexpr std::uint64_t kFirstConnId = 2;

// The mailbox of the loop this thread is running, null off the loops. A
// Responder holds its loop's mailbox alive, so a match proves the caller
// is inside that loop's run_loop and may complete inline.
thread_local const void* t_running_mailbox = nullptr;

// Exchange::phase: where a dispatched request's answer stands.
constexpr std::uint8_t kRunning = 0;    // the handler has not returned
constexpr std::uint8_t kParked = 1;     // it returned without answering
constexpr std::uint8_t kResponded = 2;  // the Responder was called

}  // namespace

// Cross-thread handoff into a loop: new connections from the accepting
// loop, finished responses from pool workers. Pool jobs hold the mailbox
// by shared_ptr, so a completion that outlives serve() posts into a
// closed mailbox and is dropped — never into freed memory.
struct EventLoopHttpServer::Mailbox {
  struct Item {
    bool is_completion = false;
    std::uint64_t conn_id = 0;
    HttpResponse response;            // is_completion
    std::unique_ptr<Connection> io;   // !is_completion (a new connection)
    int fd = -1;
    // Stage attribution (0 when off): the handler's stamps, the parked
    // response's release, and the post time for the event-loop lag
    // histogram.
    util::Micros handler_start = 0;
    util::Micros handler_done = 0;
    util::Micros released = 0;
    util::Micros posted_at = 0;
  };

  ~Mailbox() {
    if (event_fd >= 0) ::close(event_fd);
  }

  void post(Item item) {
    bool wake = false;
    {
      const util::MutexLock lock(mutex);
      if (open) {
        // Wakeup coalescing: only the post that makes the queue
        // non-empty writes the eventfd; items posted while a drain is
        // already owed piggyback on that wakeup.
        wake = items.empty();
        items.push_back(std::move(item));
      }
    }
    if (wake) {
      const std::uint64_t one = 1;
      (void)::write(event_fd, &one, sizeof(one));
    }
  }

  int event_fd = -1;
  util::Mutex mutex{util::lockrank::kEventLoopMailbox, "Mailbox::mutex"};
  bool open W5_GUARDED_BY(mutex) = true;
  std::vector<Item> items W5_GUARDED_BY(mutex);
};

// Per-connection state machine. Owned by exactly one loop; every field
// is touched only from that loop's thread (the thread-ownership rule).
struct EventLoopHttpServer::Conn {
  enum class State : std::uint8_t {
    kIdle,        // keep-alive, no request bytes yet
    kReading,     // headers or body arriving
    kDispatched,  // handler running, or its answer parked (not yet given)
    kWriting,     // response draining to the socket
  };

  explicit Conn(ParserLimits limits) : parser(limits) {}

  std::uint64_t id = 0;
  int fd = -1;  // raw socket fd (epoll registration); I/O goes via `io`
  std::unique_ptr<Connection> io;
  RequestParser parser;
  State state = State::kIdle;
  bool read_ready = true;   // ET memo: an edge fired since the last EAGAIN
  bool got_bytes = false;   // bytes seen since entering idle (408 vs silent)
  bool keep_alive = true;
  bool close_after_write = false;
  bool count_handled = false;
  bool in_body_phase = false;  // body deadline armed (restarts the clock)
  bool counted_idle = false;   // holds one unit of the idle gauge
  // One armed deadline at a time; stale wheel entries are detected by
  // deadline mismatch (re-arm moves the deadline, disarm clears it).
  bool timer_armed = false;
  util::Micros timer_deadline = 0;
  // Pipelined surplus: bytes read past a request boundary, re-fed after
  // the response for the request ahead of them finishes writing.
  std::string inbuf;
  std::size_t inbuf_off = 0;
  // In-flight response, head and body kept separate for writev.
  std::string out_head;
  std::string out_body;
  std::size_t out_off = 0;
  // Stage attribution stamps (DESIGN.md §16), set only when the server
  // has an on_stage sink. All absolute wall micros; 0 = not reached.
  util::Micros t_request_start = 0;  // first byte of the current request
  util::Micros t_parse_done = 0;     // request fully parsed
  util::Micros t_handler_start = 0;  // handler began (worker stamp)
  util::Micros t_handler_done = 0;   // handler answered, or returned parked
  util::Micros t_released = 0;       // parked response released
  std::string trace_id;              // response X-W5-Trace echo, may be ""
};

// One dispatched request, shared by the executor job and the request's
// Responder. The responder may outlive serve() (a WAL callback holds it):
// it then only ever touches the mailbox it keeps alive, which is closed
// by then and drops the post.
struct EventLoopHttpServer::Exchange {
  EventLoopHttpServer* server = nullptr;  // used only on the owning loop
  Loop* owner = nullptr;                  // ditto
  std::shared_ptr<Mailbox> mailbox;
  std::uint64_t conn_id = 0;
  HttpRequest request;
  bool stage_enabled = false;  // copies of the server's telemetry switches
  bool lag_enabled = false;
  // Stage stamps: handler_start is written before the handler runs,
  // parked_at before `phase` becomes kParked (release), so a responder
  // that reads them has synchronized with the writes.
  util::Micros handler_start = 0;
  util::Micros parked_at = 0;
  std::atomic<std::uint8_t> phase{kRunning};
};

struct EventLoopHttpServer::Loop {
  std::size_t index = 0;
  int epoll_fd = -1;
  TimerWheel wheel;
  std::shared_ptr<Mailbox> mailbox;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  // Connections with a pipelined continuation owed (surplus bytes or a
  // pending read edge after a response finished). Drained iteratively by
  // run_loop so a deep pipeline never nests a frame per request.
  std::vector<std::uint64_t> ready;
  std::thread thread;  // loops 1..n-1; loop 0 runs on the serve() caller
  std::atomic<bool> stop{false};

  Loop(util::Micros granularity, std::size_t slots)
      : wheel(granularity, slots) {}
  ~Loop() {
    if (epoll_fd >= 0) ::close(epoll_fd);
  }
};

EventLoopHttpServer::EventLoopHttpServer(
    Handler handler, BoundedExecutor executor, ParserLimits limits,
    ServerOptions options, EventLoopOptions loop_options, ServerStats* stats,
    ConnStats* conn_stats)
    : handler_(std::move(handler)),
      executor_(std::move(executor)),
      limits_(limits),
      options_(options),
      loop_options_(loop_options),
      stats_(stats),
      conn_stats_(conn_stats),
      stage_enabled_(util::kTelemetryEnabled &&
                     static_cast<bool>(loop_options_.telemetry.on_stage)),
      next_conn_id_(kFirstConnId) {}

LoopStats* EventLoopHttpServer::loop_stats(const Loop& loop) const {
  auto* all = loop_options_.telemetry.loop_stats;
  if (all == nullptr || loop.index >= all->size()) return nullptr;
  return &(*all)[loop.index];
}

EventLoopHttpServer::~EventLoopHttpServer() = default;

std::size_t EventLoopHttpServer::serve(TcpListener& listener) {
  listener_ = &listener;
  accepted_.store(0, std::memory_order_relaxed);
  next_conn_id_ = kFirstConnId;
  next_loop_ = 0;

  if (!listener.set_nonblocking().ok() || listener.fd() < 0) {
    listener_ = nullptr;
    return 0;
  }

  const std::size_t n_loops = std::max<std::size_t>(1, loop_options_.io_threads);
  loops_.clear();
  loops_.reserve(n_loops);
  for (std::size_t i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<Loop>(loop_options_.timer_granularity_micros,
                                       loop_options_.timer_slots);
    loop->index = i;
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->mailbox = std::make_shared<Mailbox>();
    loop->mailbox->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->mailbox->event_fd < 0) {
      util::log_error("event_loop: epoll/eventfd setup failed");
      loops_.clear();
      listener_ = nullptr;
      return 0;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: re-notified until drained
    ev.data.u64 = kMailboxKey;
    (void)::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->mailbox->event_fd,
                      &ev);
    loops_.push_back(std::move(loop));
  }

  // Loop 0 owns the listener (level-triggered: accept errors can return
  // to epoll without losing an edge). Registered under the listener's
  // close lock: a concurrent listener.close() either runs first (we skip
  // the registration and run_loop exits on the fd<0 check) or waits, so
  // the fd cannot be closed and reused mid-registration.
  (void)listener.with_fd([this](int fd) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerKey;
    (void)::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    return util::ok_status();
  });

  for (std::size_t i = 1; i < loops_.size(); ++i) {
    Loop* loop = loops_[i].get();
    loop->thread = std::thread([this, loop] { run_loop(*loop); });
  }
  run_loop(*loops_[0]);
  request_stop();
  for (std::size_t i = 1; i < loops_.size(); ++i) loops_[i]->thread.join();

  // Teardown: every loop is parked, so the serve thread may touch all of
  // them. Close mailboxes first so straggler completions are dropped.
  for (auto& loop : loops_) {
    {
      const util::MutexLock lock(loop->mailbox->mutex);
      loop->mailbox->open = false;
      loop->mailbox->items.clear();  // undelivered conns close via dtor
    }
    while (!loop->conns.empty()) destroy(*loop, *loop->conns.begin()->second);
  }
  const std::size_t total =
      static_cast<std::size_t>(accepted_.load(std::memory_order_relaxed));
  loops_.clear();
  listener_ = nullptr;
  return total;
}

void EventLoopHttpServer::run_loop(Loop& loop) {
  constexpr int kMaxEvents = 128;
  epoll_event events[kMaxEvents];
  t_running_mailbox = loop.mailbox.get();
  struct LeaveLoop {
    ~LeaveLoop() { t_running_mailbox = nullptr; }
  } leave_loop;
  const bool owns_listener = loop.index == 0;
  LoopStats* lstats = loop_stats(loop);
  util::Histogram* drift = loop_options_.telemetry.timer_drift_micros;
  util::Histogram* batch = loop_options_.telemetry.epoll_batch;
  while (!loop.stop.load(std::memory_order_acquire)) {
    util::Micros now = wall_now();
    loop.wheel.expire(now, [this, &loop, lstats, drift,
                            now](std::uint64_t key, util::Micros deadline) {
      // Timer-wheel drift: how late past its deadline an entry fired
      // (slot width + epoll latency; a stall here means a hogged loop).
      if (drift != nullptr)
        drift->observe(now > deadline ? now - deadline : 0);
      if (lstats != nullptr)
        lstats->timer_fires.fetch_add(1, std::memory_order_relaxed);
      on_timer(loop, key, deadline);
    });
    // listener.close() from another thread races the epoll registration;
    // the fd check (under a capped wait below) is the reliable signal.
    if (owns_listener && listener_->fd() < 0) break;

    now = wall_now();
    const util::Micros next = loop.wheel.next_deadline(now);
    int timeout_ms = -1;
    if (next >= 0) {
      // +1ms: land past the slot boundary instead of just short of it.
      timeout_ms = static_cast<int>(
          std::min<util::Micros>((std::max<util::Micros>(next - now, 0)) / 1000,
                                 60'000) +
          1);
    }
    if (owns_listener && (timeout_ms < 0 || timeout_ms > 100)) timeout_ms = 100;

    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      util::log_error("event_loop: epoll_wait failed");
      break;
    }
    if (n > 0) {
      // Wake/batch shape: many events per wakeup = the loop is saturated
      // (healthy under load); 1-per-wakeup at high rates = syscall-bound.
      if (lstats != nullptr) {
        lstats->epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
        lstats->epoll_events.fetch_add(static_cast<std::uint64_t>(n),
                                       std::memory_order_relaxed);
      }
      if (batch != nullptr) batch->observe(n);
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t key = events[i].data.u64;
      if (key == kListenerKey) {
        accept_ready(loop);
      } else if (key == kMailboxKey) {
        drain_mailbox(loop);
      } else {
        handle_event(loop, key, events[i].events);
      }
    }
    // Deferred pipelined continuations (pump_write). Draining may defer
    // more — loop until quiet so nothing waits on the next epoll wakeup.
    while (!loop.ready.empty()) {
      std::vector<std::uint64_t> ready;
      ready.swap(loop.ready);
      for (const std::uint64_t id : ready) {
        auto it = loop.conns.find(id);
        if (it == loop.conns.end()) continue;  // died later in the batch
        Conn& conn = *it->second;
        const bool pending =
            conn.inbuf_off < conn.inbuf.size() || conn.read_ready;
        if (pending && (conn.state == Conn::State::kIdle ||
                        conn.state == Conn::State::kReading))
          pump_read(loop, conn);
      }
    }
  }
}

void EventLoopHttpServer::request_stop() {
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_release);
    const std::uint64_t one = 1;
    (void)::write(loop->mailbox->event_fd, &one, sizeof(one));
  }
}

void EventLoopHttpServer::accept_ready(Loop& loop) {
  while (true) {
    auto accepted = listener_->accept();
    if (!accepted.ok()) {
      // would_block: drained the backlog. Closed or transient error:
      // return to epoll — level-triggered registration re-fires if more
      // connections are pending, and the fd<0 check handles shutdown.
      return;
    }
    std::unique_ptr<Connection> io = std::move(accepted).value();
    // The raw fd (for epoll) is grabbed before decoration; all I/O goes
    // through the possibly-decorated Connection.
    auto* tcp = static_cast<TcpConnection*>(io.get());
    const int fd = tcp->fd();
    if (!tcp->set_nonblocking().ok()) {
      io->close();
      continue;
    }
    if (loop_options_.decorate) io = loop_options_.decorate(std::move(io));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t id = next_conn_id_++;
    Loop& target = *loops_[next_loop_];
    next_loop_ = (next_loop_ + 1) % loops_.size();
    if (&target == &loop) {
      add_conn(loop, std::move(io), fd, id);
    } else {
      Mailbox::Item item;
      item.io = std::move(io);
      item.fd = fd;
      item.conn_id = id;
      if (loop_options_.telemetry.loop_lag_micros != nullptr)
        item.posted_at = wall_now();
      target.mailbox->post(std::move(item));
    }
  }
}

void EventLoopHttpServer::add_conn(Loop& loop, std::unique_ptr<Connection> io,
                                   int fd, std::uint64_t id) {
  count(conn_stats_ != nullptr ? &conn_stats_->accepted_total : nullptr);
  gauge_add(conn_stats_ != nullptr ? &conn_stats_->open : nullptr, 1);

  auto owned = std::make_unique<Conn>(limits_);
  Conn& conn = *owned;
  conn.id = id;
  conn.fd = fd;
  conn.io = std::move(io);

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conn.io->close();
    gauge_add(conn_stats_ != nullptr ? &conn_stats_->open : nullptr, -1);
    return;
  }
  loop.conns.emplace(id, std::move(owned));
  if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
    lstats->connections.fetch_add(1, std::memory_order_relaxed);
  enter_idle(loop, conn);
  // Bytes may have arrived before registration; with ET that edge is
  // already behind us, so probe the socket once (read_ready starts true).
  pump_read(loop, conn);
}

void EventLoopHttpServer::drain_mailbox(Loop& loop) {
  std::uint64_t drained = 0;
  (void)::read(loop.mailbox->event_fd, &drained, sizeof(drained));
  std::vector<Mailbox::Item> items;
  {
    const util::MutexLock lock(loop.mailbox->mutex);
    items.swap(loop.mailbox->items);
  }
  LoopStats* lstats = loop_stats(loop);
  if (lstats != nullptr && !items.empty())
    lstats->mailbox_items.fetch_add(items.size(), std::memory_order_relaxed);
  // Event-loop lag: how long items sat in the mailbox before this drain
  // ran — the queued-stage delay a cross-thread completion experiences.
  if (util::Histogram* lag = loop_options_.telemetry.loop_lag_micros;
      lag != nullptr && !items.empty()) {
    const util::Micros now = wall_now();
    for (const auto& item : items)
      if (item.posted_at > 0)
        lag->observe(now > item.posted_at ? now - item.posted_at : 0);
  }
  for (auto& item : items) {
    if (item.is_completion) {
      complete(loop, item.conn_id, std::move(item.response),
               item.handler_start, item.handler_done, item.released);
    } else {
      add_conn(loop, std::move(item.io), item.fd, item.conn_id);
    }
  }
}

void EventLoopHttpServer::complete(Loop& loop, std::uint64_t id,
                                   HttpResponse response,
                                   util::Micros handler_start,
                                   util::Micros handler_done,
                                   util::Micros released) {
  auto it = loop.conns.find(id);
  // The connection may have died (reset, write timeout) while the
  // handler ran or its answer was parked; the completion is dropped.
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  if (conn.state != Conn::State::kDispatched) return;
  conn.t_handler_start = handler_start;
  conn.t_handler_done = handler_done;
  conn.t_released = released;
  start_write(loop, conn, std::move(response),
              /*close_after=*/false, /*count_handled=*/true);
}

void EventLoopHttpServer::handle_event(Loop& loop, std::uint64_t id,
                                       std::uint32_t events) {
  auto it = loop.conns.find(id);
  if (it == loop.conns.end()) return;

  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0) {
    Conn& conn = *it->second;
    conn.read_ready = true;
    if (conn.state == Conn::State::kIdle ||
        conn.state == Conn::State::kReading) {
      pump_read(loop, conn);
      it = loop.conns.find(id);  // pump may have destroyed the connection
      if (it == loop.conns.end()) return;
    }
  }
  if ((events & EPOLLOUT) != 0) {
    Conn& conn = *it->second;
    if (conn.state == Conn::State::kWriting) {
      pump_write(loop, conn);
      it = loop.conns.find(id);
      if (it == loop.conns.end()) return;
    }
  }
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    count(conn_stats_ != nullptr ? &conn_stats_->reset_total : nullptr);
    destroy(loop, *it->second);
  }
}

void EventLoopHttpServer::pump_read(Loop& loop, Conn& conn) {
  char buf[16 * 1024];
  const std::size_t chunk =
      std::min(sizeof(buf), std::max<std::size_t>(loop_options_.read_chunk_bytes, 1));
  // feed() can destroy the connection synchronously (parse error whose
  // rejection writes out in full, shed ditto); every feed is followed by
  // an existence check before `conn` is touched again.
  const std::uint64_t id = conn.id;
  while (conn.state == Conn::State::kIdle ||
         conn.state == Conn::State::kReading) {
    // Buffered pipelined bytes first — they precede anything in the socket.
    if (conn.inbuf_off < conn.inbuf.size()) {
      const std::string_view pending(conn.inbuf.data() + conn.inbuf_off,
                                     conn.inbuf.size() - conn.inbuf_off);
      const std::size_t consumed = feed(loop, conn, pending);
      if (loop.conns.find(id) == loop.conns.end()) return;
      conn.inbuf_off += consumed;
      if (conn.inbuf_off >= conn.inbuf.size()) {
        conn.inbuf.clear();
        conn.inbuf_off = 0;
      }
      continue;  // the loop condition re-checks the (possibly new) state
    }
    if (!conn.read_ready) return;  // ET: wait for the next edge
    auto n = conn.io->read(buf, chunk);
    if (!n.ok()) {
      const std::string& code = n.error().code;
      if (code == "net.would_block") {
        conn.read_ready = false;
        return;
      }
      if (code == "net.timeout") {
        // An injected drop (FaultyConnection): nothing further arrives on
        // this connection — a terminal timeout, as in net::HttpServer.
        count(stats_ != nullptr ? &stats_->timeouts_total : nullptr);
        reap(loop, conn, conn.got_bytes);
        return;
      }
      count(conn_stats_ != nullptr ? &conn_stats_->reset_total : nullptr);
      destroy(loop, conn);
      return;
    }
    if (n.value() == 0) {  // EOF
      if (conn.state == Conn::State::kReading) {
        // Mid-request close: tell the client why, best-effort — the peer
        // may only be half-closed.
        HttpResponse bad = HttpResponse::text(400, "truncated request\n");
        bad.headers.set("Connection", "close");
        stamp_trace_echo(bad, conn.parser.parsed_headers());
        const std::string wire = bad.to_wire();
        (void)conn.io->write_some(wire);
      }
      destroy(loop, conn);
      return;
    }
    const std::size_t consumed =
        feed(loop, conn, std::string_view(buf, n.value()));
    if (loop.conns.find(id) == loop.conns.end()) return;
    if (consumed < n.value()) {
      // Request boundary mid-buffer: stash the pipelined surplus (inbuf
      // is empty here — the socket is only read once it has drained).
      conn.inbuf.assign(buf + consumed, n.value() - consumed);
      conn.inbuf_off = 0;
    }
  }
}

std::size_t EventLoopHttpServer::feed(Loop& loop, Conn& conn,
                                      std::string_view data) {
  if (conn.state == Conn::State::kIdle) {
    leave_idle(conn);
    conn.state = Conn::State::kReading;
    conn.got_bytes = true;
    if (stage_enabled_) conn.t_request_start = wall_now();
    // The header deadline keeps running from idle entry (request start).
  }
  const std::size_t consumed = conn.parser.feed(data);
  if (conn.parser.failed()) {
    // 431: header block over budget; 413: declared body over budget;
    // anything else is a plain parse failure (400).
    int status = 400;
    if (conn.parser.error().code == "http.too_large") {
      status = 413;
      count(stats_ != nullptr ? &stats_->rejected_413_total : nullptr);
    } else if (conn.parser.error().code == "http.headers_too_large") {
      status = 431;
      count(stats_ != nullptr ? &stats_->rejected_431_total : nullptr);
    }
    HttpResponse rejection =
        HttpResponse::text(status, conn.parser.error().code + "\n");
    // Echo a validated inbound X-W5-Trace so the caller's trace shows
    // where the hop failed.
    stamp_trace_echo(rejection, conn.parser.parsed_headers());
    disarm_timer(conn);
    start_write(loop, conn, std::move(rejection), /*close_after=*/true,
                /*count_handled=*/false);
    return consumed;
  }
  if (!conn.in_body_phase && conn.parser.state() == ParseState::kBody) {
    // The body phase restarts the clock.
    conn.in_body_phase = true;
    disarm_timer(conn);
    if (options_.body_deadline_micros > 0)
      arm_timer(loop, conn, options_.body_deadline_micros);
  }
  if (conn.parser.complete()) dispatch(loop, conn);
  return consumed;
}

void EventLoopHttpServer::dispatch(Loop& loop, Conn& conn) {
  HttpRequest request = conn.parser.take();
  conn.parser.reset();
  conn.in_body_phase = false;
  conn.keep_alive =
      !util::iequals(request.headers.get("Connection").value_or(""), "close");
  disarm_timer(conn);  // no deadline while application code runs
  conn.state = Conn::State::kDispatched;
  if (stage_enabled_) conn.t_parse_done = wall_now();

  // The exchange carries the mailbox (which it keeps alive), not just the
  // loop: if the connection dies or serve() returns before the answer
  // comes, it posts into a closed/ownerless mailbox and is dropped.
  auto exchange = std::make_shared<Exchange>();
  exchange->server = this;
  exchange->owner = &loop;
  exchange->mailbox = loop.mailbox;
  exchange->conn_id = conn.id;
  exchange->request = std::move(request);
  exchange->stage_enabled = stage_enabled_;
  exchange->lag_enabled = loop_options_.telemetry.loop_lag_micros != nullptr;
  const bool admitted =
      executor_([this, exchange] { run_handler(exchange); });
  if (!admitted) {
    // Load shed: the headers were parsed on the (cheap) I/O loop; the
    // client gets 503 + Retry-After + close instead of an unbounded queue.
    count(stats_ != nullptr ? &stats_->shed_total : nullptr);
    HttpResponse shed = HttpResponse::text(503, "overloaded, retry later\n");
    shed.headers.set("Retry-After",
                     std::to_string(options_.retry_after_seconds));
    stamp_trace_echo(shed, exchange->request.headers);
    start_write(loop, conn, std::move(shed), /*close_after=*/true,
                /*count_handled=*/false);
  }
}

void EventLoopHttpServer::run_handler(
    const std::shared_ptr<Exchange>& exchange) {
  if (!exchange->stage_enabled) {
    handler_(exchange->request, Responder(exchange));
    return;
  }
  exchange->handler_start = wall_now();
  handler_(exchange->request, Responder(exchange));
  if (exchange->phase.load(std::memory_order_acquire) != kRunning) return;
  // Returned without answering: the request is parked. The stamp is
  // published by the phase change; a responder that runs first (and
  // wins the phase) never reads it.
  exchange->parked_at = wall_now();
  std::uint8_t running = kRunning;
  exchange->phase.compare_exchange_strong(running, kParked,
                                          std::memory_order_acq_rel);
}

void EventLoopHttpServer::Responder::operator()(HttpResponse response) const {
  Exchange& exchange = *exchange_;
  const std::uint8_t phase =
      exchange.phase.exchange(kResponded, std::memory_order_acq_rel);
  if (phase == kResponded) return;  // one-shot: copies share the answer
  util::Micros handler_done = 0;
  util::Micros released = 0;
  if (exchange.stage_enabled) {
    const util::Micros now = wall_now();
    handler_done = phase == kParked ? exchange.parked_at : now;
    if (phase == kParked) released = now;
  }
  if (t_running_mailbox == exchange.mailbox.get()) {
    // On the owning loop, inside run_loop: the loop and server are alive,
    // and a mailbox + eventfd round trip would be pure overhead.
    exchange.server->complete(*exchange.owner, exchange.conn_id,
                              std::move(response), exchange.handler_start,
                              handler_done, released);
    return;
  }
  Mailbox::Item item;
  item.is_completion = true;
  item.conn_id = exchange.conn_id;
  item.response = std::move(response);
  item.handler_start = exchange.handler_start;
  item.handler_done = handler_done;
  item.released = released;
  if (exchange.lag_enabled) {
    const util::Micros posted = released > 0 ? released : handler_done;
    item.posted_at = posted > 0 ? posted : wall_now();
  }
  exchange.mailbox->post(std::move(item));
}

EventLoopHttpServer::Handler EventLoopHttpServer::blocking(
    ServerHandler handler) {
  return [handler = std::move(handler)](const HttpRequest& request,
                                        Responder respond) {
    respond(handler(request));
  };
}

void EventLoopHttpServer::start_write(Loop& loop, Conn& conn,
                                      HttpResponse response, bool close_after,
                                      bool count_handled) {
  if (!conn.keep_alive) close_after = true;
  if (close_after) response.headers.set("Connection", "close");
  if (stage_enabled_ && count_handled)
    conn.trace_id = response.headers.get(kTraceHeader).value_or("");
  conn.out_head = response.to_wire_head();
  conn.out_body = std::move(response.body);
  conn.out_off = 0;
  conn.close_after_write = close_after;
  conn.count_handled = count_handled;
  conn.state = Conn::State::kWriting;
  if (options_.write_timeout_micros > 0)
    arm_timer(loop, conn, options_.write_timeout_micros);
  pump_write(loop, conn);
}

void EventLoopHttpServer::pump_write(Loop& loop, Conn& conn) {
  const std::size_t total = conn.out_head.size() + conn.out_body.size();
  while (conn.out_off < total) {
    std::string_view iov[2];
    std::size_t iov_count = 0;
    if (conn.out_off < conn.out_head.size()) {
      iov[iov_count++] = std::string_view(conn.out_head).substr(conn.out_off);
      if (!conn.out_body.empty()) iov[iov_count++] = conn.out_body;
    } else {
      iov[iov_count++] =
          std::string_view(conn.out_body).substr(conn.out_off - conn.out_head.size());
    }
    auto n = conn.io->writev_some(iov, iov_count);
    if (!n.ok()) {
      count(conn_stats_ != nullptr ? &conn_stats_->reset_total : nullptr);
      destroy(loop, conn);
      return;
    }
    if (n.value() == 0) return;  // kernel buffer full; EPOLLOUT edge resumes
    conn.out_off += n.value();
  }

  // Response fully written.
  disarm_timer(conn);
  if (conn.count_handled) {
    count(stats_ != nullptr ? &stats_->handled_total : nullptr);
    if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
      lstats->requests.fetch_add(1, std::memory_order_relaxed);
    if (stage_enabled_) report_stages(loop, conn);
  }
  if (conn.close_after_write) {
    destroy(loop, conn);
    return;
  }
  conn.out_head.clear();
  conn.out_body.clear();
  conn.out_off = 0;
  enter_idle(loop, conn);
  // A pipelined request may already be buffered (or readable). Deferred
  // to run_loop's drain rather than pumped recursively: with inline
  // dispatch a deep pipeline would otherwise nest a full
  // read→dispatch→write frame (16 KiB read buffer included) per request.
  if (conn.inbuf_off < conn.inbuf.size() || conn.read_ready)
    loop.ready.push_back(conn.id);
}

void EventLoopHttpServer::on_timer(Loop& loop, std::uint64_t id,
                                   util::Micros deadline) {
  auto it = loop.conns.find(id);
  if (it == loop.conns.end()) return;
  Conn& conn = *it->second;
  // Stale entry: the deadline was re-armed (moved) or disarmed since this
  // wheel entry was scheduled.
  if (!conn.timer_armed || conn.timer_deadline != deadline) return;
  conn.timer_armed = false;
  count(stats_ != nullptr ? &stats_->timeouts_total : nullptr);
  switch (conn.state) {
    case Conn::State::kIdle:
      reap(loop, conn, /*send_408=*/false);  // nothing asked, nothing owed
      break;
    case Conn::State::kReading:
      reap(loop, conn, /*send_408=*/true);  // mid-request: say why
      break;
    case Conn::State::kWriting:
      reap(loop, conn, /*send_408=*/false);  // receiver never drained
      break;
    case Conn::State::kDispatched:
      break;  // no deadline runs while the handler does (disarmed above)
  }
}

void EventLoopHttpServer::arm_timer(Loop& loop, Conn& conn,
                                    util::Micros delay) {
  const util::Micros now = wall_now();
  conn.timer_armed = true;
  conn.timer_deadline = now + delay;
  loop.wheel.schedule(now, conn.timer_deadline, conn.id);
}

void EventLoopHttpServer::disarm_timer(Conn& conn) {
  // O(1): the wheel entry goes stale and is swept with its slot.
  conn.timer_armed = false;
}

void EventLoopHttpServer::enter_idle(Loop& loop, Conn& conn) {
  conn.state = Conn::State::kIdle;
  conn.got_bytes = false;
  if (!conn.counted_idle) {
    gauge_add(conn_stats_ != nullptr ? &conn_stats_->idle : nullptr, 1);
    conn.counted_idle = true;
  }
  // The header deadline doubles as the idle cap (ServerOptions contract).
  if (options_.header_deadline_micros > 0)
    arm_timer(loop, conn, options_.header_deadline_micros);
}

void EventLoopHttpServer::leave_idle(Conn& conn) {
  if (conn.counted_idle) {
    gauge_add(conn_stats_ != nullptr ? &conn_stats_->idle : nullptr, -1);
    conn.counted_idle = false;
  }
}

void EventLoopHttpServer::reap(Loop& loop, Conn& conn, bool send_408) {
  count(stats_ != nullptr ? &stats_->reaped_total : nullptr);
  count(conn_stats_ != nullptr ? &conn_stats_->timeout_closes_total : nullptr);
  if (send_408) {
    // Best-effort single write: a client slow enough to be reaped rarely
    // has a full receive window, and we will not wait on one that does.
    // The partially parsed headers may already carry a valid X-W5-Trace;
    // echo it.
    HttpResponse timeout = HttpResponse::text(408, "request timeout\n");
    timeout.headers.set("Connection", "close");
    stamp_trace_echo(timeout, conn.parser.parsed_headers());
    const std::string wire = timeout.to_wire();
    (void)conn.io->write_some(wire);
  }
  destroy(loop, conn);
}

void EventLoopHttpServer::report_stages(Loop& loop, Conn& conn) {
  if (conn.t_request_start == 0) {
    conn.trace_id.clear();
    return;
  }
  StageSample sample;
  sample.trace_id = std::move(conn.trace_id);
  sample.loop_index = loop.index;
  sample.request_start = conn.t_request_start;
  sample.parse_done = conn.t_parse_done;
  sample.handler_start = conn.t_handler_start;
  sample.handler_done = conn.t_handler_done;
  sample.released = conn.t_released;
  sample.write_done = wall_now();
  // Inline dispatch runs the handler synchronously on this loop; a
  // missing worker stamp collapses the dispatch stage to zero instead of
  // reporting garbage.
  if (sample.handler_start == 0) sample.handler_start = sample.parse_done;
  if (sample.handler_done < sample.handler_start)
    sample.handler_done = sample.handler_start;
  if (sample.released != 0 && sample.released < sample.handler_done)
    sample.released = sample.handler_done;
  loop_options_.telemetry.on_stage(sample);
  conn.trace_id.clear();
  conn.t_request_start = 0;
  conn.t_parse_done = 0;
  conn.t_handler_start = 0;
  conn.t_handler_done = 0;
  conn.t_released = 0;
}

void EventLoopHttpServer::destroy(Loop& loop, Conn& conn) {
  disarm_timer(conn);
  leave_idle(conn);
  conn.io->close();  // closing the fd also drops it from the epoll set
  gauge_add(conn_stats_ != nullptr ? &conn_stats_->open : nullptr, -1);
  if (LoopStats* lstats = loop_stats(loop); lstats != nullptr)
    lstats->connections.fetch_sub(1, std::memory_order_relaxed);
  loop.conns.erase(conn.id);  // frees `conn` — caller must not touch it
}

}  // namespace w5::net
