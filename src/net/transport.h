// Byte transports under the HTTP layer.
//
// Connection is the minimal blocking-ish stream interface; the in-memory
// implementation gives tests and benches a deterministic, scheduler-free
// wire. Real TCP lives in tcp.h behind the same interface.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/clock.h"
#include "util/result.h"

namespace w5::net {

class Connection {
 public:
  virtual ~Connection() = default;

  // Reads up to max bytes. Returns:
  //   ok(n > 0)  — n bytes copied into buf
  //   ok(0)      — clean EOF (peer closed and drained)
  //   error("net.would_block") — no data available right now
  //   error("net.timeout")     — a configured read deadline elapsed
  //   error(...) — transport failure
  virtual util::Result<std::size_t> read(char* buf, std::size_t max) = 0;

  // Writes everything or fails; a configured write deadline that elapses
  // mid-send surfaces as error("net.timeout"), distinct from "net.io".
  virtual util::Status write(std::string_view data) = 0;

  // Non-blocking-friendly write for event-driven callers: writes what the
  // transport will take *right now* and returns the count. Returns:
  //   ok(n > 0) — n bytes accepted (possibly fewer than asked)
  //   ok(0)     — transport would block; wait for writability and retry
  //   error(...) — transport failure
  // The default forwards to write() (all-or-error), which suits the
  // blocking and in-memory transports; TcpConnection overrides with a
  // single EAGAIN-aware send(2).
  virtual util::Result<std::size_t> write_some(std::string_view data);

  // Scatter/gather variant of write_some: the buffers are one logical
  // stream (e.g. response head + body) written without concatenating.
  // Same return contract; a short count may end mid-buffer. The default
  // loops write_some; TcpConnection overrides with writev(2).
  virtual util::Result<std::size_t> writev_some(const std::string_view* iov,
                                                std::size_t iov_count);

  virtual void close() = 0;
  virtual bool closed() const = 0;

  // Per-operation I/O deadlines (0 = block forever, the default). The
  // in-memory transports are non-blocking by construction and ignore
  // these; TcpConnection enforces them with poll(2). Decorators
  // (FaultyConnection) forward them to the wrapped transport.
  virtual void set_read_timeout(util::Micros) {}
  virtual void set_write_timeout(util::Micros) {}

  // Reads everything currently available (helper on top of read()).
  util::Result<std::string> read_available(std::size_t max = 64 * 1024);
};

// ---- In-memory transport ---------------------------------------------------

// A bidirectional in-memory pipe; make_pipe returns the two ends. Never
// blocks: reads see everything written before the call. Each end belongs
// to one thread at a time, but the two ends may be on different threads
// (the shared buffers are locked).
std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_pipe();

// A tiny "internet" for multi-host simulations (federation): servers
// register an accept callback under an address; dial() creates a pipe and
// hands the far end to the server.
class InMemoryNetwork {
 public:
  using AcceptFn = std::function<void(std::unique_ptr<Connection>)>;
  // Invoked by pump(): the listener should service whatever request bytes
  // its accepted connections have accumulated. Needed because the
  // in-memory transport is single-threaded — a dialer writes its request
  // and then pumps the server instead of blocking on a second thread.
  using PumpFn = std::function<void()>;

  void listen(const std::string& address, AcceptFn on_accept,
              PumpFn on_pump = nullptr);
  void unlisten(const std::string& address);

  util::Result<std::unique_ptr<Connection>> dial(const std::string& address);

  // Runs the listener's pump hook (no-op status when none registered).
  util::Status pump(const std::string& address);

 private:
  struct Listener {
    AcceptFn on_accept;
    PumpFn on_pump;
  };
  std::unordered_map<std::string, Listener> listeners_;
};

}  // namespace w5::net
