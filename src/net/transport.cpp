#include "net/transport.h"

#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace w5::net {

util::Result<std::size_t> Connection::write_some(std::string_view data) {
  auto written = write(data);
  if (!written.ok()) return written.error();
  return data.size();
}

util::Result<std::size_t> Connection::writev_some(const std::string_view* iov,
                                                  std::size_t iov_count) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < iov_count; ++i) {
    if (iov[i].empty()) continue;
    auto n = write_some(iov[i]);
    if (!n.ok()) return total > 0 ? util::Result<std::size_t>(total)
                                  : util::Result<std::size_t>(n.error());
    total += n.value();
    if (n.value() < iov[i].size()) break;  // transport is full for now
  }
  return total;
}

util::Result<std::string> Connection::read_available(std::size_t max) {
  std::string out;
  char buf[4096];
  while (out.size() < max) {
    const std::size_t want = std::min(sizeof(buf), max - out.size());
    auto n = read(buf, want);
    if (!n.ok()) {
      if (n.error().code == "net.would_block" && !out.empty()) return out;
      if (n.error().code == "net.would_block")
        return n.error();  // nothing at all
      return n.error();
    }
    if (n.value() == 0) return out;  // EOF; possibly empty
    out.append(buf, n.value());
    if (n.value() < want) return out;  // drained for now
  }
  return out;
}

namespace {

// Shared state of one direction of the pipe. Locked because the two ends
// may live on different threads: a federation hop pumping a peer can
// serve a connection another hop thread dialed (fed::Node).
struct PipeBuffer {
  util::Mutex mutex{util::lockrank::kPipeBuffer, "PipeBuffer::mutex"};
  std::deque<char> bytes W5_GUARDED_BY(mutex);
  bool writer_closed W5_GUARDED_BY(mutex) = false;
};

class PipeConnection final : public Connection {
 public:
  PipeConnection(std::shared_ptr<PipeBuffer> incoming,
                 std::shared_ptr<PipeBuffer> outgoing)
      : incoming_(std::move(incoming)), outgoing_(std::move(outgoing)) {}

  ~PipeConnection() override { PipeConnection::close(); }

  util::Result<std::size_t> read(char* buf, std::size_t max) override {
    if (max == 0) return std::size_t{0};
    const util::MutexLock lock(incoming_->mutex);
    if (incoming_->bytes.empty()) {
      if (incoming_->writer_closed) return std::size_t{0};  // EOF
      return util::make_error("net.would_block", "pipe empty");
    }
    const std::size_t take = std::min(max, incoming_->bytes.size());
    for (std::size_t i = 0; i < take; ++i) {
      buf[i] = incoming_->bytes.front();
      incoming_->bytes.pop_front();
    }
    return take;
  }

  util::Status write(std::string_view data) override {
    if (closed_) return util::make_error("net.closed", "write on closed end");
    const util::MutexLock lock(outgoing_->mutex);
    if (outgoing_->writer_closed)
      return util::make_error("net.closed", "peer direction closed");
    outgoing_->bytes.insert(outgoing_->bytes.end(), data.begin(), data.end());
    return util::ok_status();
  }

  void close() override {
    if (closed_) return;
    closed_ = true;
    const util::MutexLock lock(outgoing_->mutex);
    outgoing_->writer_closed = true;
  }

  bool closed() const override { return closed_; }

 private:
  std::shared_ptr<PipeBuffer> incoming_;
  std::shared_ptr<PipeBuffer> outgoing_;
  bool closed_ = false;
};

}  // namespace

std::pair<std::unique_ptr<Connection>, std::unique_ptr<Connection>>
make_pipe() {
  auto a_to_b = std::make_shared<PipeBuffer>();
  auto b_to_a = std::make_shared<PipeBuffer>();
  return {std::make_unique<PipeConnection>(b_to_a, a_to_b),
          std::make_unique<PipeConnection>(a_to_b, b_to_a)};
}

void InMemoryNetwork::listen(const std::string& address, AcceptFn on_accept,
                             PumpFn on_pump) {
  listeners_[address] = Listener{std::move(on_accept), std::move(on_pump)};
}

void InMemoryNetwork::unlisten(const std::string& address) {
  listeners_.erase(address);
}

util::Status InMemoryNetwork::pump(const std::string& address) {
  const auto it = listeners_.find(address);
  if (it == listeners_.end()) {
    return util::make_error("net.unreachable",
                            "no listener at '" + address + "'");
  }
  if (it->second.on_pump) it->second.on_pump();
  return util::ok_status();
}

util::Result<std::unique_ptr<Connection>> InMemoryNetwork::dial(
    const std::string& address) {
  const auto it = listeners_.find(address);
  if (it == listeners_.end()) {
    return util::make_error("net.unreachable",
                            "no listener at '" + address + "'");
  }
  auto [client_end, server_end] = make_pipe();
  it->second.on_accept(std::move(server_end));
  return std::move(client_end);
}

}  // namespace w5::net
