// The host probe: a stand-in for the provider that the benchmark owns,
// run in short slices between the measured windows (README.md "Host
// speed").
//
// On a shared host the speed of the machine drifts by up to 1.5x over
// seconds to minutes, and a closed loop against the provider drifts with
// it. The probe does the same kind of system work as the workload — the
// same client threads and transport, a fixed amount of hashing, copying
// and allocation per exchange, an fdatasync where the workload has one —
// with none of the code under test, so its rate tracks the host and
// nothing else.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <shared_mutex>
#include <stdexcept>

#include "w5bench.h"

namespace w5bench {

namespace {

// Bytes each way per exchange, about a small-mix request and answer.
constexpr std::size_t kMessageBytes = 256;
// Entries of the probe's table: tens of MiB, the size of a provider.
constexpr int kTableEntries = 1 << 17;
// One slice: long enough for hundreds of fsyncs in the durable shape,
// short next to a measured window.
constexpr double kSliceSeconds = 0.1;

bool read_full(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r <= 0) return false;
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool write_full(int fd, const char* buf, std::size_t n) {
  std::size_t put = 0;
  while (put < n) {
    const ssize_t r = ::write(fd, buf + put, n - put);
    if (r <= 0) return false;
    put += static_cast<std::size_t>(r);
  }
  return true;
}

void no_delay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

// The reference rates are the probe's median on the reference box
// (README.md "Host speed"), only ever a scale: both sides of any
// comparison share them.
HostProbe::Shape HostProbe::shape_of(Workload workload) {
  switch (workload) {
    case Workload::kTcpSmallMix: return {true, 16, false, 38000};
    case Workload::kInprocBulkRead: return {false, 200, false, 14300};
    case Workload::kTcpDurableWrite: return {true, 16, true, 8100};
  }
  throw std::logic_error("probe: unknown workload");
}

HostProbe::HostProbe(Workload workload, const std::string& dir)
    : shape_(shape_of(workload)) {
  Rng rng(0x9e3779b97f4a7c15ULL);  // fixed: the probe never varies
  table_.reserve(kTableEntries);
  for (int i = 0; i < kTableEntries; ++i) {
    std::string value(48 + rng.below(160), 'a');
    for (char& ch : value) ch = static_cast<char>('a' + rng.below(26));
    table_.emplace("row-" + std::to_string(i), std::move(value));
  }
  if (shape_.fsync) {
    std::filesystem::create_directories(dir);
    log_dir_ = dir;
    const std::string log = dir + "/probe.log";
    log_fd_ = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (log_fd_ < 0) throw std::runtime_error("probe: cannot open its log");
  }
  if (!shape_.tcp) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listen_fd_ < 0 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, kClients) != 0 ||
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw std::runtime_error("probe: cannot listen");
  for (int c = 0; c < kClients; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("probe: cannot connect");
    no_delay(fd);
    client_fds_.push_back(fd);
    const int served = ::accept(listen_fd_, nullptr, nullptr);
    if (served < 0) throw std::runtime_error("probe: cannot accept");
    no_delay(served);
    server_fds_.push_back(served);
  }
  server_ = std::thread([this] { serve(); });
}

HostProbe::~HostProbe() {
  for (const int fd : client_fds_) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (server_.joinable()) server_.join();
  for (const int fd : server_fds_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (log_fd_ >= 0) {
    ::close(log_fd_);
    std::error_code ignored;
    std::filesystem::remove_all(log_dir_, ignored);
  }
}

// One exchange's work, the kinds a request does in the provider: build
// keys, look them up in a large hash table, copy what they name into a
// small ordered map, and serialize it; the durable shape then appends
// the answer to its log and waits for the disk.
void HostProbe::work(const char* request, char* answer) {
  std::uint64_t at = 0;
  std::memcpy(&at, request, sizeof at);
  std::map<std::string, std::string> fields;
  for (int i = 0; i < shape_.lookups; ++i) {
    at = mix64(at, static_cast<std::uint64_t>(i));
    const auto it = table_.find("row-" + std::to_string(at % kTableEntries));
    fields.emplace(it->first, it->second);
  }
  std::string out;
  for (const auto& [key, value] : fields) {
    out += key;
    out += '=';
    out += value;
    out += ',';
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const char ch : out)
    digest = (digest ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  std::memset(answer, 0, kMessageBytes);
  std::memcpy(answer, &digest, sizeof digest);
  std::memcpy(answer + sizeof digest, out.data(),
              std::min(out.size(), kMessageBytes - sizeof digest));
  if (shape_.fsync) {
    if (!write_full(log_fd_, answer, kMessageBytes) || ::fdatasync(log_fd_) != 0)
      throw std::runtime_error("probe: log write failed");
  }
}

// The stand-in server: one thread, poll() over every client connection,
// as Provider::serve runs one loop.
void HostProbe::serve() {
  std::vector<pollfd> fds;
  for (const int fd : server_fds_) fds.push_back({fd, POLLIN, 0});
  char request[kMessageBytes];
  char answer[kMessageBytes];
  for (;;) {
    if (::poll(fds.data(), fds.size(), -1) <= 0) continue;
    for (auto& p : fds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_full(p.fd, request, kMessageBytes)) return;  // closed
      work(request, answer);
      if (!write_full(p.fd, answer, kMessageBytes)) return;
    }
  }
}

double HostProbe::probe() {
  std::atomic<std::uint64_t> exchanges{0};
  std::atomic<bool> broken{false};
  const std::int64_t start = now_ns();
  const std::int64_t stop =
      start + static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      char request[kMessageBytes] = {};
      char answer[kMessageBytes];
      std::uint64_t n = 0;
      std::uint64_t at = static_cast<std::uint64_t>(c) << 40;
      while (now_ns() < stop) {
        ++at;
        std::memcpy(request, &at, sizeof at);
        if (shape_.tcp) {
          if (!write_full(client_fds_[c], request, kMessageBytes) ||
              !read_full(client_fds_[c], answer, kMessageBytes)) {
            broken = true;
            return;
          }
        } else {
          std::shared_lock lock(table_mutex_);
          work(request, answer);
        }
        ++n;
      }
      exchanges += n;
    });
  }
  for (auto& thread : clients) thread.join();
  if (broken) throw std::runtime_error("probe: connection lost");
  const double rate = static_cast<double>(exchanges.load()) /
                      (static_cast<double>(now_ns() - start) / 1e9);
  rates_.push_back(rate);
  return rate;
}

}  // namespace w5bench
