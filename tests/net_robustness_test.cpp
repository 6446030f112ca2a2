// Transport robustness over real TCP sockets (DESIGN.md §12): read and
// write timeouts as distinct errors, the EAGAIN resume on a slowly
// drained write, and the listener error-path regressions (fd leaks,
// errno fidelity). The reactor's reaping and shedding over these sockets
// is covered in net_event_loop_test.cpp.
#include <gtest/gtest.h>

#include <chrono>
#include <dirent.h>
#include <string>
#include <thread>

#include "net/tcp.h"

namespace w5::net {
namespace {

using namespace std::chrono_literals;

// Open fds for this process — the leak detector for listener tests.
int open_fd_count() {
  int count = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST(NetRobustness, WriteTimeoutReapsNeverDrainingReceiver) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  // The client never reads. A large enough write must overrun both
  // kernel buffers and then time out rather than block forever.
  accepted.value()->set_write_timeout(200'000);
  const std::string chunk(1 << 20, 'x');  // 1 MiB per write call
  util::Status last = util::ok_status();
  for (int i = 0; i < 64 && last.ok(); ++i)
    last = accepted.value()->write(chunk);
  ASSERT_FALSE(last.ok()) << "64 MiB fit in socket buffers?";
  EXPECT_EQ(last.error().code, "net.timeout");
  listener.close();
}

TEST(NetRobustness, SlowlyDrainedLargeWriteStillCompletes) {
  // The EAGAIN bugfix: a full send buffer with a *live* (slow) reader
  // must poll-and-continue, not fail with net.io.
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  const std::size_t total = 8 << 20;  // well past any default buffer
  std::thread reader([&] {
    char buf[64 * 1024];
    std::size_t drained = 0;
    while (drained < total) {
      std::this_thread::sleep_for(1ms);  // deliberately sluggish
      auto n = client.value()->read(buf, sizeof(buf));
      if (!n.ok() || n.value() == 0) break;
      drained += n.value();
    }
    EXPECT_EQ(drained, total);
  });
  accepted.value()->set_write_timeout(5'000'000);  // generous, not infinite
  EXPECT_TRUE(accepted.value()->write(std::string(total, 'y')).ok());
  reader.join();
  listener.close();
}

TEST(NetRobustness, ListenFailurePathsLeakNoFds) {
  TcpListener occupant;
  ASSERT_TRUE(occupant.listen(0).ok());
  const std::uint16_t busy_port = occupant.port();

  const int before = open_fd_count();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 20; ++i) {
    TcpListener contender;
    auto status = contender.listen(busy_port);
    ASSERT_FALSE(status.ok()) << "port " << busy_port << " double-bound";
    EXPECT_EQ(status.error().code, "net.io");
    // The errno text survives the cleanup close (the captured-before-
    // close regression): "bind: <reason>", not "bind: Success".
    EXPECT_NE(status.error().detail.find("bind"), std::string::npos);
    EXPECT_EQ(status.error().detail.find("Success"), std::string::npos);
  }
  EXPECT_EQ(open_fd_count(), before);

  // A listener that failed can retry on a free port with no leak...
  TcpListener retrying;
  ASSERT_FALSE(retrying.listen(busy_port).ok());
  ASSERT_TRUE(retrying.listen(0).ok());
  // ...and re-listening an already-listening listener must close the
  // old socket rather than leak it.
  const int mid = open_fd_count();
  ASSERT_TRUE(retrying.listen(0).ok());
  EXPECT_EQ(open_fd_count(), mid);
  retrying.close();
  occupant.close();
}

TEST(NetRobustness, ReadTimeoutOnQuietSocketIsDistinctError) {
  TcpListener listener;
  ASSERT_TRUE(listener.listen(0).ok());
  auto client = tcp_connect(listener.port());
  ASSERT_TRUE(client.ok());
  auto accepted = listener.accept();
  ASSERT_TRUE(accepted.ok());

  client.value()->set_read_timeout(50'000);
  char buf[16];
  auto n = client.value()->read(buf, sizeof(buf));
  ASSERT_FALSE(n.ok());
  EXPECT_EQ(n.error().code, "net.timeout");  // not net.io, not would_block

  // Clearing the timeout (0) restores blocking reads: data arrives.
  client.value()->set_read_timeout(0);
  ASSERT_TRUE(accepted.value()->write("late").ok());
  n = client.value()->read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::string(buf, n.value()), "late");
  listener.close();
}

}  // namespace
}  // namespace w5::net
