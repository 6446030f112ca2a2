#include "net/fault.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::net {

FaultSchedule FaultSchedule::scripted(std::vector<FaultAction> read_actions,
                                      std::vector<FaultAction> write_actions) {
  FaultSchedule schedule;
  schedule.read_actions_ = std::move(read_actions);
  schedule.write_actions_ = std::move(write_actions);
  return schedule;
}

FaultSchedule FaultSchedule::seeded(std::uint64_t seed, Profile profile) {
  FaultSchedule schedule;
  schedule.seeded_ = true;
  schedule.profile_ = profile;
  schedule.rng_ = util::Rng(seed);
  return schedule;
}

FaultAction FaultSchedule::next_scripted(std::vector<FaultAction>& actions,
                                         std::size_t& cursor) {
  if (cursor >= actions.size()) return FaultAction{};
  return actions[cursor++];
}

FaultAction FaultSchedule::draw(bool is_write) {
  // One uniform draw per op, partitioned by cumulative probability, so
  // the op sequence alone (not the buffer contents) determines the fault
  // pattern — the property that makes a seed reproduce a run.
  const double roll = rng_.next_double();
  double edge = profile_.reset_probability;
  if (roll < edge) return FaultAction{FaultKind::kReset};
  edge += profile_.drop_probability;
  if (roll < edge) return FaultAction{FaultKind::kDrop};
  edge += is_write ? profile_.partial_write_probability
                   : profile_.short_read_probability;
  if (roll < edge) {
    FaultAction action;
    action.kind = is_write ? FaultKind::kPartialWrite : FaultKind::kShortRead;
    action.bytes = 1 + static_cast<std::size_t>(rng_.next_below(16));
    return action;
  }
  edge += profile_.delay_probability;
  if (roll < edge) {
    FaultAction action;
    action.kind = FaultKind::kDelay;
    action.delay_micros = rng_.next_range(profile_.min_delay_micros,
                                          profile_.max_delay_micros);
    return action;
  }
  return FaultAction{};
}

FaultAction FaultSchedule::next_read() {
  if (seeded_) return draw(/*is_write=*/false);
  return next_scripted(read_actions_, read_cursor_);
}

FaultAction FaultSchedule::next_write() {
  if (seeded_) return draw(/*is_write=*/true);
  return next_scripted(write_actions_, write_cursor_);
}

FaultyConnection::FaultyConnection(std::unique_ptr<Connection> inner,
                                   FaultSchedule schedule, SleepFn sleep,
                                   FaultStats* stats)
    : inner_(std::move(inner)),
      schedule_(std::move(schedule)),
      sleep_(std::move(sleep)),
      stats_(stats) {}

util::Result<std::size_t> FaultyConnection::read(char* buf, std::size_t max) {
  const FaultAction action = schedule_.next_read();
  switch (action.kind) {
    case FaultKind::kDelay:
      if (stats_ != nullptr) stats_->delays.fetch_add(1);
      sleep_(action.delay_micros);
      break;
    case FaultKind::kShortRead:
      if (stats_ != nullptr) stats_->short_reads.fetch_add(1);
      max = std::min(max, std::max<std::size_t>(action.bytes, 1));
      break;
    case FaultKind::kDrop:
      // A lost segment: the bytes never arrive, the reader times out.
      if (stats_ != nullptr) stats_->drops.fetch_add(1);
      return util::make_error("net.timeout", "injected read drop");
    case FaultKind::kReset:
      if (stats_ != nullptr) stats_->resets.fetch_add(1);
      inner_->close();
      return util::make_error("net.reset", "injected connection reset");
    case FaultKind::kNone:
    case FaultKind::kPartialWrite:  // write-only kind; clean on reads
      break;
  }
  return inner_->read(buf, max);
}

util::Status FaultyConnection::write(std::string_view data) {
  const FaultAction action = schedule_.next_write();
  switch (action.kind) {
    case FaultKind::kDelay:
      if (stats_ != nullptr) stats_->delays.fetch_add(1);
      sleep_(action.delay_micros);
      break;
    case FaultKind::kPartialWrite: {
      // Some bytes hit the wire, then the connection dies — the hard
      // case for peers that assume writes are atomic.
      if (stats_ != nullptr) stats_->partial_writes.fetch_add(1);
      const std::size_t n = std::min(data.size(), action.bytes);
      (void)inner_->write(data.substr(0, n));
      inner_->close();
      return util::make_error("net.reset", "injected reset mid-write");
    }
    case FaultKind::kDrop:
      // Silently swallowed; the peer simply never sees these bytes.
      if (stats_ != nullptr) stats_->drops.fetch_add(1);
      return util::ok_status();
    case FaultKind::kReset:
      if (stats_ != nullptr) stats_->resets.fetch_add(1);
      inner_->close();
      return util::make_error("net.reset", "injected connection reset");
    case FaultKind::kNone:
    case FaultKind::kShortRead:  // read-only kind; clean on writes
      break;
  }
  return inner_->write(data);
}

util::Result<std::size_t> FaultyConnection::write_some(std::string_view data) {
  const FaultAction action = schedule_.next_write();
  switch (action.kind) {
    case FaultKind::kDelay:
      if (stats_ != nullptr) stats_->delays.fetch_add(1);
      sleep_(action.delay_micros);
      break;
    case FaultKind::kPartialWrite: {
      if (stats_ != nullptr) stats_->partial_writes.fetch_add(1);
      const std::size_t n = std::min(data.size(), action.bytes);
      (void)inner_->write_some(data.substr(0, n));
      inner_->close();
      return util::make_error("net.reset", "injected reset mid-write");
    }
    case FaultKind::kDrop:
      if (stats_ != nullptr) stats_->drops.fetch_add(1);
      return data.size();  // swallowed, reported as written
    case FaultKind::kReset:
      if (stats_ != nullptr) stats_->resets.fetch_add(1);
      inner_->close();
      return util::make_error("net.reset", "injected connection reset");
    case FaultKind::kNone:
    case FaultKind::kShortRead:  // read-only kind; clean on writes
      break;
  }
  return inner_->write_some(data);
}

// ---- File I/O faults -------------------------------------------------------

struct FileFaultPlan::State {
  util::Mutex mutex{util::lockrank::kFileFault, "State::mutex"};
  bool seeded W5_GUARDED_BY(mutex) = false;
  FileFaultProfile profile W5_GUARDED_BY(mutex) {};
  util::Rng rng W5_GUARDED_BY(mutex) {0};
  // Crash/error points index cumulative attempted bytes.
  std::uint64_t crash_offset W5_GUARDED_BY(mutex) = UINT64_MAX;
  std::uint64_t error_offset W5_GUARDED_BY(mutex) = UINT64_MAX;
  std::uint64_t attempted W5_GUARDED_BY(mutex) = 0;
  FileFaultStats stats W5_GUARDED_BY(mutex);
};

FileFaultPlan::FileFaultPlan() : state_(std::make_shared<State>()) {}

FileFaultPlan FileFaultPlan::crash_at(std::uint64_t offset) {
  FileFaultPlan plan;
  const util::MutexLock lock(plan.state_->mutex);
  plan.state_->crash_offset = offset;
  return plan;
}

FileFaultPlan FileFaultPlan::error_at(std::uint64_t offset) {
  FileFaultPlan plan;
  const util::MutexLock lock(plan.state_->mutex);
  plan.state_->error_offset = offset;
  return plan;
}

FileFaultPlan FileFaultPlan::seeded(std::uint64_t seed,
                                    FileFaultProfile profile) {
  FileFaultPlan plan;
  const util::MutexLock lock(plan.state_->mutex);
  plan.state_->seeded = true;
  plan.state_->profile = profile;
  plan.state_->rng = util::Rng(seed);
  return plan;
}

std::size_t FileFaultPlan::admit_write(std::size_t requested) {
  State& s = *state_;
  const util::MutexLock lock(s.mutex);
  std::size_t admitted = requested;
  if (s.seeded && requested > 1 &&
      s.rng.next_double() < s.profile.short_write_probability) {
    ++s.stats.short_writes;
    admitted = 1 + static_cast<std::size_t>(s.rng.next_below(std::min(
                       static_cast<std::uint64_t>(requested),
                       static_cast<std::uint64_t>(std::max<std::size_t>(
                           s.profile.max_short_write_bytes, 1)))));
  }
  // The crash point indexes *persisted* logical bytes: short-written
  // remainders are retried (not lost), so they advance nothing here and a
  // test can enumerate crash offsets straight off frame boundaries.
  if (s.attempted + admitted > s.crash_offset) {
    admitted = s.crash_offset > s.attempted
                   ? static_cast<std::size_t>(s.crash_offset - s.attempted)
                   : 0;
    s.stats.crashed = true;
    s.stats.dropped_bytes += requested - admitted;
  }
  // The error point truncates like the crash point, but is *reported*:
  // write_all persists the prefix, then surfaces the failure.
  if (s.attempted + admitted > s.error_offset) {
    admitted = s.error_offset > s.attempted
                   ? static_cast<std::size_t>(s.error_offset - s.attempted)
                   : 0;
    s.stats.write_errored = true;
  }
  s.attempted += admitted;
  return admitted;
}

bool FileFaultPlan::crashed() const {
  const util::MutexLock lock(state_->mutex);
  return state_->stats.crashed;
}

bool FileFaultPlan::write_errored() const {
  const util::MutexLock lock(state_->mutex);
  return state_->stats.write_errored;
}

FileFaultStats FileFaultPlan::stats() const {
  const util::MutexLock lock(state_->mutex);
  return state_->stats;
}

FaultyFile::~FaultyFile() { close(); }

FaultyFile::FaultyFile(FaultyFile&& other) noexcept
    : fd_(other.fd_), persisted_(other.persisted_), plan_(other.plan_) {
  other.fd_ = -1;
}

FaultyFile& FaultyFile::operator=(FaultyFile&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    persisted_ = other.persisted_;
    plan_ = other.plan_;
    other.fd_ = -1;
  }
  return *this;
}

util::Result<FaultyFile> FaultyFile::create(const std::string& path,
                                            FileFaultPlan plan) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return util::make_error("io.open", "cannot open '" + path + "': " +
                                           std::strerror(errno));
  }
  FaultyFile file;
  file.fd_ = fd;
  file.plan_ = std::move(plan);
  return file;
}

util::Status FaultyFile::write_all(std::string_view data) {
  if (fd_ < 0) return util::make_error("io.write", "file not open");
  while (!data.empty()) {
    const std::size_t admitted = plan_.admit_write(data.size());
    if (admitted > 0) {
      std::string_view chunk = data.substr(0, admitted);
      while (!chunk.empty()) {
        const ssize_t n = ::write(fd_, chunk.data(), chunk.size());
        if (n < 0) {
          if (errno == EINTR) continue;
          return util::make_error("io.write", std::strerror(errno));
        }
        persisted_ += static_cast<std::uint64_t>(n);
        chunk.remove_prefix(static_cast<std::size_t>(n));
      }
    }
    if (plan_.write_errored())
      return util::make_error("io.write", "injected write error");
    if (plan_.crashed()) return util::ok_status();  // rest is "lost"
    data.remove_prefix(admitted);
  }
  return util::ok_status();
}

util::Status FaultyFile::sync() {
  if (fd_ < 0) return util::make_error("io.sync", "file not open");
  if (plan_.crashed()) return util::ok_status();  // never reached in reality
  if (::fsync(fd_) != 0)
    return util::make_error("io.sync", std::strerror(errno));
  return util::ok_status();
}

void FaultyFile::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FaultyConnection::close() { inner_->close(); }

bool FaultyConnection::closed() const { return inner_->closed(); }

void FaultyConnection::set_read_timeout(util::Micros timeout) {
  inner_->set_read_timeout(timeout);
}

void FaultyConnection::set_write_timeout(util::Micros timeout) {
  inner_->set_write_timeout(timeout);
}

}  // namespace w5::net
