// Deterministic fault injection for transports (the chaos harness).
//
// FaultyConnection decorates any Connection and perturbs its I/O
// according to a FaultSchedule: injected delays, short reads, partial
// writes, silent drops, and connection resets. Schedules are either
// scripted (an explicit action list, consumed in op order) or seeded (a
// per-op draw from util::Rng against a probability profile) — both
// replay identically for a fixed script/seed, so every failure a chaos
// test or robustness bench finds is reproducible by re-running with the
// same seed. Delays go through an injected SleepFn, so tests record
// virtual delays instead of actually sleeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/backoff.h"  // SleepFn
#include "net/transport.h"
#include "util/result.h"
#include "util/rng.h"

namespace w5::net {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kDelay,         // sleep `delay_micros`, then perform the op normally
  kShortRead,     // read at most `bytes` this call (forces re-assembly)
  kPartialWrite,  // write only `bytes`, then reset the connection
  kDrop,          // write: swallow the bytes; read: report "net.timeout"
  kReset,         // close the underlying transport, report "net.reset"
};

struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  util::Micros delay_micros = 0;  // kDelay
  std::size_t bytes = 1;          // kShortRead / kPartialWrite budget
};

// Per-kind occurrence counts, for error-budget accounting in benches.
struct FaultStats {
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> short_reads{0};
  std::atomic<std::uint64_t> partial_writes{0};
  std::atomic<std::uint64_t> drops{0};
  std::atomic<std::uint64_t> resets{0};

  std::uint64_t total() const {
    return delays.load() + short_reads.load() + partial_writes.load() +
           drops.load() + resets.load();
  }
};

class FaultSchedule {
 public:
  // Independent probabilities per op; whatever wins the draw first (in
  // the order reset, drop, partial/short, delay) is applied.
  struct Profile {
    double delay_probability = 0.0;
    double short_read_probability = 0.0;
    double partial_write_probability = 0.0;
    double drop_probability = 0.0;
    double reset_probability = 0.0;
    util::Micros min_delay_micros = 100;
    util::Micros max_delay_micros = 1000;
  };

  // No faults, ever (the default-constructed schedule).
  FaultSchedule() = default;

  // Scripted: actions applied to reads/writes in call order; once a list
  // is exhausted the remaining ops run clean.
  static FaultSchedule scripted(std::vector<FaultAction> read_actions,
                                std::vector<FaultAction> write_actions);

  // Seeded: each op draws from the profile using its own rng stream.
  static FaultSchedule seeded(std::uint64_t seed, Profile profile);

  // Consumes and returns the next action for a read or write op.
  FaultAction next_read();
  FaultAction next_write();

 private:
  FaultAction next_scripted(std::vector<FaultAction>& actions,
                            std::size_t& cursor);
  FaultAction draw(bool is_write);

  bool seeded_ = false;
  Profile profile_{};
  util::Rng rng_{0};
  std::vector<FaultAction> read_actions_;
  std::vector<FaultAction> write_actions_;
  std::size_t read_cursor_ = 0;
  std::size_t write_cursor_ = 0;
};

// ---- File I/O faults (DESIGN.md §13) ---------------------------------------
// The durability plane writes its WAL segments and snapshot files through
// FaultyFile so crash-recovery tests can pull the plug deterministically.
// Two fault kinds, mirroring what real storage does:
//
//   - short writes: write(2) persists fewer bytes than asked (seeded, so a
//     fixed seed replays the identical split pattern); the writer's retry
//     loop must reassemble without corrupting the stream.
//   - crash-at-offset: every byte past a global offset N silently
//     vanishes — as a power cut loses the page cache — while calls keep
//     reporting success (the process that "crashed" never learns). fsync
//     becomes a no-op from that point on.
//
// The offset is cumulative across every file sharing the plan (copies
// share state), so one number models "power failed at byte N of the
// durability byte stream" across WAL rotations and snapshot writes.

struct FileFaultProfile {
  double short_write_probability = 0.0;
  std::size_t max_short_write_bytes = 16;  // short writes persist 1..max
};

// Per-plan occurrence counts (shared by copies, like the plan itself).
struct FileFaultStats {
  std::uint64_t short_writes = 0;
  std::uint64_t dropped_bytes = 0;  // bytes swallowed past the crash point
  bool crashed = false;
  bool write_errored = false;  // hit the injected error point
};

class FileFaultPlan {
 public:
  FileFaultPlan();  // no faults, ever

  static FileFaultPlan crash_at(std::uint64_t offset);
  // Unlike a crash (which silently succeeds — the process never learns),
  // an injected error is *reported*: every write at or past the
  // cumulative offset persists up to the offset and then fails, as
  // ENOSPC or a dying disk would. Later writes fail too — a dead disk
  // stays dead.
  static FileFaultPlan error_at(std::uint64_t offset);
  static FileFaultPlan seeded(std::uint64_t seed, FileFaultProfile profile);

  // Consumes one write op: how many of `requested` bytes reach the disk.
  // Advances the cumulative offset by the *requested* size so the crash
  // point is a property of the attempted byte stream, not of the fault
  // pattern (this is what makes offsets enumerable by tests).
  std::size_t admit_write(std::size_t requested);

  bool crashed() const;
  bool write_errored() const;
  FileFaultStats stats() const;

 private:
  struct State;
  std::shared_ptr<State> state_;  // copies share; default state is benign
};

// POSIX file handle that honors a FileFaultPlan. Only the write side is
// perturbed — recovery reads what "survived the crash" verbatim.
class FaultyFile {
 public:
  FaultyFile() = default;
  ~FaultyFile();

  FaultyFile(const FaultyFile&) = delete;
  FaultyFile& operator=(const FaultyFile&) = delete;
  FaultyFile(FaultyFile&& other) noexcept;
  FaultyFile& operator=(FaultyFile&& other) noexcept;

  // Creates the file, truncating any existing one.
  static util::Result<FaultyFile> create(const std::string& path,
                                         FileFaultPlan plan);

  // Writes all of `data`, looping over injected short writes. Bytes past
  // the plan's crash point are dropped but reported as written.
  util::Status write_all(std::string_view data);

  // fsync(2); a no-op success after the injected crash (the real fsync
  // would never have been reached).
  util::Status sync();

  bool valid() const { return fd_ >= 0; }
  // Bytes actually persisted to this file (excludes crash-dropped bytes).
  std::uint64_t persisted_bytes() const { return persisted_; }

  void close();

 private:
  int fd_ = -1;
  std::uint64_t persisted_ = 0;
  FileFaultPlan plan_;
};

// The decorator. Owns the wrapped transport; forwards timeouts so a
// faulty TCP connection still honors its deadlines.
class FaultyConnection final : public Connection {
 public:
  // `sleep` services kDelay actions (default: really sleeps); `stats`
  // (optional, caller-owned) tallies every injected fault.
  FaultyConnection(std::unique_ptr<Connection> inner, FaultSchedule schedule,
                   SleepFn sleep = real_sleep(), FaultStats* stats = nullptr);

  util::Result<std::size_t> read(char* buf, std::size_t max) override;
  util::Status write(std::string_view data) override;
  // Event-path writes (DESIGN.md §15): the reactor never calls blocking
  // write(), so the same fault kinds are applied per write_some op —
  // partial-write truncates then resets, drop swallows and reports
  // success, reset closes. writev_some inherits the Connection default
  // (loops write_some), so scatter/gather writes draw faults per chunk.
  util::Result<std::size_t> write_some(std::string_view data) override;
  void close() override;
  bool closed() const override;
  void set_read_timeout(util::Micros timeout) override;
  void set_write_timeout(util::Micros timeout) override;

 private:
  std::unique_ptr<Connection> inner_;
  FaultSchedule schedule_;
  SleepFn sleep_;
  FaultStats* stats_;
};

}  // namespace w5::net
