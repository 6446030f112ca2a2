// Durability plane (DESIGN.md §13): WAL framing and replay, labeled
// snapshots, checkpoint/compaction, and full provider crash recovery.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/provider.h"
#include "net/fault.h"
#include "store/durable_store.h"
#include "store/snapshot.h"
#include "store/wal.h"
#include "util/clock.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/mutation_log.h"

namespace w5::store {
namespace {

namespace fs = std::filesystem;
using net::Method;
using platform::Provider;
using platform::ProviderConfig;

// Unique scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("w5_durability_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++)))
                .string();
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ProviderConfig durable_config(const std::string& dir,
                              DurabilityMode mode = DurabilityMode::kFsync) {
  ProviderConfig config;
  config.durability.enabled = true;
  config.durability.dir = dir;
  config.durability.mode = mode;
  // Tests drive checkpoints explicitly; the background compactor would
  // make WAL contents timing-dependent.
  config.durability.snapshot_every_entries = 0;
  return config;
}

// The round-trip assertion: two providers are "the same provider" exactly
// when their full labeled snapshots dump to identical bytes. Snapshot
// JSON is deterministic (sorted registries, map-ordered objects), so this
// compares every record, file, tag, policy, and account — labels
// included — in one shot.
void expect_same_state(Provider& a, Provider& b) {
  EXPECT_EQ(a.snapshot().dump(), b.snapshot().dump());
}

std::vector<std::string> replay_payloads(const std::string& dir) {
  std::vector<std::string> payloads;
  auto result = WriteAheadLog::replay(
      dir, 1,
      [&](std::uint64_t, const std::string& payload) {
        payloads.push_back(payload);
        return util::ok_status();
      },
      /*repair=*/false);
  EXPECT_TRUE(result.ok());
  return payloads;
}

// ---- WAL unit tests --------------------------------------------------------

TEST(WalTest, AppendFlushReplayRoundTrip) {
  ScratchDir dir("wal_roundtrip");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t seq = wal->append("payload-" + std::to_string(i));
    EXPECT_EQ(seq, static_cast<std::uint64_t>(i + 1));
    ASSERT_TRUE(wal->wait_durable(seq).ok());
  }
  wal->close();

  std::vector<std::pair<std::uint64_t, std::string>> seen;
  auto result = WriteAheadLog::replay(
      dir.path(), 1,
      [&](std::uint64_t seq, const std::string& payload) {
        seen.emplace_back(seq, payload);
        return util::ok_status();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries, 5u);
  EXPECT_EQ(result.value().last_seq, 5u);
  EXPECT_FALSE(result.value().tail_torn);
  ASSERT_EQ(seen.size(), 5u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].first, i + 1);
    EXPECT_EQ(seen[i].second, "payload-" + std::to_string(i));
  }
}

TEST(WalTest, ReplayFromSeqSkipsEarlierFrames) {
  ScratchDir dir("wal_from_seq");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  for (int i = 0; i < 6; ++i) wal->append("p" + std::to_string(i));
  ASSERT_TRUE(wal->flush().ok());
  wal->close();
  std::uint64_t first_seen = 0, entries = 0;
  auto result = WriteAheadLog::replay(
      dir.path(), 4,
      [&](std::uint64_t seq, const std::string&) {
        if (first_seen == 0) first_seen = seq;
        ++entries;
        return util::ok_status();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(first_seen, 4u);
  EXPECT_EQ(entries, 3u);
}

TEST(WalTest, TornTailIsTruncatedAndLogIsAppendReady) {
  ScratchDir dir("wal_torn");
  fs::create_directories(dir.path());
  // Hand-build a segment: two complete frames plus a torn third.
  std::string bytes;
  wal_encode_frame(1, "alpha", bytes);
  wal_encode_frame(2, "beta", bytes);
  std::string torn;
  wal_encode_frame(3, "gamma", torn);
  bytes += torn.substr(0, torn.size() - 2);  // lose the final two bytes
  const std::string segment =
      (fs::path(dir.path()) / wal_segment_name(1)).string();
  std::ofstream(segment, std::ios::binary) << bytes;

  auto result = WriteAheadLog::replay(
      dir.path(), 1,
      [](std::uint64_t, const std::string&) { return util::ok_status(); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries, 2u);
  EXPECT_EQ(result.value().last_seq, 2u);
  EXPECT_TRUE(result.value().tail_torn);
  EXPECT_EQ(result.value().truncated_bytes, torn.size() - 2);
  // Repair trimmed the file back to the committed prefix...
  EXPECT_EQ(fs::file_size(segment), bytes.size() - (torn.size() - 2));

  // ...so appending seq 3 again produces a clean three-frame log.
  auto wal = WriteAheadLog::open(dir.path(), 3, {}).value();
  wal->append("gamma-take-two");
  wal->close();
  const auto payloads = replay_payloads(dir.path());
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(payloads[2], "gamma-take-two");
}

TEST(WalTest, CorruptFrameStopsReplayAtCommittedPrefix) {
  ScratchDir dir("wal_corrupt");
  fs::create_directories(dir.path());
  std::string bytes;
  wal_encode_frame(1, "aaaa", bytes);
  const std::size_t second_start = bytes.size();
  wal_encode_frame(2, "bbbb", bytes);
  wal_encode_frame(3, "cccc", bytes);
  bytes[second_start + kWalHeaderBytes] ^= 0x40;  // flip a payload byte
  const std::string segment =
      (fs::path(dir.path()) / wal_segment_name(1)).string();
  std::ofstream(segment, std::ios::binary) << bytes;

  auto result = WriteAheadLog::replay(
      dir.path(), 1,
      [](std::uint64_t, const std::string&) { return util::ok_status(); });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().entries, 1u);
  EXPECT_TRUE(result.value().tail_torn);
  // Frame 3 was intact but unreachable past the corruption — a second
  // replay of the repaired log sees exactly the committed prefix again.
  auto again = WriteAheadLog::replay(
      dir.path(), 1,
      [](std::uint64_t, const std::string&) { return util::ok_status(); });
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().entries, 1u);
  EXPECT_FALSE(again.value().tail_torn);
  EXPECT_EQ(again.value().truncated_bytes, 0u);
}

TEST(WalTest, RotationAndSegmentGC) {
  ScratchDir dir("wal_rotate");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  for (int i = 0; i < 3; ++i) wal->append("old-" + std::to_string(i));
  const std::uint64_t boundary = wal->rotate();
  EXPECT_EQ(boundary, 4u);
  EXPECT_EQ(wal->segment_start(), 4u);
  wal->append("new-0");
  ASSERT_TRUE(wal->flush().ok());

  auto count_segments = [&] {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir.path()))
      if (entry.path().filename().string().starts_with("wal-")) ++n;
    return n;
  };
  EXPECT_EQ(count_segments(), 2u);
  ASSERT_TRUE(wal->remove_segments_below(boundary).ok());
  EXPECT_EQ(count_segments(), 1u);
  wal->close();

  // Replay from the boundary sees only the surviving segment.
  std::uint64_t entries = 0;
  auto result = WriteAheadLog::replay(
      dir.path(), boundary,
      [&](std::uint64_t, const std::string&) {
        ++entries;
        return util::ok_status();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(entries, 1u);
  EXPECT_EQ(result.value().last_seq, 4u);
}

TEST(WalTest, WeakModesDoNotBlockAndStillPersistOnClose) {
  for (const DurabilityMode mode :
       {DurabilityMode::kNone, DurabilityMode::kInterval}) {
    ScratchDir dir(std::string("wal_mode_") + to_string(mode));
    WalOptions options;
    options.mode = mode;
    auto wal = WriteAheadLog::open(dir.path(), 1, options).value();
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(wal->wait_durable(wal->append("m" + std::to_string(i))).ok());
    wal->close();  // drains whatever was pending
    EXPECT_EQ(replay_payloads(dir.path()).size(), 10u) << to_string(mode);
  }
}

TEST(WalTest, AppendAfterCloseReturnsZero) {
  ScratchDir dir("wal_closed");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  wal->close();
  EXPECT_EQ(wal->append("too late"), 0u);
  // Must not hang — and must not claim durability either.
  EXPECT_FALSE(wal->wait_durable(0).ok());
}

TEST(WalTest, WriteErrorPoisonsLogAndStopsAcking) {
  ScratchDir dir("wal_io_error");
  WalOptions options;
  options.fault = net::FileFaultPlan::error_at(40);  // tears the third frame
  auto wal = WriteAheadLog::open(dir.path(), 1, options).value();
  // 18-byte frames (16-byte header + 2-byte payload): frames 1 and 2 land
  // whole; frame 3 persists 4 bytes and the write reports the failure.
  ASSERT_TRUE(wal->wait_durable(wal->append("p0")).ok());
  ASSERT_TRUE(wal->wait_durable(wal->append("p1")).ok());
  const std::uint64_t seq = wal->append("p2");
  ASSERT_EQ(seq, 3u);
  EXPECT_FALSE(wal->wait_durable(seq).ok());
  EXPECT_TRUE(wal->failed());
  // Poisoned: nothing further is accepted or acked, and nothing hangs —
  // a torn frame sits mid-segment, so any later write would be beyond
  // the prefix replay can reach.
  EXPECT_EQ(wal->append("p3"), 0u);
  EXPECT_FALSE(wal->flush().ok());
  EXPECT_EQ(wal->rotate(), 0u);
  EXPECT_EQ(wal->durable_seq(), 2u);
  wal->close();

  // Recovery sees exactly the acked prefix; the torn frame is truncated.
  std::vector<std::string> seen;
  auto result = WriteAheadLog::replay(
      dir.path(), 1,
      [&](std::uint64_t, const std::string& payload) {
        seen.push_back(payload);
        return util::ok_status();
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().last_seq, 2u);
  EXPECT_TRUE(result.value().tail_torn);
  EXPECT_EQ(seen, (std::vector<std::string>{"p0", "p1"}));
}

TEST(WalTest, OversizedAppendIsRejectedUpFront) {
  ScratchDir dir("wal_oversized");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  // Written, this frame would be acked durable yet truncated as corrupt
  // by the next replay (len > kWalMaxPayloadBytes) — along with every
  // committed frame after it. It must never reach the log.
  const std::uint64_t seq =
      wal->append(std::string(kWalMaxPayloadBytes + 1, 'x'));
  EXPECT_EQ(seq, 0u);
  EXPECT_FALSE(wal->wait_durable(seq).ok());
  // The log itself stays healthy: later appends commit and replay.
  EXPECT_FALSE(wal->failed());
  ASSERT_TRUE(wal->wait_durable(wal->append("fits")).ok());
  wal->close();
  const auto payloads = replay_payloads(dir.path());
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "fits");
}

TEST(WalTest, ReplayErrorsOnMissingLeadingSegments) {
  ScratchDir dir("wal_gap");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  for (int i = 0; i < 3; ++i) wal->append("old-" + std::to_string(i));
  const std::uint64_t boundary = wal->rotate();
  ASSERT_EQ(boundary, 4u);
  wal->append("new-0");
  ASSERT_TRUE(wal->flush().ok());
  wal->close();
  // The snapshot that licensed GC of the first segment rotted: recovery
  // falls back to replaying from seq 1, but frames 1..3 are gone. The
  // hole must be an error, not a silent success over missing mutations.
  fs::remove(fs::path(dir.path()) / wal_segment_name(1));
  auto gap = WriteAheadLog::replay(
      dir.path(), 1,
      [](std::uint64_t, const std::string&) { return util::ok_status(); });
  EXPECT_FALSE(gap.ok());
  // From the boundary itself the log is whole again.
  auto tail = WriteAheadLog::replay(
      dir.path(), boundary,
      [](std::uint64_t, const std::string&) { return util::ok_status(); });
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.value().entries, 1u);
  EXPECT_EQ(tail.value().last_seq, 4u);
}

TEST(WalTest, FailedRotationUnblocksInsteadOfHanging) {
  ScratchDir dir("wal_rotate_fail");
  auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
  ASSERT_TRUE(wal->wait_durable(wal->append("one")).ok());
  // Kill the directory out from under the log: the next segment cannot
  // be created, so rotation must fail fast — unblocking checkpoint with
  // an unusable (zero) boundary — rather than stall forever while
  // appends keep acking against a closed file.
  fs::remove_all(dir.path());
  EXPECT_EQ(wal->rotate(), 0u);
  EXPECT_TRUE(wal->failed());
  EXPECT_EQ(wal->append("two"), 0u);
  EXPECT_FALSE(wal->flush().ok());
  wal->close();
}

// ---- on_durable: the non-blocking wait -------------------------------------

// Collects on_durable outcomes from whatever thread runs the callbacks.
class Outcomes {
 public:
  WriteAheadLog::DurableCallback record(std::function<void()> check = {}) {
    return [this, check = std::move(check)](util::Status status) {
      if (check) check();
      const std::lock_guard<std::mutex> lock(mutex_);
      statuses_.push_back(std::move(status));
      threads_.push_back(std::this_thread::get_id());
      cv_.notify_all();
    };
  }
  // Waits (bounded) until `n` callbacks have run.
  bool wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return statuses_.size() >= n; });
  }
  std::vector<util::Status> statuses() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return statuses_;
  }
  std::vector<std::thread::id> threads() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return threads_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<util::Status> statuses_;
  std::vector<std::thread::id> threads_;
};

TEST(WalTest, OnDurableNeverRunsBeforeTheFsyncCoveringIt) {
  ScratchDir dir("wal_on_durable");
  util::MetricsRegistry metrics;
  WalOptions options;
  options.metrics = &metrics;
  auto wal = WriteAheadLog::open(dir.path(), 1, options).value();
  const util::Counter& fsyncs = metrics.counter("w5_wal_fsyncs_total");
  Outcomes outcomes;
  std::atomic<int> early{0};
  constexpr int kAppends = 200;
  for (int i = 0; i < kAppends; ++i) {
    const std::uint64_t seq = wal->append("od" + std::to_string(i));
    ASSERT_EQ(seq, static_cast<std::uint64_t>(i + 1));
    wal->on_durable(seq, outcomes.record([&, seq] {
      // durable_seq() advances only once an fsync has covered it.
      if (wal->durable_seq() < seq) ++early;
      if (util::kTelemetryEnabled && fsyncs.value() == 0) ++early;
    }));
  }
  ASSERT_TRUE(outcomes.wait_for(kAppends));
  EXPECT_EQ(early.load(), 0);
  for (const util::Status& status : outcomes.statuses())
    EXPECT_TRUE(status.ok());
  wal->close();
  EXPECT_EQ(replay_payloads(dir.path()).size(),
            static_cast<std::size_t>(kAppends));
}

TEST(WalTest, OnDurableRunsWithTheErrorWhenTheLogFails) {
  ScratchDir dir("wal_on_durable_error");
  WalOptions options;
  options.fault = net::FileFaultPlan::error_at(40);  // tears the third frame
  auto wal = WriteAheadLog::open(dir.path(), 1, options).value();
  ASSERT_TRUE(wal->wait_durable(wal->append("p0")).ok());
  ASSERT_TRUE(wal->wait_durable(wal->append("p1")).ok());
  Outcomes outcomes;
  wal->on_durable(wal->append("p2"), outcomes.record());
  ASSERT_TRUE(outcomes.wait_for(1));
  EXPECT_EQ(outcomes.statuses()[0].error().code, "wal.failed");
  // Once failed, a registration settles at once, on the caller's thread,
  // with the same error — never with ok.
  wal->on_durable(2, outcomes.record());  // durable before the failure
  wal->on_durable(3, outcomes.record());
  wal->on_durable(0, outcomes.record());  // a refused append
  ASSERT_EQ(outcomes.statuses().size(), 4u);
  EXPECT_TRUE(outcomes.statuses()[1].ok());
  EXPECT_EQ(outcomes.statuses()[2].error().code, "wal.failed");
  EXPECT_EQ(outcomes.statuses()[3].error().code, "wal.failed");
  EXPECT_EQ(outcomes.threads()[3], std::this_thread::get_id());
  wal->close();
}

TEST(WalTest, OnDurableSettlesOnCloseAndAtOnceInWeakModes) {
  {
    // Appended and registered, then closed: close() drains the tail, so
    // the callback runs with ok — and none is left behind unrun.
    ScratchDir dir("wal_on_durable_close");
    auto wal = WriteAheadLog::open(dir.path(), 1, {}).value();
    Outcomes outcomes;
    for (int i = 0; i < 20; ++i)
      wal->on_durable(wal->append("c" + std::to_string(i)),
                      outcomes.record());
    wal->close();
    ASSERT_EQ(outcomes.statuses().size(), 20u);
    for (const util::Status& status : outcomes.statuses())
      EXPECT_TRUE(status.ok());
    // Registered after close: settles at once with the closed error.
    wal->on_durable(21, outcomes.record());
    ASSERT_EQ(outcomes.statuses().size(), 21u);
    EXPECT_EQ(outcomes.statuses()[20].error().code, "wal.closed");
  }
  for (const DurabilityMode mode :
       {DurabilityMode::kNone, DurabilityMode::kInterval}) {
    ScratchDir dir(std::string("wal_on_durable_") + to_string(mode));
    WalOptions options;
    options.mode = mode;
    auto wal = WriteAheadLog::open(dir.path(), 1, options).value();
    Outcomes outcomes;
    wal->on_durable(wal->append("weak"), outcomes.record());
    // The weak modes promise no fsync before the ack: the callback has
    // already run, on this thread.
    ASSERT_EQ(outcomes.statuses().size(), 1u) << to_string(mode);
    EXPECT_TRUE(outcomes.statuses()[0].ok());
    EXPECT_EQ(outcomes.threads()[0], std::this_thread::get_id());
    wal->close();
  }
}

TEST(DurableStoreTest, DeferredScopeDefersOnlyItsOwnLogsWaits) {
  ScratchDir dir_a("defer_a");
  ScratchDir dir_b("defer_b");
  DurabilityConfig config;
  config.enabled = true;
  config.snapshot_every_entries = 0;
  config.dir = dir_a.path();
  DurableStore a(config);
  config.dir = dir_b.path();
  DurableStore b(config);
  const auto ignore = [](const std::string&) { return util::ok_status(); };
  const auto apply = [](const util::Json&) { return util::ok_status(); };
  ASSERT_TRUE(a.recover(ignore, apply).ok());
  ASSERT_TRUE(b.recover(ignore, apply).ok());
  util::Json op;
  op["op"] = "store.test";

  {
    const util::DeferredDurability deferred(&a);
    const std::uint64_t first = a.log(op);
    const std::uint64_t second = a.log(op);
    EXPECT_TRUE(a.wait_durable(second).ok());
    EXPECT_TRUE(a.wait_durable(first).ok());
    EXPECT_EQ(deferred.highest_seq(), second);
    // A refused op still fails at once, inside the scope.
    EXPECT_FALSE(a.wait_durable(0).ok());
    // Another log's wait blocks as always: on return it is durable.
    const std::uint64_t other = b.log(op);
    ASSERT_TRUE(b.wait_durable(other).ok());
    EXPECT_GE(b.wal()->durable_seq(), other);
    EXPECT_EQ(deferred.highest_seq(), second);
    Outcomes outcomes;
    a.on_durable(deferred.highest_seq(), outcomes.record());
    ASSERT_TRUE(outcomes.wait_for(1));
    EXPECT_TRUE(outcomes.statuses()[0].ok());
    EXPECT_GE(a.wal()->durable_seq(), second);
  }
  // Scope closed: the same log's waits block again.
  const std::uint64_t after = a.log(op);
  ASSERT_TRUE(a.wait_durable(after).ok());
  EXPECT_GE(a.wal()->durable_seq(), after);
  // A null log opens no scope.
  const util::DeferredDurability none(nullptr);
  EXPECT_FALSE(util::DeferredDurability::defer(&a, 7));
  EXPECT_EQ(none.highest_seq(), 0u);
}

// ---- Snapshot tests --------------------------------------------------------

TEST(SnapshotTest, WriteLoadRoundTrip) {
  ScratchDir dir("snap_roundtrip");
  fs::create_directories(dir.path());
  ASSERT_TRUE(write_snapshot(dir.path(), 42, "the payload").ok());
  auto loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().boundary, 42u);
  EXPECT_EQ(loaded.value().payload, "the payload");
  // No leftover temp files from the write-rename dance.
  for (const auto& entry : fs::directory_iterator(dir.path()))
    EXPECT_FALSE(entry.path().string().ends_with(".tmp"));
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlderValid) {
  ScratchDir dir("snap_fallback");
  fs::create_directories(dir.path());
  ASSERT_TRUE(write_snapshot(dir.path(), 5, "old state").ok());
  ASSERT_TRUE(write_snapshot(dir.path(), 9, "new state").ok());
  // Flip a payload byte in the newest file; its checksum no longer
  // verifies and the loader must fall back.
  const std::string newest =
      (fs::path(dir.path()) / snapshot_file_name(9)).string();
  std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('X');
  f.close();

  auto loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().found);
  EXPECT_EQ(loaded.value().boundary, 5u);
  EXPECT_EQ(loaded.value().payload, "old state");
}

TEST(SnapshotTest, MissingDirectoryIsJustEmpty) {
  auto loaded = load_latest_snapshot("/tmp/w5_no_such_dir_anywhere");
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded.value().found);
  EXPECT_EQ(loaded.value().boundary, 1u);
}

TEST(SnapshotTest, StaleSnapshotsRemoved) {
  ScratchDir dir("snap_gc");
  fs::create_directories(dir.path());
  for (const std::uint64_t b : {3u, 7u, 9u})
    ASSERT_TRUE(write_snapshot(dir.path(), b, "state@" + std::to_string(b))
                    .ok());
  ASSERT_TRUE(remove_stale_snapshots(dir.path(), 9).ok());
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / snapshot_file_name(3)));
  EXPECT_FALSE(fs::exists(fs::path(dir.path()) / snapshot_file_name(7)));
  EXPECT_TRUE(fs::exists(fs::path(dir.path()) / snapshot_file_name(9)));
}

TEST(SnapshotTest, CrashDuringWriteLeavesOldSnapshotIntact) {
  ScratchDir dir("snap_crash");
  fs::create_directories(dir.path());
  ASSERT_TRUE(write_snapshot(dir.path(), 5, "survivor").ok());
  // Crash after 10 bytes of the new temp file: the rename never runs.
  auto fault = net::FileFaultPlan::crash_at(10);
  (void)write_snapshot(dir.path(), 9, std::string(1000, 'z'), fault);
  EXPECT_TRUE(fault.crashed());
  auto loaded = load_latest_snapshot(dir.path());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().boundary, 5u);
  EXPECT_EQ(loaded.value().payload, "survivor");
}

// ---- Provider-level recovery ----------------------------------------------

TEST(DurabilityProviderTest, DisabledByDefaultWritesNothing) {
  ScratchDir dir("off");
  util::SimClock clock;
  Provider provider(ProviderConfig{}, clock);
  ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
  EXPECT_EQ(provider.durable(), nullptr);
  EXPECT_EQ(provider.checkpoint().error().code, "wal.checkpoint");
  EXPECT_FALSE(fs::exists(dir.path()));
}

TEST(DurabilityProviderTest, RestartRecoversFullLabeledState) {
  ScratchDir dir("restart");
  util::SimClock clock;
  std::string before;
  {
    Provider provider(durable_config(dir.path()), clock);
    ASSERT_TRUE(provider.durability_status().ok());
    ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
    ASSERT_TRUE(provider.signup("amy", "amypw").ok());
    const std::string bob = provider.login("bob", "bobpw").value();
    ASSERT_EQ(provider.http(Method::kPost, "/data/photos/p1",
                            R"({"title":"durable"})", bob).status,
              201);
    ASSERT_EQ(provider.http(Method::kPost, "/policy",
                            R"({"declassifier":"std/friends"})", bob).status,
              200);
    before = provider.snapshot().dump();
  }

  Provider recovered(durable_config(dir.path()), clock);
  ASSERT_TRUE(recovered.durability_status().ok());
  EXPECT_GT(recovered.recovery_stats().replayed_entries, 0u);
  EXPECT_FALSE(recovered.recovery_stats().tail_torn);
  // Byte-identical state: accounts, tags, policies, files, records —
  // labels travel with the data (paper §1).
  EXPECT_EQ(recovered.snapshot().dump(), before);
  // And it behaves like the same provider: the password verifies and the
  // record reads back under bob's authority.
  const std::string bob = recovered.login("bob", "bobpw").value();
  EXPECT_EQ(recovered.http(Method::kGet, "/data/photos/p1", "", bob).status,
            200);
  // The record still wears bob's secrecy tag.
  const auto record =
      recovered.store().get(os::kKernelPid, "photos", "p1").value();
  const auto* account = recovered.users().find("bob");
  ASSERT_NE(account, nullptr);
  EXPECT_TRUE(record.labels.secrecy.contains(account->secrecy_tag));
}

TEST(DurabilityProviderTest, FilesystemContentAndLabelsSurvive) {
  ScratchDir dir("fs_restart");
  util::SimClock clock;
  difc::ObjectLabels labels_before;
  {
    Provider provider(durable_config(dir.path()), clock);
    ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
    ASSERT_TRUE(provider.fs()
                    .create(os::kKernelPid, "/users/bob/notes.txt",
                            difc::ObjectLabels{}, "first line\n")
                    .ok());
    ASSERT_TRUE(provider.fs()
                    .append(os::kKernelPid, "/users/bob/notes.txt",
                            "second line\n")
                    .ok());
    labels_before =
        provider.fs().stat(os::kKernelPid, "/users/bob").value().labels;
  }
  Provider recovered(durable_config(dir.path()), clock);
  EXPECT_EQ(recovered.fs()
                .read(os::kKernelPid, "/users/bob/notes.txt")
                .value(),
            "first line\nsecond line\n");
  EXPECT_EQ(recovered.fs().stat(os::kKernelPid, "/users/bob").value().labels,
            labels_before);
}

TEST(DurabilityProviderTest, CheckpointCompactsAndRecoveryUsesSnapshot) {
  ScratchDir dir("checkpoint");
  util::SimClock clock;
  std::string before;
  std::uint64_t entries_before_checkpoint = 0;
  {
    Provider provider(durable_config(dir.path()), clock);
    ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
    const std::string bob = provider.login("bob", "bobpw").value();
    ASSERT_EQ(provider.http(Method::kPost, "/data/photos/p1",
                            R"({"n":1})", bob).status,
              201);
    entries_before_checkpoint = provider.durable()->last_seq();
    ASSERT_TRUE(provider.checkpoint().ok());
    ASSERT_EQ(provider.http(Method::kPost, "/data/photos/p2",
                            R"({"n":2})", bob).status,
              201);
    before = provider.snapshot().dump();
  }

  Provider recovered(durable_config(dir.path()), clock);
  ASSERT_TRUE(recovered.durability_status().ok());
  const auto& stats = recovered.recovery_stats();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_boundary, entries_before_checkpoint + 1);
  // Only the post-checkpoint tail was replayed (one store.put).
  EXPECT_LT(stats.replayed_entries, entries_before_checkpoint);
  EXPECT_EQ(recovered.snapshot().dump(), before);
}

TEST(DurabilityProviderTest, RecoveryChargesNothingTwice) {
  ScratchDir dir("exactly_once");
  util::SimClock clock;
  std::uint64_t total_entries = 0;
  {
    Provider provider(durable_config(dir.path()), clock);
    // Through the gateway, so the run audits and counts like real
    // traffic (provider.signup() is the unaudited convenience path).
    ASSERT_EQ(provider.http(Method::kPost, "/signup",
                            "user=bob&password=bobpw").status,
              201);
    const std::string bob = provider.login("bob", "bobpw").value();
    ASSERT_EQ(provider.http(Method::kPost, "/data/photos/p1",
                            R"({"title":"once"})", bob).status,
              201);
    total_entries = provider.durable()->last_seq();
    EXPECT_GT(provider.audit().size(), 0u);
    EXPECT_GT(provider.metrics().counter("w5_requests_total").value(), 0u);
  }

  // The replayed boot must not re-audit, re-count, or re-charge any of
  // the mutations it re-applies: recovery is exactly-once.
  Provider recovered(durable_config(dir.path()), clock);
  EXPECT_EQ(recovered.recovery_stats().replayed_entries, total_entries);
  EXPECT_EQ(recovered.audit().size(), 0u);
  EXPECT_EQ(recovered.metrics().counter("w5_requests_total").value(), 0u);
  EXPECT_EQ(
      recovered.metrics().counter("w5_wal_recovered_entries_total").value(),
      total_entries);
  // Replay bypassed flow checks by design, but live traffic after
  // recovery is enforced as usual: amy cannot read bob's photo.
  ASSERT_TRUE(recovered.signup("amy", "amypw").ok());
  const std::string amy = recovered.login("amy", "amypw").value();
  EXPECT_EQ(recovered.http(Method::kGet, "/data/photos/p1", "", amy).status,
            403);
}

TEST(DurabilityProviderTest, SecondRecoveryIsIdempotent) {
  ScratchDir dir("idempotent");
  util::SimClock clock;
  {
    Provider provider(durable_config(dir.path()), clock);
    ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
    const std::string bob = provider.login("bob", "bobpw").value();
    ASSERT_EQ(provider.http(Method::kPost, "/data/photos/p1",
                            R"({"v":1})", bob).status,
              201);
  }
  Provider first(durable_config(dir.path()), clock);
  Provider second(durable_config(dir.path()), clock);
  expect_same_state(first, second);
  EXPECT_EQ(first.recovery_stats().last_seq,
            second.recovery_stats().last_seq);
  EXPECT_EQ(second.recovery_stats().truncated_bytes, 0u);
}

TEST(DurabilityProviderTest, AllModesSurviveCleanShutdown) {
  for (const DurabilityMode mode :
       {DurabilityMode::kNone, DurabilityMode::kInterval,
        DurabilityMode::kFsync}) {
    ScratchDir dir(std::string("mode_") + to_string(mode));
    util::SimClock clock;
    {
      Provider provider(durable_config(dir.path(), mode), clock);
      ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
    }
    Provider recovered(durable_config(dir.path(), mode), clock);
    EXPECT_TRUE(recovered.login("bob", "bobpw").ok()) << to_string(mode);
  }
}

TEST(DurabilityProviderTest, UnusableDirFallsBackToInMemory) {
  // A regular file where the durability dir should be: recovery cannot
  // bring the plane up, and the provider runs in-memory instead of
  // refusing to start.
  ScratchDir dir("bad_dir");
  fs::create_directories(dir.path());
  const std::string blocker = dir.path() + "/blocker";
  std::ofstream(blocker) << "not a directory";
  util::SimClock clock;
  // Silence the expected durability-disabled error line.
  auto previous =
      util::set_log_sink([](util::LogLevel, std::string_view) {});
  Provider provider(durable_config(blocker + "/wal"), clock);
  util::set_log_sink(std::move(previous));
  EXPECT_EQ(provider.durable(), nullptr);
  EXPECT_FALSE(provider.durability_status().ok());
  ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
  EXPECT_TRUE(provider.login("bob", "bobpw").ok());
}

TEST(DurabilityProviderTest, WalFailureAnswers503NotAFlowDenial) {
  ScratchDir dir("wal_failure_503");
  util::SimClock clock;
  ProviderConfig config = durable_config(dir.path());
  // Lands a few frames past the sign-up: its entries persist whole, and
  // the log fails inside one of the puts below.
  config.durability.fault = net::FileFaultPlan::error_at(4096);
  Provider provider(std::move(config), clock);
  ASSERT_TRUE(provider.durability_status().ok());
  ASSERT_TRUE(provider.signup("bob", "bobpw").ok());
  const std::string bob = provider.login("bob", "bobpw").value();
  ASSERT_LT(provider.durable()->wal()->segment_bytes(), 4096u);
  const std::string body = R"({"note":")" + std::string(200, 'n') + R"("})";
  int created = 0;
  int failed = 0;
  for (int i = 0; i < 40; ++i) {
    const auto response = provider.http(
        Method::kPost, "/data/notes/n" + std::to_string(i), body, bob);
    if (response.status == 201) {
      EXPECT_EQ(failed, 0) << "a 2xx after the log failed, put " << i;
      ++created;
      continue;
    }
    // The failing put and every later one: a server fault, not a DIFC
    // decision.
    EXPECT_EQ(response.status, 503) << response.body;
    EXPECT_EQ(response.body, R"({"error":"wal.failed"})");
    ++failed;
  }
  EXPECT_GT(created, 0);
  EXPECT_GT(failed, 0);
  EXPECT_TRUE(provider.durable()->wal()->failed());
  const auto gone = provider.http(Method::kDelete, "/data/notes/n0", "", bob);
  EXPECT_EQ(gone.status, 503) << gone.body;
  EXPECT_EQ(provider.audit().count(platform::AuditKind::kFlowDenied), 0u);
}

TEST(DurabilityProviderTest, BackgroundCompactorCheckpoints) {
  ScratchDir dir("compactor");
  util::SimClock clock;
  ProviderConfig config = durable_config(dir.path());
  config.durability.snapshot_every_entries = 4;
  config.durability.compactor_poll_micros = 1'000;
  Provider provider(config, clock);
  ASSERT_TRUE(provider.signup("bob", "bobpw").ok());  // 5 WAL entries
  // Wait (bounded) for the compactor to notice and checkpoint.
  for (int i = 0; i < 500; ++i) {
    if (provider.metrics().counter("w5_wal_checkpoints_total").value() > 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(provider.metrics().counter("w5_wal_checkpoints_total").value(),
            0u);
  bool snapshot_exists = false;
  for (const auto& entry : fs::directory_iterator(dir.path()))
    if (entry.path().filename().string().starts_with("snapshot-"))
      snapshot_exists = true;
  EXPECT_TRUE(snapshot_exists);
}

}  // namespace
}  // namespace w5::store
