// Write-ahead log for provider state (DESIGN.md §13).
//
// Every mutation to the labeled store, filesystem, tag registry, policy
// store, and user directory is serialized (labels included — policy is
// inseparable from data at rest, paper §1/§3.1) and appended here before
// the caller's durability mode lets the request complete. Frames are
// length-prefixed, CRC32-guarded, and carry a monotone sequence number:
//
//   [u32 payload_len][u32 crc32(seq_le || payload)][u64 seq][payload]
//
// all little-endian. Recovery replays frames in order and stops cleanly
// at the first torn or corrupt frame — the tail an interrupted write
// leaves behind — truncating it so the log is append-ready again.
//
// The log is segmented: appends go to wal-<first_seq>.log; compaction
// rotates to a fresh segment, snapshots the full state, and deletes
// segments the snapshot covers. Group commit: appends from any thread —
// reactor loops, pooled workers, in-process callers — enqueue under a
// leaf mutex, and a dedicated flusher thread writes and fsyncs whole
// batches, amortizing one fsync across every append that arrived while
// the previous one was in flight. Callers either block in wait_durable()
// or register on_durable(), which the flusher runs after the covering
// fsync; the reactor parks a connection that way so its loop keeps
// appending for other connections while the fsync is in flight.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.h"  // FaultyFile, FileFaultPlan
#include "util/clock.h"
#include "util/metrics.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::store {

// How hard an acknowledged mutation promises to be on disk.
enum class DurabilityMode : std::uint8_t {
  kNone,      // appends reach the OS eventually; no fsync is ever issued
  kInterval,  // batches are written promptly, fsynced every flush interval
  kFsync,     // the caller blocks until its batch is fsynced (group commit)
};

std::string to_string(DurabilityMode mode);

struct WalOptions {
  DurabilityMode mode = DurabilityMode::kFsync;
  util::Micros flush_interval_micros = 2'000;  // kInterval fsync cadence
  net::FileFaultPlan fault;  // test hook: injected file faults
  util::MetricsRegistry* metrics = nullptr;  // optional w5_wal_* instruments
};

// On-disk layout constants, shared with tests that enumerate crash
// offsets frame by frame.
inline constexpr std::size_t kWalHeaderBytes = 16;  // len + crc + seq
inline constexpr std::size_t kWalMaxPayloadBytes = 64u << 20;

std::string wal_segment_name(std::uint64_t first_seq);

// Encodes one frame; appended to `out`.
void wal_encode_frame(std::uint64_t seq, std::string_view payload,
                      std::string& out);

class WriteAheadLog {
 public:
  // Replay of everything on disk at or after `from_seq`, in sequence
  // order. `apply` sees each payload exactly once; replay stops (without
  // error) at the first torn/corrupt frame and `repair` truncates the
  // segment there and removes any later segments, so the surviving prefix
  // is exactly what the next open() extends. It is an error (not a torn
  // tail) when the oldest surviving segment starts after `from_seq`:
  // frames the caller needs are missing entirely, and replaying over the
  // hole would report success with mutations silently dropped.
  struct ReplayResult {
    std::uint64_t entries = 0;        // frames delivered to apply
    std::uint64_t last_seq = 0;       // highest sequence applied
    std::uint64_t truncated_bytes = 0;  // torn tail discarded by repair
    bool tail_torn = false;
  };
  static util::Result<ReplayResult> replay(
      const std::string& dir, std::uint64_t from_seq,
      const std::function<util::Status(std::uint64_t seq,
                                       const std::string& payload)>& apply,
      bool repair = true);

  // Opens a fresh segment starting at `next_seq` and starts the flusher.
  static util::Result<std::unique_ptr<WriteAheadLog>> open(
      const std::string& dir, std::uint64_t next_seq, WalOptions options);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Assigns and returns the next sequence number; the payload is owned by
  // the flusher from here. Cheap: one leaf mutex, no I/O. Returns 0 after
  // close(), after the log has failed, or when the payload exceeds
  // kWalMaxPayloadBytes (an oversized frame would be unreplayable, so it
  // must never be written); wait_durable(0) reports the rejection.
  std::uint64_t append(std::string payload);

  // Blocks until `seq` is durable — only in kFsync mode; the weaker modes
  // return promptly (that is their contract). An error means `seq` never
  // became durable: the log failed (a write or fsync error poisons it —
  // every unacked and future mutation fails from then on) or `seq` is 0
  // because append() refused the op.
  util::Status wait_durable(std::uint64_t seq);

  // Runs `done` once with what wait_durable(seq) would return, without
  // blocking: in kFsync mode the flusher runs it after the fsync covering
  // `seq`, holding no lock; a failing log runs every pending callback
  // with its error, and close() runs the ones its final drain did not
  // cover with "wal.closed". When nothing needs waiting for (a weak
  // mode, seq 0, already durable, failed, closing) it runs at once on the
  // caller's thread.
  using DurableCallback = std::function<void(util::Status)>;
  void on_durable(std::uint64_t seq, DurableCallback done);

  // Drains pending appends to disk (fsyncs except in kNone); the test and
  // shutdown hook. Errors if the log has failed.
  util::Status flush();

  // Closes the current segment at a batch boundary and starts a new one.
  // Returns the new segment's first sequence number: every frame < that
  // boundary is in closed segments, fsynced. Compaction calls this before
  // snapshotting so the snapshot provably covers the old segments.
  // Returns 0 if the rotation could not complete (failed log) — the
  // caller must not snapshot against an unproven boundary.
  std::uint64_t rotate();

  // Deletes closed segments whose frames all precede `seq` (compaction,
  // after the covering snapshot is durable).
  util::Status remove_segments_below(std::uint64_t seq);

  std::uint64_t last_appended_seq() const;
  std::uint64_t durable_seq() const;
  // True once a write, fsync, or rotation has failed. Sticky: a failed
  // log refuses appends and fails every wait — a torn frame may sit
  // mid-segment, and anything written after it would be unreachable to
  // replay, so acking anything further would be a durability lie.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  // Attempted bytes of the current segment (header + payload per frame) —
  // crash-matrix tests enumerate offsets against this.
  std::uint64_t segment_bytes() const;
  std::uint64_t segment_start() const;
  const std::string& dir() const { return dir_; }

  void close();

 private:
  WriteAheadLog(std::string dir, std::uint64_t next_seq, WalOptions options);

  struct Pending {
    std::uint64_t seq;
    std::string payload;
  };
  // An on_durable() registration. callbacks_ is a min-heap on seq
  // (std::greater order), so the next one due sits at the front.
  struct Callback {
    std::uint64_t seq;
    DurableCallback done;
    friend bool operator>(const Callback& a, const Callback& b) {
      return a.seq > b.seq;
    }
  };
  // Callbacks the log has settled, run by settle() once mutex_ is free.
  struct Settled {
    std::vector<DurableCallback> durable;  // run with ok
    std::vector<DurableCallback> refused;  // run with `error`
    util::Status error = util::ok_status();
  };

  util::Status open_segment_locked(std::uint64_t first_seq)
      W5_REQUIRES(mutex_);
  // Poisons the log (idempotent), wakes every waiter, and moves every
  // pending callback into `settled` with the failure.
  void fail_locked(std::string reason, Settled& settled) W5_REQUIRES(mutex_);
  util::Status fail_status_locked() const W5_REQUIRES(mutex_);
  // Moves the callbacks durable_seq_ now covers into `settled`.
  void take_durable_locked(Settled& settled) W5_REQUIRES(mutex_);
  // Moves every callback into `settled`: the covered ones as above, the
  // rest to run with `error`.
  void take_all_locked(Settled& settled, util::Status error)
      W5_REQUIRES(mutex_);
  static void settle(Settled settled);
  void flusher_main();
  // Writes one batch (split across a rotation boundary if one is
  // requested) and fsyncs per mode. Called from the flusher only.
  void write_batch(std::vector<Pending> batch, bool force_fsync);

  const std::string dir_;
  const WalOptions options_;

  // Near-leaf: guards everything below (only telemetry leaves inside).
  mutable util::Mutex mutex_{util::lockrank::kWal, "WriteAheadLog::mutex_"};
  std::condition_variable pending_cv_;   // flusher wakeup
  std::condition_variable durable_cv_;   // wait_durable / flush wakeup
  std::vector<Pending> pending_ W5_GUARDED_BY(mutex_);
  std::vector<Callback> callbacks_ W5_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ W5_GUARDED_BY(mutex_);
  // Highest seq written (+fsynced in kFsync).
  std::uint64_t durable_seq_ W5_GUARDED_BY(mutex_) = 0;
  // Highest seq handed to write(2).
  std::uint64_t written_seq_ W5_GUARDED_BY(mutex_) = 0;
  // Highest seq a serviced flush() covers.
  std::uint64_t flushed_seq_ W5_GUARDED_BY(mutex_) = 0;
  // flush() handshake: requests issued vs. force-batches the flusher ran.
  std::uint64_t flush_requests_ W5_GUARDED_BY(mutex_) = 0;
  std::uint64_t flush_serviced_ W5_GUARDED_BY(mutex_) = 0;
  // Nonzero: rotate before this seq.
  std::uint64_t rotate_at_ W5_GUARDED_BY(mutex_) = 0;
  std::uint64_t segment_start_ W5_GUARDED_BY(mutex_) = 0;
  std::uint64_t segment_bytes_ W5_GUARDED_BY(mutex_) = 0;
  bool closing_ W5_GUARDED_BY(mutex_) = false;
  std::atomic<bool> failed_{false};  // set under mutex_; read lock-free
  std::string fail_reason_ W5_GUARDED_BY(mutex_);
  // Flusher-thread-only between open() and close(); open_segment_locked
  // swaps it under mutex_ while the flusher itself holds the lock.
  net::FaultyFile file_;
  util::Micros last_fsync_micros_ = 0;  // flusher-thread-only

  // Telemetry (null when no registry was supplied).
  util::Counter* appends_ = nullptr;
  util::Counter* append_bytes_ = nullptr;
  util::Counter* fsyncs_ = nullptr;
  util::Counter* rotations_ = nullptr;
  util::Histogram* batch_entries_ = nullptr;
  util::Histogram* fsync_micros_ = nullptr;

  std::thread flusher_;
};

}  // namespace w5::store
