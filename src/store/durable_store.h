// The durability plane: WAL + snapshots + recovery, behind the
// util::MutationLog hook (DESIGN.md §13).
//
// One DurableStore serves a whole provider. Components publish mutations
// through log()/wait_durable(); a background compactor periodically
// rotates the WAL, captures a full labeled snapshot, and garbage-collects
// the segments and snapshots the new one covers. Recovery is the inverse:
// load the newest valid snapshot, replay the WAL tail from its boundary,
// truncate whatever torn suffix the crash left.
//
// Threading: log() touches only the WAL's leaf mutex, so it is safe under
// any component lock, and on_durable() callbacks run on the WAL's flusher
// with no lock held. The compactor runs on its own thread — never the
// flusher's — because capturing a snapshot takes the components' locks
// while workers inside those locks may be waiting on the flusher; the
// flusher must always make progress for the system to drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "store/snapshot.h"
#include "store/wal.h"
#include "util/json.h"
#include "util/mutation_log.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::store {

struct DurabilityConfig {
  bool enabled = false;  // off by default: the in-memory provider unchanged
  std::string dir;       // WAL segments + snapshots live here
  DurabilityMode mode = DurabilityMode::kFsync;
  util::Micros flush_interval_micros = 2'000;  // kInterval fsync cadence
  // Auto-checkpoint after this many WAL entries since the last boundary;
  // 0 disables the background compactor (checkpoint() still works).
  std::uint64_t snapshot_every_entries = 8192;
  util::Micros compactor_poll_micros = 20'000;  // how often the gauge is read
  net::FileFaultPlan fault;  // test hook: crash/short-write injection
};

class DurableStore final : public util::MutationLog {
 public:
  explicit DurableStore(DurabilityConfig config,
                        util::MetricsRegistry* metrics = nullptr);
  ~DurableStore() override;

  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  struct RecoveryStats {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_boundary = 1;
    std::uint64_t replayed_entries = 0;
    std::uint64_t last_seq = 0;         // highest committed seq found
    std::uint64_t truncated_bytes = 0;  // torn tail discarded
    bool tail_torn = false;
    util::Micros recovery_micros = 0;
  };

  // Loads the newest valid snapshot (restore_snapshot sees its payload;
  // not called when none exists), replays the WAL tail (apply sees each
  // committed op once, in order), repairs the torn tail, then opens the
  // WAL for appending and starts the compactor. After success the store
  // accepts log() calls. Call exactly once, before any mutation.
  util::Result<RecoveryStats> recover(
      const std::function<util::Status(const std::string& payload)>&
          restore_snapshot,
      const std::function<util::Status(const util::Json& op)>& apply);

  // checkpoint() captures full state through this; must be set before the
  // compactor can run (Provider::snapshot().dump() in practice).
  void set_checkpoint_source(std::function<std::string()> fn);

  // util::MutationLog. log() returns 0 before recover(), after close(),
  // or when the WAL refused the op; wait_durable then reports the error.
  // In kFsync mode, a wait inside a util::DeferredDurability scope bound
  // to this store returns at once; the scope's owner settles the seq
  // through on_durable.
  std::uint64_t log(const util::Json& op) override;
  util::Status wait_durable(std::uint64_t seq) override;
  void on_durable(std::uint64_t seq, DurableCallback done) override;

  // Rotate, snapshot, GC — now, synchronously. Serialized internally.
  // Errors (without snapshotting) if the WAL has failed: a boundary the
  // rotation could not prove must not license segment GC.
  util::Status checkpoint();

  // Drains pending appends to disk (test/shutdown hook); errors if the
  // WAL has failed.
  util::Status flush();
  void close();  // stop compactor, drain + close the WAL

  std::uint64_t last_seq() const;
  WriteAheadLog* wal() { return wal_.get(); }  // test access
  const DurabilityConfig& config() const { return config_; }

 private:
  void compactor_main();

  const DurabilityConfig config_;
  util::MetricsRegistry* metrics_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::function<std::string()> checkpoint_source_;

  // Serializes checkpoint() bodies.
  util::Mutex checkpoint_mutex_{util::lockrank::kDurableCheckpoint,
                                "DurableStore::checkpoint_mutex_"};
  std::atomic<std::uint64_t> last_checkpoint_boundary_{1};

  util::Mutex compactor_mutex_{util::lockrank::kDurableCompactor,
                               "DurableStore::compactor_mutex_"};
  std::condition_variable compactor_cv_;
  bool closing_ W5_GUARDED_BY(compactor_mutex_) = false;
  std::thread compactor_;

  util::Counter* checkpoints_ = nullptr;
  util::Histogram* checkpoint_micros_ = nullptr;
};

}  // namespace w5::store
