#include "store/durable_store.h"

#include <chrono>

#include "util/log.h"

namespace w5::store {

namespace {

util::Micros steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

DurableStore::DurableStore(DurabilityConfig config,
                           util::MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    checkpoints_ = &metrics_->counter("w5_wal_checkpoints_total");
    checkpoint_micros_ = &metrics_->histogram("w5_wal_checkpoint_micros");
  }
}

DurableStore::~DurableStore() { close(); }

util::Result<DurableStore::RecoveryStats> DurableStore::recover(
    const std::function<util::Status(const std::string& payload)>&
        restore_snapshot,
    const std::function<util::Status(const util::Json& op)>& apply) {
  const util::Micros start = steady_micros();
  RecoveryStats stats;

  auto loaded = load_latest_snapshot(config_.dir);
  if (!loaded.ok()) return loaded.error();
  std::uint64_t from_seq = 1;
  if (loaded.value().found) {
    if (auto status = restore_snapshot(loaded.value().payload); !status.ok())
      return status.error();
    stats.snapshot_loaded = true;
    stats.snapshot_boundary = loaded.value().boundary;
    from_seq = loaded.value().boundary;
  }

  auto replayed = WriteAheadLog::replay(
      config_.dir, from_seq,
      [&](std::uint64_t, const std::string& payload) -> util::Status {
        auto op = util::Json::parse(payload);
        if (!op.ok()) {
          // CRC said the frame is intact, so unparseable JSON is a writer
          // bug, not a torn tail — surface it rather than truncating.
          return util::make_error("wal.replay",
                                  "committed frame is not valid JSON");
        }
        return apply(op.value());
      },
      /*repair=*/true);
  if (!replayed.ok()) return replayed.error();
  stats.replayed_entries = replayed.value().entries;
  stats.last_seq = replayed.value().last_seq;
  stats.truncated_bytes = replayed.value().truncated_bytes;
  stats.tail_torn = replayed.value().tail_torn;

  WalOptions options;
  options.mode = config_.mode;
  options.flush_interval_micros = config_.flush_interval_micros;
  options.fault = config_.fault;
  options.metrics = metrics_;
  auto wal = WriteAheadLog::open(config_.dir, stats.last_seq + 1, options);
  if (!wal.ok()) return wal.error();
  wal_ = std::move(wal).value();
  last_checkpoint_boundary_.store(from_seq);

  compactor_ = std::thread([this] { compactor_main(); });

  stats.recovery_micros = steady_micros() - start;
  if (metrics_ != nullptr) {
    metrics_->counter("w5_wal_recovered_entries_total")
        .inc(stats.replayed_entries);
    metrics_->histogram("w5_wal_recovery_micros")
        .observe(stats.recovery_micros);
  }
  return stats;
}

void DurableStore::set_checkpoint_source(std::function<std::string()> fn) {
  const util::MutexLock lock(checkpoint_mutex_);
  checkpoint_source_ = std::move(fn);
}

std::uint64_t DurableStore::log(const util::Json& op) {
  if (wal_ == nullptr) return 0;
  return wal_->append(op.dump());
}

util::Status DurableStore::wait_durable(std::uint64_t seq) {
  // Before recover() the components are replaying history, not accepting
  // mutations; nothing to wait for. With a live WAL, seq 0 means the op
  // was refused — the WAL turns it into the right error, never deferred.
  if (wal_ == nullptr) return util::ok_status();
  if (seq != 0 && config_.mode == DurabilityMode::kFsync &&
      util::DeferredDurability::defer(this, seq))
    return util::ok_status();
  return wal_->wait_durable(seq);
}

void DurableStore::on_durable(std::uint64_t seq, DurableCallback done) {
  if (wal_ == nullptr) {
    done(util::ok_status());
    return;
  }
  wal_->on_durable(seq, std::move(done));
}

util::Status DurableStore::checkpoint() {
  const util::MutexLock lock(checkpoint_mutex_);
  if (wal_ == nullptr)
    return util::make_error("wal.checkpoint", "durable store not recovered");
  if (!checkpoint_source_)
    return util::make_error("wal.checkpoint", "no checkpoint source set");

  const util::Micros start = steady_micros();
  // Rotate first: every seq < boundary is in closed, fsynced segments.
  // The snapshot is captured *after*, so its state covers at least those
  // sequences (possibly more — replay is idempotent, overlap is safe).
  const std::uint64_t boundary = wal_->rotate();
  if (boundary == 0) {
    return util::make_error("wal.checkpoint",
                            "rotation failed; WAL is failed or closed");
  }
  const std::string payload = checkpoint_source_();
  if (auto status = write_snapshot(config_.dir, boundary, payload,
                                   config_.fault);
      !status.ok())
    return status;
  // If the fault plan "crashed" mid-snapshot the machine is dead: no GC,
  // recovery must still find the previous snapshot + all segments.
  if (config_.fault.crashed()) return util::ok_status();
  if (auto status = wal_->remove_segments_below(boundary); !status.ok())
    return status;
  if (auto status = remove_stale_snapshots(config_.dir, boundary);
      !status.ok())
    return status;
  last_checkpoint_boundary_.store(boundary);
  if (checkpoints_ != nullptr) checkpoints_->inc();
  if (checkpoint_micros_ != nullptr)
    checkpoint_micros_->observe(steady_micros() - start);
  return util::ok_status();
}

util::Status DurableStore::flush() {
  if (wal_ == nullptr) return util::ok_status();
  return wal_->flush();
}

void DurableStore::close() {
  {
    const util::MutexLock lock(compactor_mutex_);
    if (closing_) return;
    closing_ = true;
  }
  compactor_cv_.notify_all();
  if (compactor_.joinable()) compactor_.join();
  if (wal_ != nullptr) wal_->close();
}

std::uint64_t DurableStore::last_seq() const {
  return wal_ != nullptr ? wal_->last_appended_seq() : 0;
}

void DurableStore::compactor_main() {
  const auto poll = std::chrono::microseconds(
      std::max<util::Micros>(config_.compactor_poll_micros, 1'000));
  util::UniqueLock lock(compactor_mutex_);
  while (!closing_) {
    compactor_cv_.wait_for(lock.native(), poll,
                           [&]() W5_REQUIRES(compactor_mutex_) { return closing_; });
    if (closing_ || config_.snapshot_every_entries == 0) continue;
    const std::uint64_t appended =
        wal_ != nullptr ? wal_->last_appended_seq() : 0;
    const std::uint64_t boundary = last_checkpoint_boundary_.load();
    if (appended + 1 < boundary + config_.snapshot_every_entries) continue;
    lock.unlock();
    if (auto status = checkpoint(); !status.ok()) {
      util::log_warn("wal: background checkpoint failed: ",
                     status.error().detail);
    }
    lock.lock();
  }
}

}  // namespace w5::store
