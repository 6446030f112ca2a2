// The hook durable components publish mutations through (DESIGN.md §13).
//
// Lives in util (the dependency root) so every labeled container — the
// store, the filesystem, the tag registry, policies, user accounts — can
// log without depending on the durability plane that implements it. The
// two-call shape is deliberate: log() is called *inside* the component's
// lock (it only assigns a sequence number and enqueues, so commit order
// matches lock order), while wait_durable() is called *after* the lock is
// released, so no component lock is ever held across an fsync.
//
// A caller that can answer later instead of blocking (the reactor's
// Provider::serve) opens a DeferredDurability scope around the request:
// the components' waits on that log then return at once, the scope keeps
// the highest sequence they waited for, and the caller hands that one
// sequence to on_durable() — one callback per request, run when the
// fsync covering it lands, instead of one blocked thread per write.
#pragma once

#include <cstdint>
#include <functional>

#include "util/result.h"

namespace w5::util {

class Json;

class MutationLog {
 public:
  // Receives what wait_durable(seq) would have returned.
  using DurableCallback = std::function<void(util::Status)>;

  virtual ~MutationLog() = default;

  // Enqueues one mutation (a self-describing JSON op) and returns its
  // monotone sequence number. Returns 0 if the log is closed, has failed,
  // or rejected the op (e.g. oversized); wait_durable(0) reports why.
  virtual std::uint64_t log(const Json& op) = 0;

  // Blocks until `seq` is durable per the configured durability mode
  // (returns promptly for interval/none modes). Never call while holding
  // the lock under which `seq` was assigned. An error means the mutation
  // is NOT durable — the log failed, closed, or refused the op — and the
  // caller must fail the request rather than acknowledge it.
  virtual util::Status wait_durable(std::uint64_t seq) = 0;

  // The non-blocking wait_durable: runs `done` exactly once with the
  // status wait_durable(seq) would return — after the fsync that covers
  // `seq` (on the log's flusher thread, holding no lock), with the log's
  // error if it fails or closes first, or at once on the caller's thread
  // when nothing needs waiting for (seq already durable, a weak mode, a
  // refused op).
  virtual void on_durable(std::uint64_t seq, DurableCallback done) = 0;
};

// Defers one log's durability waits on the current thread while open:
// that log's wait_durable(seq) records `seq` and returns ok instead of
// blocking, and the opener settles the highest recorded sequence itself
// (on_durable). Only the innermost scope counts, and only for its own
// log — a wait on any other log still blocks, since an in-process
// federation hop can run a peer provider's writes on this same thread.
// A null log opens nothing.
class DeferredDurability {
 public:
  explicit DeferredDurability(const MutationLog* log) : log_(log) {
    if (log_ == nullptr) return;
    outer_ = current();
    current() = this;
  }
  ~DeferredDurability() {
    if (log_ != nullptr) current() = outer_;
  }

  DeferredDurability(const DeferredDurability&) = delete;
  DeferredDurability& operator=(const DeferredDurability&) = delete;

  // Highest sequence a deferred wait recorded; 0 when nothing waited.
  std::uint64_t highest_seq() const { return highest_; }

  // For MutationLog implementations, from wait_durable: true when the
  // calling thread's open scope is bound to `log` — `seq` is then the
  // scope's to settle and the wait must not block.
  static bool defer(const MutationLog* log, std::uint64_t seq) {
    DeferredDurability* scope = current();
    if (scope == nullptr || scope->log_ != log) return false;
    if (seq > scope->highest_) scope->highest_ = seq;
    return true;
  }

 private:
  static DeferredDurability*& current() {
    thread_local DeferredDurability* scope = nullptr;
    return scope;
  }

  const MutationLog* log_;
  DeferredDurability* outer_ = nullptr;
  std::uint64_t highest_ = 0;
};

}  // namespace w5::util
