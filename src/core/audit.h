// Audit log: the provider's tamper-evident record of security decisions.
//
// Every export attempt, declassifier verdict, blocked flow, and
// over-quota kill is recorded here. Entries never contain user data
// bytes — only codes, principals, and label names — so the log itself
// cannot become the leak (§3.5 "Debugging").
//
// Storage (DESIGN.md §10): a ring of byte chunks. record() encodes an
// event once, as a 17-byte header (time, kind, four field lengths)
// followed by its four fields, at the end of the newest chunk; readers
// decode on demand. Three bounds hold at all times:
//   events  at most max_events;
//   bytes   the encoded events take at most kBytesPerEvent × max_events;
//   fields  actor, subject, detail and trace id keep at most kFieldCap
//           bytes each; a longer field keeps its head and ends in
//           kTruncated.
// A record() that would pass a bound evicts the oldest chunk (about
// max_events / 64 events) in O(1), and the evicted chunk's buffer is
// reused for the newest one: a full log records without allocating.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::platform {

enum class AuditKind : std::uint8_t {
  kExportAllowed,
  kExportBlocked,
  kDeclassifierDecision,
  kFlowDenied,
  kQuotaKill,
  kAuthEvent,
  kAppError,
  kAdmin,
};

std::string to_string(AuditKind kind);

struct AuditEvent {
  util::Micros at = 0;
  AuditKind kind = AuditKind::kAdmin;
  std::string actor;   // user or module id
  std::string subject; // tag name, path, or module
  std::string detail;  // machine-ish explanation (error code etc.)
  std::string trace;   // trace id of the request that recorded it ("" if
                       // recorded outside a traced request)
};

class AuditLog {
 public:
  // A field longer than kFieldCap bytes is stored as its first bytes (cut
  // back to a UTF-8 boundary) followed by kTruncated, kFieldCap at most.
  static constexpr std::size_t kFieldCap = 1024;
  static constexpr std::string_view kTruncated = "...[truncated]";
  // The byte budget per event of max_events: 16 MiB at the default.
  static constexpr std::size_t kBytesPerEvent = 128;

  // Construction allocates nothing; the first record() makes the ring.
  explicit AuditLog(const util::Clock& clock,
                    std::size_t max_events = 1 << 17);
  ~AuditLog();

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  // Thread-safe: every request worker records here under one mutex, whose
  // critical section is the append. The readers below decode copies.
  void record(AuditKind kind, std::string_view actor, std::string_view subject,
              std::string_view detail);

  std::vector<AuditEvent> events() const;
  // Tail query: the newest `limit` events recorded at or after
  // `since_micros`, oldest-first. GET /audit uses this so a browse of a
  // long-lived provider's log decodes a page, not the whole log.
  std::vector<AuditEvent> events(std::size_t limit,
                                 util::Micros since_micros) const;
  std::vector<AuditEvent> for_actor(std::string_view actor) const;
  std::size_t size() const;     // events currently retained
  std::size_t bytes() const;    // encoded bytes of the retained events
  std::size_t dropped() const;  // events evicted over the log's lifetime
  // Lifetime total per kind (includes evicted events) — O(1), so /stats
  // stays cheap no matter how large the log has grown.
  std::size_t count(AuditKind kind) const;

  std::size_t byte_budget() const noexcept { return byte_budget_; }
  std::size_t chunk_events() const noexcept { return chunk_events_; }

  // Lifetime failure totals of one actor, kept at record time so
  // /dev-stats answers in O(1) whatever the log holds.
  struct ActorTotals {
    std::size_t errors = 0;           // kAppError
    std::size_t quota_kills = 0;      // kQuotaKill
    std::size_t exports_blocked = 0;  // kExportBlocked
    std::string last_error;           // detail of the newest kAppError
  };
  ActorTotals totals(std::string_view actor) const;

 private:
  static constexpr std::size_t kKindCount = 8;

  struct Chunk {
    // chunk_bytes_ long once allocated. An evicted chunk keeps it, and the
    // newest chunk reuses it when the ring comes round to its slot.
    std::unique_ptr<char[]> bytes;
    std::size_t used = 0;    // bytes of encoded events
    std::size_t events = 0;  // events encoded
    util::Micros last_at = 0;
  };

  // The i-th live chunk, oldest first.
  Chunk& live(std::size_t i) W5_REQUIRES(mutex_) {
    return ring_[(head_ + i) % max_chunks_];
  }
  const Chunk& live(std::size_t i) const W5_REQUIRES(mutex_) {
    return ring_[(head_ + i) % max_chunks_];
  }
  void evict_oldest() W5_REQUIRES(mutex_);
  // Calls visit(encoded event) for the events from logical index `first`
  // (0 = oldest retained) to the newest; stops early when visit returns
  // false. Defined, and only used, in audit.cpp.
  template <typename Visit>
  void scan(std::size_t first, Visit&& visit) const W5_REQUIRES(mutex_);

  const util::Clock& clock_;
  const std::size_t max_events_;
  const std::size_t chunk_events_;  // events per chunk
  const std::size_t chunk_bytes_;   // bytes per chunk
  const std::size_t max_chunks_;    // slots in the ring
  const std::size_t byte_budget_;

  mutable util::Mutex mutex_{util::lockrank::kAuditLog, "AuditLog::mutex_"};
  std::unique_ptr<Chunk[]> ring_ W5_GUARDED_BY(mutex_);
  std::size_t head_ W5_GUARDED_BY(mutex_) = 0;  // slot of the oldest chunk
  std::size_t live_ W5_GUARDED_BY(mutex_) = 0;  // chunks in use
  std::size_t size_ W5_GUARDED_BY(mutex_) = 0;
  std::size_t bytes_ W5_GUARDED_BY(mutex_) = 0;
  std::size_t dropped_ W5_GUARDED_BY(mutex_) = 0;
  std::size_t counts_by_kind_[kKindCount] W5_GUARDED_BY(mutex_) = {};
  // Keyed by the actors of kAppError, kQuotaKill and kExportBlocked:
  // module ids and fixed platform actors (platform/data-read,
  // platform/export, fed/mirror, fed/metasearch), never a string a caller
  // chooses, so the map is bounded by the module registry. kAuthEvent,
  // whose actor is the submitted user name, is not counted.
  std::map<std::string, ActorTotals, std::less<>> totals_
      W5_GUARDED_BY(mutex_);
};

}  // namespace w5::platform
