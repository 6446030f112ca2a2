#include "core/audit.h"

#include <algorithm>
#include <cstring>

#include "core/trace.h"

namespace w5::platform {

std::string to_string(AuditKind kind) {
  switch (kind) {
    case AuditKind::kExportAllowed:
      return "export.allowed";
    case AuditKind::kExportBlocked:
      return "export.blocked";
    case AuditKind::kDeclassifierDecision:
      return "declassifier.decision";
    case AuditKind::kFlowDenied:
      return "flow.denied";
    case AuditKind::kQuotaKill:
      return "quota.kill";
    case AuditKind::kAuthEvent:
      return "auth.event";
    case AuditKind::kAppError:
      return "app.error";
    case AuditKind::kAdmin:
      return "admin";
  }
  return "unknown";
}

namespace {

// An encoded event: the header below, then actor, subject, detail and
// trace id back to back. Chunks are char buffers, so fields are copied
// in and out with memcpy rather than read in place.
//   [0, 8)   at      int64 micros
//   [8]      kind    AuditKind
//   [9, 17)  lengths four uint16 field lengths, each <= kFieldCap
constexpr std::size_t kHeaderBytes = 17;
constexpr std::size_t kFields = 4;
constexpr std::size_t kMaxEventBytes =
    kHeaderBytes + kFields * AuditLog::kFieldCap;
// Chunks per log: the count bound evicts max_events / kChunksPerLog
// events at a time.
constexpr std::size_t kChunksPerLog = 64;

// A field as stored: `head` of the caller's bytes, then kTruncated if cut.
struct Field {
  std::string_view head;
  bool cut = false;
  std::size_t size() const {
    return head.size() + (cut ? AuditLog::kTruncated.size() : 0);
  }
};

Field capped(std::string_view field) {
  if (field.size() <= AuditLog::kFieldCap) return Field{field, false};
  std::size_t keep = AuditLog::kFieldCap - AuditLog::kTruncated.size();
  // Back off over UTF-8 continuation bytes (at most three) so the cut
  // never splits a character.
  for (int i = 0; i < 3 && (static_cast<unsigned char>(field[keep]) & 0xC0) ==
                               0x80;
       ++i)
    --keep;
  return Field{field.substr(0, keep), true};
}

struct Header {
  util::Micros at = 0;
  AuditKind kind = AuditKind::kAdmin;
  std::uint16_t lengths[kFields] = {};

  explicit Header(const char* encoded) {
    std::memcpy(&at, encoded, sizeof at);
    kind = static_cast<AuditKind>(encoded[8]);
    std::memcpy(lengths, encoded + 9, sizeof lengths);
  }
  std::size_t size() const {
    return kHeaderBytes + lengths[0] + lengths[1] + lengths[2] + lengths[3];
  }
  // The i-th field of the event `encoded`, which this header heads.
  std::string_view field(const char* encoded, std::size_t i) const {
    const char* p = encoded + kHeaderBytes;
    for (std::size_t f = 0; f < i; ++f) p += lengths[f];
    return {p, lengths[i]};
  }
};

AuditEvent decode(const char* encoded) {
  const Header header(encoded);
  return AuditEvent{header.at,
                    header.kind,
                    std::string(header.field(encoded, 0)),
                    std::string(header.field(encoded, 1)),
                    std::string(header.field(encoded, 2)),
                    std::string(header.field(encoded, 3))};
}

char* put(char* out, const Field& field) {
  if (!field.head.empty()) {
    std::memcpy(out, field.head.data(), field.head.size());
    out += field.head.size();
  }
  if (field.cut) {
    std::memcpy(out, AuditLog::kTruncated.data(), AuditLog::kTruncated.size());
    out += AuditLog::kTruncated.size();
  }
  return out;
}

}  // namespace

AuditLog::AuditLog(const util::Clock& clock, std::size_t max_events)
    : clock_(clock),
      max_events_(std::max<std::size_t>(max_events, 1)),
      chunk_events_(std::max<std::size_t>(max_events_ / kChunksPerLog, 1)),
      // Every chunk must hold the largest event.
      chunk_bytes_(std::max(kBytesPerEvent * chunk_events_, kMaxEventBytes)),
      // Enough slots for max_events in full chunks plus the one filling.
      max_chunks_((max_events_ + chunk_events_ - 1) / chunk_events_ + 1),
      byte_budget_(std::max(kBytesPerEvent * max_events_, chunk_bytes_)) {}

AuditLog::~AuditLog() = default;

void AuditLog::evict_oldest() {
  Chunk& oldest = live(0);
  size_ -= oldest.events;
  bytes_ -= oldest.used;
  dropped_ += oldest.events;
  oldest.used = 0;
  oldest.events = 0;
  head_ = (head_ + 1) % max_chunks_;
  --live_;
}

void AuditLog::record(AuditKind kind, std::string_view actor,
                      std::string_view subject, std::string_view detail) {
  // Everything but the append happens before the lock: the trace id of
  // the request recording this event (its context outlives this call on
  // this thread), the field caps, the encoded size.
  const RequestContext* context = RequestContext::current();
  const Field fields[kFields] = {
      capped(actor), capped(subject), capped(detail),
      capped(context != nullptr ? std::string_view(context->id())
                                : std::string_view())};
  std::size_t size = kHeaderBytes;
  for (const Field& field : fields) size += field.size();

  const util::MutexLock lock(mutex_);
  if (ring_ == nullptr) ring_ = std::make_unique<Chunk[]>(max_chunks_);
  const bool fits = live_ > 0 && live(live_ - 1).events < chunk_events_ &&
                    live(live_ - 1).used + size <= chunk_bytes_;
  // Evict the oldest chunks while the event would pass a bound. The
  // newest chunk stays when the event goes into it. Each eviction is
  // O(1); one suffices unless large events crowd the byte budget.
  const std::size_t keep = fits ? 1 : 0;
  while (live_ > keep &&
         (size_ + 1 > max_events_ || bytes_ + size > byte_budget_ ||
          (!fits && live_ == max_chunks_)))
    evict_oldest();
  if (!fits) {
    ++live_;
    Chunk& fresh = live(live_ - 1);
    // The slot's buffer survives from the chunk last evicted from it; only
    // a ring still growing allocates.
    if (fresh.bytes == nullptr)
      fresh.bytes = std::make_unique_for_overwrite<char[]>(chunk_bytes_);
  }

  Chunk& chunk = live(live_ - 1);
  const util::Micros at = clock_.now();
  char* out = chunk.bytes.get() + chunk.used;
  std::memcpy(out, &at, sizeof at);
  out[8] = static_cast<char>(kind);
  for (std::size_t i = 0; i < kFields; ++i) {
    const auto length = static_cast<std::uint16_t>(fields[i].size());
    std::memcpy(out + 9 + 2 * i, &length, sizeof length);
  }
  const char* stored_actor = out + kHeaderBytes;
  char* end = out + kHeaderBytes;
  for (const Field& field : fields) end = put(end, field);
  chunk.used += size;
  ++chunk.events;
  chunk.last_at = at;
  ++size_;
  bytes_ += size;
  ++counts_by_kind_[static_cast<std::size_t>(kind) % kKindCount];

  if (kind != AuditKind::kAppError && kind != AuditKind::kQuotaKill &&
      kind != AuditKind::kExportBlocked)
    return;
  const std::string_view key(stored_actor, fields[0].size());
  auto it = totals_.find(key);
  if (it == totals_.end()) it = totals_.emplace(key, ActorTotals{}).first;
  ActorTotals& totals = it->second;
  switch (kind) {
    case AuditKind::kAppError:
      ++totals.errors;
      totals.last_error.assign(Header(out).field(out, 2));
      break;
    case AuditKind::kQuotaKill:
      ++totals.quota_kills;
      break;
    default:
      ++totals.exports_blocked;
      break;
  }
}

template <typename Visit>
void AuditLog::scan(std::size_t first, Visit&& visit) const {
  for (std::size_t c = 0; c < live_; ++c) {
    const Chunk& chunk = live(c);
    if (first >= chunk.events) {
      first -= chunk.events;
      continue;
    }
    const char* p = chunk.bytes.get();
    const char* const end = p + chunk.used;
    for (; first > 0; --first) p += Header(p).size();
    for (; p < end; p += Header(p).size())
      if (!visit(p)) return;
  }
}

std::vector<AuditEvent> AuditLog::events() const {
  const util::MutexLock lock(mutex_);
  std::vector<AuditEvent> out;
  out.reserve(size_);
  scan(0, [&out](const char* event) {
    out.push_back(decode(event));
    return true;
  });
  return out;
}

std::vector<AuditEvent> AuditLog::events(std::size_t limit,
                                         util::Micros since_micros) const {
  const util::MutexLock lock(mutex_);
  // Events are in timestamp order (the time is read under the lock), so
  // the window starts at the first event at or after the cutoff: skip
  // whole chunks that end before it, then walk the one it falls in.
  std::size_t first = 0;
  std::size_t c = 0;
  for (; c < live_ && live(c).last_at < since_micros; ++c)
    first += live(c).events;
  if (c < live_) {
    scan(first, [&](const char* event) {
      if (Header(event).at >= since_micros) return false;
      ++first;
      return true;
    });
  }
  // Newest n of the window, returned oldest-first.
  const std::size_t n = std::min(limit, size_ - first);
  std::vector<AuditEvent> out;
  out.reserve(n);
  scan(size_ - n, [&out](const char* event) {
    out.push_back(decode(event));
    return true;
  });
  return out;
}

std::vector<AuditEvent> AuditLog::for_actor(std::string_view actor) const {
  const util::MutexLock lock(mutex_);
  std::vector<AuditEvent> out;
  scan(0, [&](const char* event) {
    if (Header(event).field(event, 0) == actor) out.push_back(decode(event));
    return true;
  });
  return out;
}

std::size_t AuditLog::size() const {
  const util::MutexLock lock(mutex_);
  return size_;
}

std::size_t AuditLog::bytes() const {
  const util::MutexLock lock(mutex_);
  return bytes_;
}

std::size_t AuditLog::dropped() const {
  const util::MutexLock lock(mutex_);
  return dropped_;
}

std::size_t AuditLog::count(AuditKind kind) const {
  const util::MutexLock lock(mutex_);
  return counts_by_kind_[static_cast<std::size_t>(kind) % kKindCount];
}

AuditLog::ActorTotals AuditLog::totals(std::string_view actor) const {
  const util::MutexLock lock(mutex_);
  const auto it = totals_.find(actor);
  return it != totals_.end() ? it->second : ActorTotals{};
}

}  // namespace w5::platform
