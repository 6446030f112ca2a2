#include "core/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "net/http.h"
#include "net/tracing.h"
#include "util/log.h"
#include "util/strings.h"

namespace w5::platform {

namespace {

thread_local RequestContext* t_current = nullptr;

// 12 hex chars: short enough that libstdc++/libc++ SSO holds every copy
// of the id (context, thread-local, response header, audit stamp) without
// touching the heap.
std::string to_hex12(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(12, '0');
  for (int i = 11; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// TSC → micros calibration, measured once at first use (~1ms spin).
// epoch_micros is on the steady-clock epoch — the same one WallClock
// reports — so trace timestamps line up with WallClock audit times.
struct TscCalibration {
  std::uint64_t epoch_cycles = 0;
  util::Micros epoch_micros = 0;
  double micros_per_cycle = 0.0;
};

const TscCalibration& tsc_calibration() {
  static const TscCalibration cal = [] {
    using namespace std::chrono;
    TscCalibration c;
    const auto t0 = steady_clock::now();
    c.epoch_cycles = util::cycle_count();
    while (steady_clock::now() - t0 < microseconds(1000)) {
    }
    const std::uint64_t end_cycles = util::cycle_count();
    const auto t1 = steady_clock::now();
    c.epoch_micros =
        duration_cast<microseconds>(t0.time_since_epoch()).count();
    if (end_cycles > c.epoch_cycles) {
      c.micros_per_cycle =
          static_cast<double>(duration_cast<nanoseconds>(t1 - t0).count()) /
          1000.0 / static_cast<double>(end_cycles - c.epoch_cycles);
    }
    return c;
  }();
  return cal;
}

util::Micros cycles_to_micros(std::uint64_t cycles,
                              const TscCalibration& cal) {
  return cal.epoch_micros +
         static_cast<util::Micros>(
             static_cast<double>(cycles - cal.epoch_cycles) *
             cal.micros_per_cycle);
}

}  // namespace

std::string next_trace_id() {
  // Per-process salt so ids differ across restarts; the counter keeps
  // them unique within the process, the SplitMix64 finalizer keeps them
  // non-enumerable.
  static const std::uint64_t salt = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x =
      salt + 0x9e3779b97f4a7c15ULL *
                 (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return to_hex12(x >> 16);  // top 48 bits of the mixed value
}

util::Json Trace::to_json() const {
  util::Json out;
  out["id"] = id;
  out["route"] = std::string(route);
  out["status"] = status;
  out["started_micros"] = started;
  out["duration_micros"] = duration;
  out["sampled"] = sampled;
  if (!parent_span.empty()) out["parent_span"] = parent_span;
  util::Json items = util::Json::array();
  for (const TraceSpan& span : spans) {
    util::Json entry;
    entry["name"] = span.name;
    entry["start_micros"] = span.start;
    entry["duration_micros"] = span.duration;
    entry["span_id"] = static_cast<std::int64_t>(span.id);
    entry["parent"] = static_cast<std::int64_t>(span.parent);
    if (!span.note.empty()) entry["note"] = span.note;
    if (!span.remote.empty()) entry["remote"] = span.remote;
    items.push_back(std::move(entry));
  }
  out["spans"] = std::move(items);
  return out;
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slot_mutexes_(capacity_),
      ring_(capacity_) {
  // vector-of-Mutex is sized, not emplaced, so ranks arrive post-hoc —
  // before the buffer is shared, which is all set_rank() requires.
  for (auto& mu : slot_mutexes_)
    mu.set_rank(util::lockrank::kTraceSlot, "TraceBuffer::slot_mutexes_");
}

void TraceBuffer::record(Trace trace) {
  if (trace.id.empty()) return;
  // The fetch_add both counts the trace and claims its slot, so eviction
  // stays strictly FIFO and concurrent writers only contend when they
  // land on the same slot (capacity_ requests apart).
  const std::uint64_t seq =
      recorded_total_.fetch_add(1, std::memory_order_relaxed);
  const auto slot = static_cast<std::size_t>(seq % capacity_);
  {
    const util::MutexLock lock(slot_mutexes_[slot]);
    // Swap, don't assign: the evicted trace's strings and span vector
    // are then freed below, after the lock is released.
    std::swap(ring_[slot], trace);
  }
  // `trace` now holds the evicted entry: remember its id (so /trace/:id
  // can answer 204 rather than 404) and count its lost spans.
  if (trace.id.empty()) return;
  if (!trace.spans.empty())
    dropped_spans_.fetch_add(trace.spans.size(), std::memory_order_relaxed);
  {
    const util::MutexLock lock(evicted_mutex_);
    if (evicted_ids_.size() < kEvictedIds) {
      evicted_ids_.push_back(std::move(trace.id));
    } else {
      evicted_ids_[evicted_next_] = std::move(trace.id);
      evicted_next_ = (evicted_next_ + 1) % kEvictedIds;
    }
  }
}

std::optional<Trace> TraceBuffer::find(const std::string& id) const {
  if (id.empty()) return std::nullopt;  // never match an unused slot
  const std::uint64_t total =
      recorded_total_.load(std::memory_order_relaxed);
  const auto held =
      static_cast<std::size_t>(std::min<std::uint64_t>(total, capacity_));
  // Newest-first scan, one slot lock at a time.
  for (std::size_t i = 0; i < held; ++i) {
    const auto slot = static_cast<std::size_t>((total - 1 - i) % capacity_);
    const util::MutexLock lock(slot_mutexes_[slot]);
    if (ring_[slot].id == id) return ring_[slot];
  }
  return std::nullopt;
}

TraceBuffer::Lookup TraceBuffer::lookup(const std::string& id,
                                        Trace* out) const {
  if (auto found = find(id)) {
    if (out != nullptr) *out = std::move(*found);
    return Lookup::kFound;
  }
  const util::MutexLock lock(evicted_mutex_);
  for (const std::string& evicted : evicted_ids_)
    if (evicted == id) return Lookup::kEvicted;
  return Lookup::kUnknown;
}

template <typename Edit>
bool TraceBuffer::edit_resident(const std::string& id, Edit&& edit) {
  if (id.empty()) return false;  // never match an unused slot
  const std::uint64_t total =
      recorded_total_.load(std::memory_order_relaxed);
  const auto held =
      static_cast<std::size_t>(std::min<std::uint64_t>(total, capacity_));
  for (std::size_t i = 0; i < held; ++i) {
    const auto slot = static_cast<std::size_t>((total - 1 - i) % capacity_);
    const util::MutexLock lock(slot_mutexes_[slot]);
    if (ring_[slot].id != id) continue;
    edit(ring_[slot]);
    return true;
  }
  return false;
}

bool TraceBuffer::append_spans(const std::string& id,
                               std::vector<TraceSpan> spans) {
  if (spans.empty()) return false;
  bool sampled = false;
  const bool resident = edit_resident(id, [&](Trace& trace) {
    // Unsampled traces intentionally carry no spans; late stage spans
    // for them are suppressed, not "lost" — the dropped counter stays
    // a slot-exhaustion signal.
    sampled = trace.sampled;
    if (!sampled) return;
    std::size_t appended = 0;
    for (TraceSpan& span : spans) {
      if (trace.spans.size() >= kMaxSpansPerTrace) break;
      trace.spans.push_back(std::move(span));
      ++appended;
    }
    if (appended < spans.size())
      dropped_spans_.fetch_add(spans.size() - appended,
                               std::memory_order_relaxed);
  });
  if (resident) return sampled;
  // The trace aged out (or was never recorded) before the late spans
  // arrived — they are lost to slot exhaustion.
  dropped_spans_.fetch_add(spans.size(), std::memory_order_relaxed);
  return false;
}

bool TraceBuffer::set_status(const std::string& id, int status) {
  return edit_resident(id, [&](Trace& trace) { trace.status = status; });
}

std::uint64_t TraceBuffer::dropped() const {
  return dropped_spans_.load(std::memory_order_relaxed);
}

std::size_t TraceBuffer::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(recorded(), capacity_));
}

std::uint64_t TraceBuffer::recorded() const {
  return recorded_total_.load(std::memory_order_relaxed);
}

RequestContext::RequestContext(std::string_view inherited_id,
                               Sampling sampling) {
#ifndef W5_NO_TELEMETRY
  // Per-thread sampling counter: same 1-in-N rate overall, no shared
  // cache line on the request path.
  thread_local std::uint64_t sample_counter = 0;
  if (net::valid_trace_token(inherited_id)) {
    trace_.id = std::string(inherited_id);
    inherited_ = true;
    spans_enabled_ = true;  // the caller asked for this trace by id
  } else {
    trace_.id = next_trace_id();
    spans_enabled_ = sample_counter++ % kSpanSampleEvery == 0;
  }
  // An explicit X-W5-Sampled overrides either default: an upstream that
  // chose not to sample propagates that choice down the whole chain.
  if (sampling == Sampling::kOn) spans_enabled_ = true;
  if (sampling == Sampling::kOff) spans_enabled_ = false;
  start_cycles_ = util::cycle_count();
  if (spans_enabled_)
    trace_.spans.reserve(8);  // one allocation up front, not one per span
  previous_ = t_current;
  t_current = this;
  installed_ = true;
  util::set_thread_trace_ref(&trace_.id);  // for the structured log sink
#else
  (void)inherited_id;
  (void)sampling;
#endif
}

namespace {

RequestContext::Sampling sampling_of(const net::Headers& headers) {
  const auto sampled = headers.get(net::kSampledHeader);
  if (sampled == "0") return RequestContext::Sampling::kOff;
  if (sampled == "1") return RequestContext::Sampling::kOn;
  return RequestContext::Sampling::kInherit;
}

}  // namespace

RequestContext::RequestContext(const net::Headers& headers)
    : RequestContext(headers.get(net::kTraceHeader).value_or(std::string()),
                     sampling_of(headers)) {
  if (const auto parent = headers.get(net::kParentHeader);
      parent && util::parse_u64(*parent))
    set_parent_span(*parent);
}

RequestContext::~RequestContext() {
  if (installed_ && t_current == this) {
    t_current = previous_;
    util::set_thread_trace_ref(previous_ != nullptr ? &previous_->trace_.id
                                                    : nullptr);
  }
}

void RequestContext::set_route(std::string_view stable_route) {
  if (!installed_) return;
  trace_.route = stable_route;
}

void RequestContext::set_status(int status) {
  if (!installed_) return;
  trace_.status = status;
}

void RequestContext::set_parent_span(std::string parent) {
  if (!installed_) return;
  trace_.parent_span = std::move(parent);
}

void RequestContext::add_span(std::string_view name,
                              std::uint64_t start_cycles,
                              std::uint64_t duration_cycles,
                              std::string note, std::uint32_t span_id,
                              std::uint32_t parent) {
  if (!installed_ || !spans_enabled_) return;
  // Bounded: a pathological request (deep module composition, huge
  // query fan-out) must not grow a trace without limit.
  if (trace_.spans.size() >= kMaxSpans) return;
  // start/duration hold raw cycle values until finish() rescales them.
  trace_.spans.push_back(TraceSpan{std::string(name),
                                   static_cast<util::Micros>(start_cycles),
                                   static_cast<util::Micros>(duration_cycles),
                                   std::move(note), span_id, parent,
                                   /*remote=*/{}});
}

void RequestContext::add_remote_spans(std::vector<TraceSpan> spans,
                                      std::uint64_t hop_start_cycles) {
  if (!installed_ || !spans_enabled_) return;
  const std::uint32_t attach_parent = current_parent_;
  // Remap the peer's span ids into this request's ordinal space; remote
  // roots (parent 0, or a parent the wire never defined) hang under the
  // hop span that made the call.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> id_map;
  id_map.reserve(spans.size());
  for (TraceSpan& span : spans) {
    const std::uint32_t fresh = open_span();
    if (span.id != 0) id_map.emplace_back(span.id, fresh);
    span.id = fresh;
  }
  for (TraceSpan& span : spans) {
    std::uint32_t mapped = attach_parent;
    for (const auto& [old_id, new_id] : id_map)
      if (span.parent != 0 && span.parent == old_id) {
        mapped = new_id;
        break;
      }
    span.parent = mapped;
    if (remote_spans_.size() >= kMaxSpans) break;
    remote_spans_.push_back(RemoteSpan{std::move(span), hop_start_cycles});
  }
}

Trace RequestContext::finish() {
  if (installed_) {
    const std::uint64_t end_cycles = util::cycle_count();
    const TscCalibration& cal = tsc_calibration();
    trace_.started = cycles_to_micros(start_cycles_, cal);
    trace_.duration =
        static_cast<util::Micros>(
            static_cast<double>(end_cycles - start_cycles_) *
            cal.micros_per_cycle);
    trace_.sampled = spans_enabled_;
    for (TraceSpan& span : trace_.spans) {
      span.start = cycles_to_micros(
          static_cast<std::uint64_t>(span.start), cal);
      span.duration = static_cast<util::Micros>(
          static_cast<double>(span.duration) * cal.micros_per_cycle);
    }
    // Remote spans already carry micros; rebase their offsets onto the
    // absolute start of the hop that fetched them. (The remote clock
    // starts a network hop later than ours — the skew is one-way latency,
    // small against the millisecond scale the tree is read at.)
    for (RemoteSpan& remote : remote_spans_) {
      TraceSpan span = std::move(remote.span);
      span.start += cycles_to_micros(remote.hop_start_cycles, cal);
      trace_.spans.push_back(std::move(span));
    }
    remote_spans_.clear();
  }
  return std::move(trace_);
}

Trace RequestContext::finish(net::HttpResponse& response) {
  set_status(response.status);
  if (!id().empty())
    response.headers.set(std::string(net::kTraceHeader), id());
  Trace trace = finish();
  if (inherited_ && trace.sampled) {
    std::string wire = encode_spans_for_wire(trace);
    if (!wire.empty())
      response.headers.set(std::string(net::kSpansHeader), std::move(wire));
  }
  return trace;
}

void RequestContext::set_deadline(util::Micros absolute_micros) {
  if (!installed_) return;
  deadline_ = absolute_micros;
}

util::Micros RequestContext::current_deadline() {
  return t_current != nullptr ? t_current->deadline_ : 0;
}

util::Micros RequestContext::remaining_micros() {
  const util::Micros deadline = current_deadline();
  if (deadline == 0) return std::numeric_limits<util::Micros>::max();
  static const util::WallClock wall;
  return deadline - wall.now();
}

bool RequestContext::deadline_expired() {
  const util::Micros deadline = current_deadline();
  if (deadline == 0) return false;
  static const util::WallClock wall;
  return wall.now() >= deadline;
}

RequestContext* RequestContext::current() noexcept { return t_current; }

std::string RequestContext::current_id() {
  return t_current != nullptr ? t_current->id() : std::string{};
}

ScopedSpan::ScopedSpan(std::string_view name)
    : context_(RequestContext::current()), name_(name) {
  if (context_ != nullptr && !context_->spans_enabled()) context_ = nullptr;
  if (context_ != nullptr) {
    start_cycles_ = util::cycle_count();
    // Ids are handed out at open so this span's id exists before its
    // children record theirs (children destruct — and record — first).
    span_id_ = context_->open_span();
    parent_ = context_->current_parent();
    context_->set_current_parent(span_id_);
  }
}

ScopedSpan::ScopedSpan(std::string_view name, const std::string& note)
    : ScopedSpan(name) {
  if (context_ != nullptr) note_ = note;
}

ScopedSpan::~ScopedSpan() {
  if (context_ == nullptr) return;
  context_->set_current_parent(parent_);
  context_->add_span(name_, start_cycles_,
                     util::cycle_count() - start_cycles_, std::move(note_),
                     span_id_, parent_);
}

std::string sanitize_telemetry_token(std::string_view in,
                                     std::size_t max_len) {
  std::string out;
  out.reserve(std::min(in.size(), max_len));
  for (const char c : in) {
    if (out.size() >= max_len) break;
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || c == '.' || c == '_' ||
                    c == '/' || c == '=' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out;
}

namespace {

constexpr std::size_t kWireMaxSpans = 32;
constexpr std::size_t kWireMaxBytes = 4000;  // inside ParserLimits lines

// Parses a non-negative decimal; false on empty/overflow/junk.
bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

std::string encode_spans_for_wire(const Trace& trace) {
  if (!trace.sampled || trace.spans.empty()) return {};
  std::string out;
  std::size_t emitted = 0;
  for (const TraceSpan& span : trace.spans) {
    if (emitted >= kWireMaxSpans) break;
    std::string entry;
    const util::Micros offset =
        span.start > trace.started ? span.start - trace.started : 0;
    entry += std::to_string(span.id);
    entry += ';';
    entry += std::to_string(span.parent);
    entry += ';';
    entry += std::to_string(offset);
    entry += ';';
    entry += std::to_string(span.duration < 0 ? 0 : span.duration);
    entry += ';';
    entry += sanitize_telemetry_token(span.name, 48);
    entry += ';';
    entry += sanitize_telemetry_token(span.note, 80);
    entry += ';';
    entry += sanitize_telemetry_token(span.remote, 48);
    if (out.size() + entry.size() + 1 > kWireMaxBytes) break;
    if (!out.empty()) out += '|';
    out += entry;
    ++emitted;
  }
  return out;
}

std::vector<TraceSpan> decode_remote_spans(std::string_view wire,
                                           std::string_view peer) {
  std::vector<TraceSpan> spans;
  if (wire.empty() || wire.size() > kWireMaxBytes) return spans;
  std::size_t pos = 0;
  while (pos <= wire.size() && spans.size() < kWireMaxSpans) {
    const std::size_t bar = wire.find('|', pos);
    const std::string_view entry =
        wire.substr(pos, bar == std::string_view::npos ? bar : bar - pos);
    pos = bar == std::string_view::npos ? wire.size() + 1 : bar + 1;
    // Split on ';' into exactly 7 fields; skip malformed entries.
    std::string_view fields[7];
    std::size_t count = 0;
    std::size_t field_pos = 0;
    while (count < 7) {
      const std::size_t semi = entry.find(';', field_pos);
      if (semi == std::string_view::npos) {
        fields[count++] = entry.substr(field_pos);
        break;
      }
      fields[count++] = entry.substr(field_pos, semi - field_pos);
      field_pos = semi + 1;
    }
    if (count != 7) continue;
    std::uint64_t id = 0, parent = 0, offset = 0, duration = 0;
    if (!parse_u64(fields[0], &id) || !parse_u64(fields[1], &parent) ||
        !parse_u64(fields[2], &offset) || !parse_u64(fields[3], &duration))
      continue;
    if (id == 0 || id > 0xFFFFFFFFULL || parent > 0xFFFFFFFFULL) continue;
    TraceSpan span;
    span.id = static_cast<std::uint32_t>(id);
    span.parent = static_cast<std::uint32_t>(parent);
    span.start = static_cast<util::Micros>(offset);  // offset until rebased
    span.duration = static_cast<util::Micros>(duration);
    span.name = sanitize_telemetry_token(fields[4], 48);
    span.note = sanitize_telemetry_token(fields[5], 80);
    // remote: the peer-reported origin for multi-hop chains, else the
    // direct peer — always re-sanitized, never trusted bytes.
    span.remote = fields[6].empty() ? sanitize_telemetry_token(peer, 48)
                                    : sanitize_telemetry_token(fields[6], 48);
    if (span.name.empty()) continue;
    spans.push_back(std::move(span));
  }
  return spans;
}

}  // namespace w5::platform
