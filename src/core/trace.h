// Request tracing: per-request trace ids, named spans, and a bounded ring
// of recent traces (DESIGN.md §11).
//
// The gateway opens a RequestContext per request; it installs itself as
// the thread's current context so any code on the request path can record
// a span without plumbing a handle through every signature (the same
// trick lets AuditLog stamp events with the live trace id, so audit
// entries and traces cross-reference). The id is echoed to the client in
// an X-W5-Trace response header and resolvable at GET /trace/:id.
//
// §3.5 inheritance: spans carry *names* (route patterns, "flow-check",
// "store.get"), tag/module names, and codes — never request or record
// bytes. A client-supplied X-W5-Trace value is accepted only when it
// looks like a trace id (short, [0-9a-zA-Z_-]), so the header cannot be
// used to smuggle arbitrary bytes into telemetry output.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/thread_annotations.h"
#include "util/json.h"
#include "util/lock_ranks.h"

namespace w5::net {
class Headers;
struct HttpResponse;
}  // namespace w5::net

namespace w5::platform {

struct TraceSpan {
  // Span names come from the fixed taxonomy (DESIGN.md §16) — short
  // enough for SSO. A std::string (not a view) because remote spans
  // stitched from an X-W5-Spans header are parsed off the wire and own
  // their bytes; only span-sampled requests pay the copy.
  std::string name;
  util::Micros start = 0;     // absolute steady-clock micros
  util::Micros duration = 0;
  std::string note;           // codes / module ids / tag names only
  // Tree structure: ids are per-request ordinals assigned at span open;
  // parent 0 = direct child of the request root.
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  // Peer name for spans stitched from another provider ("" = local).
  // Names only, never request bytes (§3.5) — sanitized at decode.
  std::string remote;
};

struct Trace {
  std::string id;
  // Matched route *pattern*, not the raw target. A view, not a copy: the
  // gateway points it at the router's stored pattern text (stable for the
  // provider's lifetime), so recording a trace never allocates for the
  // route. Anything else passed to set_route must outlive the buffer.
  std::string_view route;
  int status = 0;
  util::Micros started = 0;
  util::Micros duration = 0;
  // True when detailed spans were recorded for this request (head-sampled
  // or explicitly requested by id) — the gate for X-W5-Spans export and
  // post-hoc reactor stage-span attachment.
  bool sampled = false;
  // Upstream span id from an inbound X-W5-Parent header, "" when this
  // request is a trace root. Digits only (validated at the perimeter).
  std::string parent_span;
  std::vector<TraceSpan> spans;

  util::Json to_json() const;
};

// Bounded ring of completed traces; the newest kDefaultCapacity requests
// are resolvable, older ones age out. One per Provider.
//
// Recording is on every request's tail, so there is no global lock:
// a writer claims its slot with one atomic fetch_add (FIFO eviction by
// construction) and takes only that slot's mutex for the swap. Writers
// on different slots never contend; /trace/:id lookups walk the slots
// one lock at a time.
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

  void record(Trace trace);
  std::optional<Trace> find(const std::string& id) const;

  // /trace/:id needs to tell "never saw this id" (404) from "saw it, the
  // ring has since evicted it" (204); evicted ids are remembered in a
  // bounded secondary ring (ids only — 12 bytes each, no spans).
  enum class Lookup : std::uint8_t { kFound, kEvicted, kUnknown };
  Lookup lookup(const std::string& id, Trace* out) const;

  // Appends spans to an already-recorded trace in place (the reactor
  // attaches stage spans after the gateway has recorded the trace).
  // False when the id is no longer resident; overflow beyond the
  // per-trace span cap counts into dropped().
  bool append_spans(const std::string& id, std::vector<TraceSpan> spans);

  // Replaces a recorded trace's status: a parked durable write whose
  // fsync fails is answered 503 after the gateway recorded its trace.
  // False when the id is no longer resident.
  bool set_status(const std::string& id, int status);

  std::size_t size() const;        // traces currently held
  std::uint64_t recorded() const;  // lifetime total
  // Spans lost to ring slot exhaustion (sampled traces evicted with their
  // spans) or to the per-trace span cap — w5_trace_dropped_total.
  std::uint64_t dropped() const;

 private:
  static constexpr std::size_t kEvictedIds = 1024;
  static constexpr std::size_t kMaxSpansPerTrace = 128;

  // Runs edit(trace) under the slot lock of the resident trace `id`,
  // newest first; false when no resident trace has that id.
  template <typename Edit>
  bool edit_resident(const std::string& id, Edit&& edit);

  std::size_t capacity_;
  std::atomic<std::uint64_t> recorded_total_{0};
  std::atomic<std::uint64_t> dropped_spans_{0};
  // Dynamic per-slot locks: the analysis cannot name a runtime-indexed
  // capability, so ring_ has no W5_GUARDED_BY; record()/find() still take
  // the slot lock through util::MutexLock so clang sees the acquisition.
  mutable std::vector<util::Mutex> slot_mutexes_;  // one per ring slot
  std::vector<Trace> ring_;                       // pre-sized; empty id = unused
  mutable util::Mutex evicted_mutex_{util::lockrank::kTraceEvicted,
                                      "TraceBuffer::evicted_mutex_"};
  std::vector<std::string> evicted_ids_ W5_GUARDED_BY(evicted_mutex_);
  std::size_t evicted_next_ W5_GUARDED_BY(evicted_mutex_) = 0;
};

// The per-request context. Construction installs it as the thread-local
// current context (saving any enclosing one — nested dispatch, e.g. a
// federation pull hitting a second provider on the same thread, traces
// independently); destruction restores. With W5_NO_TELEMETRY the
// constructor is a no-op: no id, no header, no spans.
class RequestContext {
 public:
  static constexpr std::size_t kMaxSpans = 64;
  // Head sampling (the Dapper recipe): every request gets an id, the
  // header echo, the audit stamp, and a shallow ring entry (route,
  // status, duration) — detailed spans are recorded only for 1-in-N
  // requests, or always when the caller forwarded a valid X-W5-Trace id
  // (explicitly asking for this request to be traced).
  static constexpr std::uint64_t kSpanSampleEvery = 16;

  // Sampling override carried by the X-W5-Sampled request header:
  // kInherit keeps the default policy (valid inherited id → spans on,
  // else 1-in-N); kOff suppresses spans even for an inherited id (an
  // upstream that decided not to sample propagates that decision); kOn
  // forces spans on.
  enum class Sampling : std::uint8_t { kInherit, kOn, kOff };

  // inherited_id: a token-shaped upstream trace id continues that trace
  // (federation peers forward X-W5-Trace); empty or invalid mints fresh.
  //
  // Trace timing is TSC-based (util::cycle_count + a once-calibrated
  // frequency), not Clock-based: the whole context costs two TSC reads
  // instead of virtual clock calls, and timestamps stay on the steady
  // epoch WallClock uses. Under SimClock providers, traces show real
  // elapsed time while audit shows sim time — traces are diagnostics,
  // so wall time is the more useful of the two.
  explicit RequestContext(std::string_view inherited_id = {},
                          Sampling sampling = Sampling::kInherit);
  // The perimeter's constructor (the gateway and the federation
  // endpoints): joins the trace an inbound request names. X-W5-Trace is
  // the inherited id, X-W5-Sampled ("0" or "1") the upstream sampling
  // decision, and a numeric X-W5-Parent the upstream span this request
  // hangs under.
  explicit RequestContext(const net::Headers& headers);
  ~RequestContext();

  RequestContext(const RequestContext&) = delete;
  RequestContext& operator=(const RequestContext&) = delete;

  const std::string& id() const noexcept { return trace_.id; }
  bool spans_enabled() const noexcept { return spans_enabled_; }
  // True when the id was inherited from a validated inbound X-W5-Trace —
  // the caller is part of a larger trace, so the response should carry
  // the span dump (X-W5-Spans) back for stitching.
  bool inherited() const noexcept { return inherited_; }

  // ---- Span tree bookkeeping (DESIGN.md §16) -----------------------------
  // Span ids are per-request ordinals handed out at span *open* so a
  // parent's id exists before its children record (children destruct
  // first). 0 is the request root.
  std::uint32_t open_span() noexcept { return ++next_span_id_; }
  std::uint32_t current_parent() const noexcept { return current_parent_; }
  void set_current_parent(std::uint32_t id) noexcept {
    current_parent_ = id;
  }

  // Upstream span id from an inbound X-W5-Parent header (digits only).
  void set_parent_span(std::string parent);

  // `stable_route` must outlive the TraceBuffer (the gateway passes the
  // router's stored pattern text); the trace keeps a view, not a copy.
  void set_route(std::string_view stable_route);
  void set_status(int status);

  // ---- Deadline propagation (DESIGN.md §12) ------------------------------
  // The per-request time budget rides the same thread-local plumbing as
  // the trace id: the gateway stamps an absolute wall-clock deadline at
  // admission (provider default, tightened by a client X-W5-Deadline-Ms),
  // and anything downstream — app dispatch, store scans, nested
  // federation pulls — can ask "is it still worth doing this work?"
  // without a handle threaded through every signature. Compiled out with
  // W5_NO_TELEMETRY, like the rest of the context.
  void set_deadline(util::Micros absolute_micros);
  util::Micros deadline() const noexcept { return deadline_; }  // 0 = none

  // Thread's active request's deadline (0 when none / no context).
  static util::Micros current_deadline();
  // Remaining budget against the wall clock; INT64_MAX when no deadline.
  static util::Micros remaining_micros();
  static bool deadline_expired();
  // Span timestamps are raw util::cycle_count() values; finish() rescales
  // them to absolute micros using the request's two bracketing clock
  // reads, so the per-span cost is two TSC reads instead of two clock
  // syscalls.
  void add_span(std::string_view name, std::uint64_t start_cycles,
                std::uint64_t duration_cycles, std::string note,
                std::uint32_t span_id = 0, std::uint32_t parent = 0);

  // Grafts spans decoded from a peer's X-W5-Spans header under the
  // current parent span. `spans` carry start as *offset micros from the
  // remote request start*; finish() rebases them onto the absolute time
  // of `hop_start_cycles` (captured just before the outbound call).
  // Remote span ids are remapped into this request's ordinal space.
  void add_remote_spans(std::vector<TraceSpan> spans,
                        std::uint64_t hop_start_cycles);

  // Stamps the total duration and surrenders the trace for the buffer.
  Trace finish();
  // The perimeter's finish: records the response status, echoes the id in
  // X-W5-Trace, and hands a caller that forwarded its trace id this
  // request's sampled span dump in X-W5-Spans, offsets relative to our
  // request start, for it to stitch. A trace root has nobody to stitch
  // into.
  Trace finish(net::HttpResponse& response);

  static RequestContext* current() noexcept;
  // Trace id of the thread's active request, "" when none — safe to call
  // from anywhere on the request path (AuditLog uses this).
  static std::string current_id();

 private:
  // A remote batch holds already-rescaled micros (offsets from the remote
  // request start) plus the local TSC read bracketing the hop; finish()
  // rebases offsets onto the hop's absolute start.
  struct RemoteSpan {
    TraceSpan span;
    std::uint64_t hop_start_cycles;
  };

  Trace trace_;
  std::uint64_t start_cycles_ = 0;
  util::Micros deadline_ = 0;  // absolute wall micros; 0 = none
  RequestContext* previous_ = nullptr;
  bool installed_ = false;
  bool spans_enabled_ = false;
  bool inherited_ = false;
  std::uint32_t next_span_id_ = 0;
  std::uint32_t current_parent_ = 0;
  std::vector<RemoteSpan> remote_spans_;
};

// RAII span against the thread's current RequestContext; no-op when there
// is none (direct component calls from tests, or telemetry compiled out).
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  // The note is copied only when this request is span-sampled, so the
  // unsampled hot path never constructs a string for it.
  ScopedSpan(std::string_view name, const std::string& note);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_note(std::string note) { note_ = std::move(note); }

 private:
  RequestContext* context_;
  std::string_view name_;  // always a string literal from the taxonomy
  std::string note_;
  std::uint64_t start_cycles_ = 0;
  std::uint32_t span_id_ = 0;
  std::uint32_t parent_ = 0;
};

// Fresh process-unique trace id: 12 hex chars (48 mixed bits — short
// enough for SSO so id copies never allocate, mixed rather than
// sequential so ids are not enumerable through GET /trace/:id). An
// inherited id must pass net::valid_trace_token.
std::string next_trace_id();

// ---- Cross-hop span wire format (DESIGN.md §16) ----------------------------
// X-W5-Spans response header: spans joined by '|', fields by ';':
//   id;parent;start_offset_micros;duration_micros;name;note;remote
// start offsets are relative to the remote request start. Name, note, and
// remote pass the telemetry charset filter ([0-9a-zA-Z._/=-], other bytes
// become '_') in both directions, so the header can never carry user data
// bytes (§3.5). Capped at 32 spans / ~4 KB to stay inside header limits.

// Renders a finished trace's spans for the response header ("" when the
// trace was not span-sampled).
std::string encode_spans_for_wire(const Trace& trace);

// Parses a peer's X-W5-Spans header into spans ready for
// RequestContext::add_remote_spans: start = offset micros, remote = the
// wire value when present else `peer`, everything sanitized. Malformed
// entries are skipped, never trusted.
std::vector<TraceSpan> decode_remote_spans(std::string_view wire,
                                           std::string_view peer);

// The telemetry charset filter used by the wire codec: copies `in`
// replacing every byte outside [0-9a-zA-Z._/=-] with '_', truncated to
// `max_len`. Exposed for tests and for other name-carrying surfaces.
std::string sanitize_telemetry_token(std::string_view in,
                                     std::size_t max_len = 80);

}  // namespace w5::platform
