// Cross-hop trace header plumbing for the net layer (DESIGN.md §16).
//
// The layering DAG forbids net/ → core/, but outbound requests made by
// net::HttpClient must carry the active request's trace context
// (X-W5-Trace / X-W5-Parent / X-W5-Sampled) and the serving paths must
// echo a validated inbound id on early-exit responses the handler never
// sees (408/413/431/503). The seam is a process-global provider hook:
// core installs a snapshot function over its thread-local RequestContext;
// net only knows the header names and the id *shape*.
//
// §3.5: only token-shaped values ([0-9a-zA-Z_-]{1,64}) ever cross here —
// an arbitrary client header can never ride telemetry channels.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace w5::net {

// Wire header names, shared by both serving paths, the client, and core.
inline constexpr std::string_view kTraceHeader = "X-W5-Trace";
inline constexpr std::string_view kParentHeader = "X-W5-Parent";
inline constexpr std::string_view kSampledHeader = "X-W5-Sampled";
inline constexpr std::string_view kSpansHeader = "X-W5-Spans";

// True when `token` is shaped like a trace id ([0-9a-zA-Z_-]{1,64}): the
// one shape check for inbound and outbound trace ids, core's
// RequestContext included.
bool valid_trace_token(std::string_view token);

// Snapshot of the calling thread's active trace context.
struct TraceHeaders {
  std::string trace_id;     // empty = no active context
  std::string parent_span;  // decimal span ordinal, empty = request root
  bool sampled = false;
};

// Installed once by core at provider startup; called by HttpClient on
// every outbound request that does not already carry X-W5-Trace. Returns
// false (or is unset) when there is no active context — the request goes
// out unstamped and the callee traces independently.
using TraceProvider = std::function<bool(TraceHeaders*)>;
void set_outbound_trace_provider(TraceProvider provider);

// Fills `out` from the installed provider; false when none is installed
// or no context is active.
bool outbound_trace_headers(TraceHeaders* out);

class Headers;
struct HttpResponse;

// Echoes a validated inbound X-W5-Trace id onto an early-exit response
// (408/413/431/503) the handler never sees, so a traced caller can still
// correlate the failure with its trace. Invalid or absent ids stamp
// nothing — the shape check keeps arbitrary client bytes out of the
// response header (§3.5). Both serving paths share this helper, which is
// what keeps their early-exit behavior identical.
void stamp_trace_echo(HttpResponse& response, const Headers& request_headers);

}  // namespace w5::net
