// Cross-hop distributed tracing and the flight-recorder debug plane
// (DESIGN.md §16): the X-W5-Spans wire codec, span-tree ordinals,
// TraceBuffer eviction/204 semantics, Prometheus label escaping and
// exemplars, /debug/statusz and /debug/slowlog, two-provider stitched
// traces through federation, and seeded chaos determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/flight_recorder.h"
#include "core/provider.h"
#include "core/statusz.h"
#include "core/trace.h"
#include "fed/node.h"
#include "net/fault.h"
#include "net/tracing.h"
#include "util/metrics.h"

namespace w5 {
namespace {

using net::Method;
using platform::Provider;
using platform::ProviderConfig;
using platform::RequestContext;
using platform::ScopedSpan;
using platform::Trace;
using platform::TraceBuffer;
using platform::TraceSpan;

// ---- Wire codec -------------------------------------------------------------

TEST(TraceWire, SanitizerKeepsCharsetOnly) {
  EXPECT_EQ(platform::sanitize_telemetry_token("store.get/x=1-ok_"),
            "store.get/x=1-ok_");
  EXPECT_EQ(platform::sanitize_telemetry_token("has space;semi\"quote"),
            "has_space_semi_quote");
  EXPECT_EQ(platform::sanitize_telemetry_token(std::string(100, 'a'), 8),
            "aaaaaaaa");
}

TEST(TraceWire, EncodeDecodeRoundTrip) {
  Trace trace;
  trace.id = "roundtrip-1";
  trace.sampled = true;
  trace.started = 1'000'000;
  TraceSpan parent;
  parent.name = "flow-check";
  parent.start = 1'000'100;
  parent.duration = 50;
  parent.id = 1;
  parent.note = "tags=2";
  TraceSpan child;
  child.name = "store.get";
  child.start = 1'000'120;
  child.duration = 20;
  child.id = 2;
  child.parent = 1;
  trace.spans = {parent, child};

  const std::string wire = platform::encode_spans_for_wire(trace);
  ASSERT_FALSE(wire.empty());
  const auto decoded = platform::decode_remote_spans(wire, "peerA");
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "flow-check");
  EXPECT_EQ(decoded[0].start, 100);  // offset from the remote request start
  EXPECT_EQ(decoded[0].duration, 50);
  EXPECT_EQ(decoded[0].note, "tags=2");
  EXPECT_EQ(decoded[0].remote, "peerA");
  EXPECT_EQ(decoded[1].parent, 1u);
  EXPECT_EQ(decoded[1].remote, "peerA");
}

TEST(TraceWire, UnsampledTraceEncodesNothing) {
  Trace trace;
  trace.id = "quiet";
  trace.sampled = false;
  trace.spans.push_back(TraceSpan{.name = "app"});
  EXPECT_EQ(platform::encode_spans_for_wire(trace), "");
}

TEST(TraceWire, DecodeRejectsMalformedAndHostileEntries) {
  // Missing fields, non-numeric ids, and empty names are skipped; hostile
  // bytes in surviving fields are sanitized, never trusted.
  const auto decoded = platform::decode_remote_spans(
      "garbage|1;0;10;5;ok name;no\"te;|;;;;;;|2;zzz;1;1;x;;", "peer;evil");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].name, "ok_name");
  EXPECT_EQ(decoded[0].note, "no_te");
  EXPECT_EQ(decoded[0].remote, "peer_evil");
}

// ---- Span tree ordinals -----------------------------------------------------

TEST(SpanTree, ScopedSpansRecordParentChildEdges) {
  if (!util::kTelemetryEnabled) return;
  Trace trace;
  {
    RequestContext context("tree-test-1");  // inherited id → spans on
    ASSERT_TRUE(context.spans_enabled());
    {
      ScopedSpan outer("app");
      {
        ScopedSpan inner("store.get");
        ScopedSpan sibling_of_nobody("declassify");
      }
    }
    { ScopedSpan late("serialize"); }
    trace = context.finish();
  }
  ASSERT_EQ(trace.spans.size(), 4u);
  const auto find = [&](const std::string& name) -> const TraceSpan& {
    const auto it =
        std::find_if(trace.spans.begin(), trace.spans.end(),
                     [&](const TraceSpan& s) { return s.name == name; });
    EXPECT_NE(it, trace.spans.end()) << name;
    return *it;
  };
  const TraceSpan& outer = find("app");
  const TraceSpan& inner = find("store.get");
  const TraceSpan& nested = find("declassify");
  const TraceSpan& late = find("serialize");
  EXPECT_NE(outer.id, 0u);
  EXPECT_EQ(outer.parent, 0u);  // direct child of the request root
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(nested.parent, inner.id);
  EXPECT_EQ(late.parent, 0u);  // parent restored after the app subtree
  EXPECT_TRUE(trace.sampled);
}

// ---- TraceBuffer eviction and late-span accounting --------------------------

TEST(TraceBufferLookup, DistinguishesEvictedFromUnknown) {
  TraceBuffer buffer(2);
  for (int i = 0; i < 3; ++i) {
    Trace trace;
    trace.id = "trace-" + std::to_string(i);
    buffer.record(std::move(trace));
  }
  Trace out;
  EXPECT_EQ(buffer.lookup("trace-2", &out), TraceBuffer::Lookup::kFound);
  EXPECT_EQ(out.id, "trace-2");
  EXPECT_EQ(buffer.lookup("trace-0", &out), TraceBuffer::Lookup::kEvicted);
  EXPECT_EQ(buffer.lookup("never-seen", &out), TraceBuffer::Lookup::kUnknown);
}

TEST(TraceBufferLookup, AppendSpansCountsDropsOnEviction) {
  TraceBuffer buffer(2);
  Trace sampled;
  sampled.id = "alive";
  sampled.sampled = true;
  buffer.record(std::move(sampled));

  std::vector<TraceSpan> spans(2);
  spans[0].name = "stage.parse";
  spans[1].name = "stage.write";
  EXPECT_TRUE(buffer.append_spans("alive", spans));
  EXPECT_EQ(buffer.dropped(), 0u);
  Trace out;
  ASSERT_EQ(buffer.lookup("alive", &out), TraceBuffer::Lookup::kFound);
  EXPECT_EQ(out.spans.size(), 2u);

  // Spans arriving after the trace has aged out are counted, not lost
  // silently — w5_trace_dropped_total is the slot-exhaustion signal.
  EXPECT_FALSE(buffer.append_spans("gone", spans));
  EXPECT_EQ(buffer.dropped(), 2u);

  // An unsampled resident trace intentionally has no spans; late stage
  // spans for it are suppressed without touching the dropped counter.
  Trace quiet;
  quiet.id = "quiet";
  buffer.record(std::move(quiet));
  EXPECT_FALSE(buffer.append_spans("quiet", spans));
  EXPECT_EQ(buffer.dropped(), 2u);

  // Eviction of a *sampled* trace counts its spans as dropped too.
  Trace evictor;
  evictor.id = "evictor";
  buffer.record(std::move(evictor));  // ring cap 2: evicts "alive" (2 spans)
  EXPECT_EQ(buffer.dropped(), 4u);
}

// ---- Prometheus escaping and exemplars --------------------------------------

TEST(MetricsExposition, EscapesLabelValues) {
  util::MetricsRegistry registry;
  registry.counter("t_esc{peer=\"quote\"back\\slash\nnewline\"}").inc(1);
  registry.gauge("t_esc_gauge{a=\"x\",b=\"y\"}").set(2);
  const std::string text = registry.to_prometheus();
  if (!util::kTelemetryEnabled) return;
  // The rendered label value escapes backslash, quote, and newline per
  // the exposition format; the raw forms must not appear.
  EXPECT_NE(text.find("t_esc{peer=\"quote\\\"back\\\\slash\\nnewline\"} 1"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("slash\nnewline"), std::string::npos) << text;
  EXPECT_NE(text.find("t_esc_gauge{a=\"x\",b=\"y\"} 2"), std::string::npos)
      << text;
}

TEST(MetricsExposition, HistogramExemplarCarriesTraceId) {
  util::MetricsRegistry registry;
  util::Histogram& latency = registry.histogram("t_lat", {10, 100});
  latency.observe_with_exemplar(500, "abc123def456");
  latency.observe(5);
  const std::string text = registry.to_prometheus();
  if (!util::kTelemetryEnabled) return;
  // The +Inf bucket (where 500 landed) carries the trace exemplar.
  EXPECT_NE(text.find("# {trace_id=\"abc123def456\"} 500"), std::string::npos)
      << text;
  const auto exemplars = latency.exemplars();
  ASSERT_EQ(exemplars.size(), 3u);  // 2 finite buckets + Inf
  EXPECT_EQ(exemplars[2].ref, "abc123def456");
  EXPECT_EQ(exemplars[2].value, 500);
  EXPECT_TRUE(exemplars[0].ref.empty());  // plain observe leaves none
}

// ---- Flight recorder --------------------------------------------------------

TEST(FlightRecorderTest, RingUpsertsAndDumpsNewestFirst) {
  platform::FlightRecorder recorder(2);
  for (int i = 0; i < 3; ++i) {
    Trace trace;
    trace.id = "slow-" + std::to_string(i);
    trace.duration = 100 + i;
    recorder.record(std::move(trace));
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.recorded(), 3u);
  util::Json dump = recorder.to_json();
  const auto& entries = dump.at("entries").as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].at("id").as_string(), "slow-2");  // newest first
  EXPECT_EQ(entries[1].at("id").as_string(), "slow-1");

  // Re-recording an id (late spans arrived) replaces in place.
  Trace again;
  again.id = "slow-2";
  again.duration = 999;
  recorder.record(std::move(again));
  EXPECT_EQ(recorder.size(), 2u);
  dump = recorder.to_json();
  EXPECT_EQ(dump.at("entries").as_array()[0].at("duration_micros").as_int(),
            999);
}

// ---- Debug endpoints through the gateway ------------------------------------

class DebugPlaneTest : public ::testing::Test {
 protected:
  static ProviderConfig slow_config() {
    ProviderConfig config;
    config.slow_request_micros = 1;  // everything is "slow"
    return config;
  }

  void SetUp() override {
    ASSERT_TRUE(provider_.signup("alice", "password1").ok());
    alice_ = provider_.login("alice", "password1").value();
  }

  util::WallClock clock_;
  Provider provider_{slow_config(), clock_};
  std::string alice_;
};

TEST_F(DebugPlaneTest, StatuszAggregatesInfrastructureState) {
  const auto response =
      provider_.http(Method::kGet, "/debug/statusz", "", alice_);
  ASSERT_EQ(response.status, 200);
  auto parsed = util::Json::parse(response.body);
  ASSERT_TRUE(parsed.ok()) << response.body;
  const util::Json& statusz = parsed.value();
  EXPECT_EQ(statusz.at("provider").as_string(), "w5.org");
  EXPECT_EQ(statusz.at("serving").at("app_dispatch").as_string(), "inline");
  EXPECT_TRUE(statusz.at("build").contains("compiled"));
  EXPECT_TRUE(statusz.at("durability").contains("enabled"));
  EXPECT_TRUE(statusz.at("fed_breakers").is_object());
  ASSERT_TRUE(statusz.at("reactor_loops").is_array());
  EXPECT_EQ(statusz.at("reactor_loops").as_array().size(), 1u);
  EXPECT_TRUE(statusz.at("tracing").contains("spans_dropped"));
}

TEST_F(DebugPlaneTest, SlowlogCapturesSlowRequestsWithSpans) {
  if (!util::kTelemetryEnabled) return;
  // A forced-sample request above the (1 µs) threshold must land in the
  // flight recorder with its span dump intact.
  net::HttpRequest request;
  request.method = Method::kGet;
  request.target = "/whoami";
  request.parsed = *net::parse_request_target("/whoami");
  request.headers.set("Cookie",
                      std::string(platform::kSessionCookie) + "=" + alice_);
  request.headers.set("X-W5-Trace", "slowlog-probe-1");
  ASSERT_EQ(provider_.handle(request).status, 200);

  const auto response =
      provider_.http(Method::kGet, "/debug/slowlog", "", alice_);
  ASSERT_EQ(response.status, 200);
  auto parsed = util::Json::parse(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().at("threshold_micros").as_int(), 1);
  const auto& entries = parsed.value().at("entries").as_array();
  ASSERT_FALSE(entries.empty());
  bool found = false;
  for (const auto& entry : entries)
    if (entry.at("id").as_string() == "slowlog-probe-1") found = true;
  EXPECT_TRUE(found);
}

TEST_F(DebugPlaneTest, TraceLookupReturns204ForEvictedIds) {
  if (!util::kTelemetryEnabled) return;
  Trace known;
  known.id = "evict-me-1";
  provider_.traces().record(std::move(known));
  for (std::size_t i = 0; i < TraceBuffer::kDefaultCapacity; ++i) {
    Trace filler;
    filler.id = "filler-" + std::to_string(i);
    provider_.traces().record(std::move(filler));
  }
  EXPECT_EQ(
      provider_.http(Method::kGet, "/trace/evict-me-1", "", alice_).status,
      204);
  EXPECT_EQ(
      provider_.http(Method::kGet, "/trace/never-seen", "", alice_).status,
      404);
  // The dropped counter is exported alongside the other trace gauges.
  const auto metrics =
      provider_.http(Method::kGet, "/metrics", "", alice_).body;
  EXPECT_NE(metrics.find("w5_trace_dropped_total"), std::string::npos);
}

// ---- Cross-hop stitching through federation ---------------------------------

class FedTracingTest : public ::testing::Test {
 protected:
  FedTracingTest()
      : provider_a_(ProviderConfig{.name = "providerA"}, clock_),
        provider_b_(ProviderConfig{.name = "providerB"}, clock_),
        node_a_("providerA", provider_a_, network_),
        node_b_("providerB", provider_b_, network_) {}

  void SetUp() override {
    ASSERT_TRUE(provider_a_.signup("bob", "pwd").ok());
    ASSERT_TRUE(provider_b_.signup("bob", "pwd").ok());
    node_a_.mirrors().authorize("bob", "providerB");
    node_b_.mirrors().authorize("bob", "providerA");
    util::Json photo;
    photo["title"] = "sunset";
    ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", photo).ok());
  }

  util::WallClock clock_;
  net::InMemoryNetwork network_;
  platform::Provider provider_a_;
  platform::Provider provider_b_;
  fed::Node node_a_;
  fed::Node node_b_;
};

TEST_F(FedTracingTest, SyncProducesStitchedTreeAcrossProviders) {
  if (!util::kTelemetryEnabled) return;
  Trace trace;
  {
    RequestContext context("stitch-probe-1");  // forced sampling
    auto stats = node_b_.sync_from("providerA");
    ASSERT_TRUE(stats.ok()) << stats.error().code;
    EXPECT_EQ(stats.value().applied, 1u);
    trace = context.finish();
  }
  // One tree: the local fed.pull hop span plus the peer's serving spans
  // stitched under it, each stamped remote="providerA".
  const TraceSpan* hop = nullptr;
  std::vector<const TraceSpan*> remote_spans;
  for (const TraceSpan& span : trace.spans) {
    if (span.name == "fed.pull" && span.remote.empty()) hop = &span;
    if (!span.remote.empty()) remote_spans.push_back(&span);
  }
  ASSERT_NE(hop, nullptr);
  EXPECT_NE(hop->note.find("peer=providerA"), std::string::npos);
  ASSERT_FALSE(remote_spans.empty());
  std::vector<std::string> remote_names;
  for (const TraceSpan* span : remote_spans) {
    EXPECT_EQ(span->remote, "providerA");
    // Remote offsets rebase onto the hop start: every stitched span lands
    // at-or-after the hop began.
    EXPECT_GE(span->start, hop->start);
    remote_names.push_back(span->name);
  }
  EXPECT_NE(std::find(remote_names.begin(), remote_names.end(), "fed.consent"),
            remote_names.end());
  EXPECT_NE(std::find(remote_names.begin(), remote_names.end(), "fed.export"),
            remote_names.end());
  // Remote roots hang under the hop span (remapped into local ordinals).
  for (const TraceSpan* span : remote_spans) {
    if (span->name == "fed.consent" || span->name == "fed.export") {
      EXPECT_EQ(span->parent, hop->id);
    }
  }

  // The peer recorded the same trace id on its side: /trace/:id resolves
  // on both providers, route "fed.pull" over there.
  Trace peer_side;
  ASSERT_EQ(provider_a_.traces().lookup("stitch-probe-1", &peer_side),
            TraceBuffer::Lookup::kFound);
  EXPECT_EQ(peer_side.route, "fed.pull");
  EXPECT_EQ(peer_side.parent_span, std::to_string(hop->id));
}

TEST_F(FedTracingTest, UnauthorizedPullYieldsOrphanMarkedHopSpan) {
  if (!util::kTelemetryEnabled) return;
  node_a_.mirrors().revoke("bob", "providerB");  // peer-side consent gone
  Trace trace;
  {
    RequestContext context("orphan-probe-1");
    auto stats = node_b_.sync_from("providerA");
    EXPECT_FALSE(stats.ok());
    trace = context.finish();
  }
  const auto hop = std::find_if(
      trace.spans.begin(), trace.spans.end(), [](const TraceSpan& span) {
        return span.name == "fed.pull" && span.remote.empty();
      });
  ASSERT_NE(hop, trace.spans.end());
  EXPECT_NE(hop->note.find("err=fed.pull_failed"), std::string::npos)
      << hop->note;
}

// Chaos determinism: the same seed yields the same stitched-or-orphaned
// outcome, span for span. FaultSchedule::seeded drives delays, short
// reads, and resets through the connection decorator on the dialer side.
TEST_F(FedTracingTest, SeededChaosSyncIsDeterministic) {
  if (!util::kTelemetryEnabled) return;
  struct Outcome {
    bool ok = false;
    std::string error_code;
    std::vector<std::string> span_names;  // name + remote, in order
  };
  const auto run_once = [](std::uint64_t seed) {
    util::WallClock clock;
    net::InMemoryNetwork network;
    platform::Provider provider_a(ProviderConfig{.name = "providerA"}, clock);
    platform::Provider provider_b(ProviderConfig{.name = "providerB"}, clock);
    fed::Node node_a("providerA", provider_a, network);
    fed::Node node_b("providerB", provider_b, network);
    EXPECT_TRUE(provider_a.signup("bob", "pwd").ok());
    EXPECT_TRUE(provider_b.signup("bob", "pwd").ok());
    node_a.mirrors().authorize("bob", "providerB");
    node_b.mirrors().authorize("bob", "providerA");
    util::Json photo;
    photo["title"] = "sunset";
    EXPECT_TRUE(node_a.put_user_record("bob", "photos", "p1", photo).ok());
    net::FaultSchedule::Profile profile;
    profile.short_read_probability = 0.3;
    profile.reset_probability = 0.1;
    profile.delay_probability = 0.2;
    profile.min_delay_micros = 1;
    profile.max_delay_micros = 10;
    node_b.set_connection_decorator(
        [seed, profile](std::unique_ptr<net::Connection> inner) {
          return std::make_unique<net::FaultyConnection>(
              std::move(inner), net::FaultSchedule::seeded(seed, profile));
        });
    Outcome outcome;
    {
      RequestContext context("chaos-probe-1");
      auto stats = node_b.sync_from("providerA");
      outcome.ok = stats.ok();
      if (!stats.ok()) outcome.error_code = stats.error().code;
      for (const TraceSpan& span : context.finish().spans)
        outcome.span_names.push_back(span.name + "@" + span.remote);
    }
    return outcome;
  };
  for (const std::uint64_t seed : {7ull, 42ull, 1337ull}) {
    const Outcome first = run_once(seed);
    const Outcome second = run_once(seed);
    EXPECT_EQ(first.ok, second.ok) << "seed " << seed;
    EXPECT_EQ(first.error_code, second.error_code) << "seed " << seed;
    EXPECT_EQ(first.span_names, second.span_names) << "seed " << seed;
    // Whatever the faults did, the trace is coherent: either the hop
    // stitched remote spans in, or the hop span carries an err= marker.
    const bool stitched =
        std::any_of(first.span_names.begin(), first.span_names.end(),
                    [](const std::string& name) {
                      return name.ends_with("@providerA");
                    });
    EXPECT_TRUE(first.ok ? stitched : true);
  }
}

}  // namespace
}  // namespace w5
