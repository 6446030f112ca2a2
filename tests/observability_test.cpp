// Observability plane (DESIGN.md §11): metrics registry math, request
// tracing end-to-end, the /metrics and /trace endpoints, audit tail
// queries, and — the §3.5 invariant — proof that no telemetry channel
// ever carries user data bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway.h"
#include "core/provider.h"
#include "core/trace.h"
#include "difc/label_table.h"
#include "net/tracing.h"
#include "util/log.h"
#include "util/metrics.h"

namespace w5 {
namespace {

using net::HttpResponse;
using net::Method;
using platform::AppContext;
using platform::Module;
using platform::Provider;
using platform::ProviderConfig;
using platform::RequestContext;
using platform::ScopedSpan;
using platform::TraceBuffer;

// ---- Histogram bucket math --------------------------------------------------

TEST(ObservabilityHistogram, BucketsCountsAndSum) {
  util::Histogram h({10, 20, 30});
  for (const std::int64_t v : {5, 10, 15, 25, 100}) h.observe(v);
  if (!util::kTelemetryEnabled) return;  // observe() compiled out

  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 155);
  // Bounds are inclusive upper edges: 10 lands in the first bucket.
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite + the +Inf overflow
  EXPECT_EQ(counts[0], 2u);      // 5, 10
  EXPECT_EQ(counts[1], 1u);      // 15
  EXPECT_EQ(counts[2], 1u);      // 25
  EXPECT_EQ(counts[3], 1u);      // 100 → +Inf
}

TEST(ObservabilityHistogram, PercentilesInterpolateWithinBucket) {
  util::Histogram h({100, 200});
  if (!util::kTelemetryEnabled) return;
  // 100 samples uniformly in the (0,100] bucket.
  for (int i = 0; i < 100; ++i) h.observe(50);
  // All mass in one bucket: p50 interpolates to the bucket midpoint.
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
  // Values past the last finite bound report that bound, not infinity.
  for (int i = 0; i < 1000; ++i) h.observe(10'000);
  EXPECT_DOUBLE_EQ(h.percentile(99), 200.0);
}

TEST(ObservabilityHistogram, EmptyHistogramReportsZero) {
  util::Histogram h({10});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(ObservabilityRegistry, PrometheusRenderGroupsFamilies) {
  util::MetricsRegistry registry;
  registry.counter("t_requests{route=\"/a\"}").inc(2);
  registry.counter("t_requests{route=\"/b\"}").inc(3);
  registry.gauge("t_depth").set(7);
  registry.histogram("t_latency", {10, 100}).observe(42);
  // Labeled histogram series, with names past the small-string buffer.
  registry.histogram("t_stage_latency_micros{stage=\"parse\"}", {10});
  registry.histogram("t_stage_latency_micros{stage=\"write\"}", {10});
  const std::string text = registry.to_prometheus();
  if (!util::kTelemetryEnabled) return;

  // One TYPE line per family, not per labeled series.
  EXPECT_EQ(text.find("# TYPE t_requests counter"),
            text.rfind("# TYPE t_requests counter"));
  EXPECT_EQ(text.find("# TYPE t_stage_latency_micros histogram"),
            text.rfind("# TYPE t_stage_latency_micros histogram"));
  EXPECT_NE(text.find("t_stage_latency_micros_count{stage=\"write\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("t_requests{route=\"/a\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_requests{route=\"/b\"} 3"), std::string::npos);
  EXPECT_NE(text.find("t_depth 7"), std::string::npos);
  // Cumulative histogram buckets with the +Inf edge.
  EXPECT_NE(text.find("t_latency_bucket{le=\"100\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_latency_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_latency_count 1"), std::string::npos);
}

// ---- Trace machinery --------------------------------------------------------

TEST(ObservabilityTrace, IdsAreValidAndUnique) {
  const std::string a = platform::next_trace_id();
  const std::string b = platform::next_trace_id();
  // 12 hex chars: 48 mixed bits, and short enough that every copy of the
  // id (header echo, audit stamp, thread-local) stays within SSO.
  EXPECT_EQ(a.size(), 12u);
  EXPECT_NE(a, b);
  EXPECT_TRUE(net::valid_trace_token(a));
  EXPECT_FALSE(net::valid_trace_token(""));
  EXPECT_FALSE(net::valid_trace_token("has space"));
  EXPECT_FALSE(net::valid_trace_token(std::string(65, 'a')));
}

TEST(ObservabilityTrace, RingBufferEvictsOldest) {
  TraceBuffer buffer(2);
  for (int i = 0; i < 3; ++i) {
    platform::Trace trace;
    trace.id = "trace-" + std::to_string(i);
    buffer.record(std::move(trace));
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.recorded(), 3u);
  EXPECT_FALSE(buffer.find("trace-0").has_value());
  EXPECT_TRUE(buffer.find("trace-1").has_value());
  EXPECT_TRUE(buffer.find("trace-2").has_value());
}

TEST(ObservabilityTrace, NestedContextsRestoreOnUnwind) {
  if (!util::kTelemetryEnabled) return;
  EXPECT_EQ(RequestContext::current(), nullptr);
  RequestContext outer;
  EXPECT_EQ(RequestContext::current(), &outer);
  {
    RequestContext inner;
    EXPECT_EQ(RequestContext::current(), &inner);
    EXPECT_NE(inner.id(), outer.id());
  }
  EXPECT_EQ(RequestContext::current(), &outer);
  EXPECT_EQ(RequestContext::current_id(), outer.id());
}

// ---- End-to-end through the gateway ----------------------------------------

class ObservabilityGatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(provider_.signup("alice", "password1").ok());
    ASSERT_TRUE(provider_.signup("bob", "password2").ok());
    alice_ = provider_.login("alice", "password1").value();
    bob_ = provider_.login("bob", "password2").value();

    Module viewer;
    viewer.developer = "mallory";
    viewer.name = "viewer";
    viewer.version = "1.0";
    viewer.handler = [](AppContext& ctx) {
      auto secret = ctx.get_record("secrets", "s1");
      if (!secret.ok()) return HttpResponse::text(404, "none");
      return HttpResponse::text(200, secret.value().data.dump());
    };
    ASSERT_TRUE(provider_.modules().add(viewer).ok());
  }

  util::WallClock clock_;
  Provider provider_{ProviderConfig{}, clock_};
  std::string alice_;
  std::string bob_;
};

TEST_F(ObservabilityGatewayTest, TraceIdRoundTripsAndResolves) {
  if (!util::kTelemetryEnabled) return;
  const auto response = provider_.http(Method::kGet, "/whoami", "", alice_);
  ASSERT_EQ(response.status, 200);
  const auto trace_id = response.headers.get("X-W5-Trace");
  ASSERT_TRUE(trace_id.has_value());
  EXPECT_TRUE(net::valid_trace_token(*trace_id));

  const auto dump =
      provider_.http(Method::kGet, "/trace/" + *trace_id, "", alice_);
  ASSERT_EQ(dump.status, 200);
  auto parsed = util::Json::parse(dump.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().at("id").as_string(), *trace_id);
  // The trace records the route *pattern*, never the raw target.
  EXPECT_EQ(parsed.value().at("route").as_string(), "/whoami");
  EXPECT_EQ(parsed.value().at("status").as_int(), 200);
}

TEST_F(ObservabilityGatewayTest, InboundTraceHeaderValidatedBeforeReuse) {
  if (!util::kTelemetryEnabled) return;
  net::HttpRequest request;
  request.method = Method::kGet;
  request.target = "/whoami";
  request.parsed = *net::parse_request_target("/whoami");
  request.headers.set("X-W5-Trace", "upstream-trace-42");
  auto response = provider_.handle(request);
  EXPECT_EQ(response.headers.get("X-W5-Trace").value_or(""),
            "upstream-trace-42");

  // Invalid bytes must not round-trip into telemetry: a fresh id is
  // minted instead.
  request.headers.set("X-W5-Trace", "bad header!{}");
  response = provider_.handle(request);
  const std::string echoed = response.headers.get("X-W5-Trace").value_or("");
  EXPECT_NE(echoed, "bad header!{}");
  EXPECT_TRUE(net::valid_trace_token(echoed));
}

TEST_F(ObservabilityGatewayTest, AppRequestTraceHasSpansAndAuditStamp) {
  if (!util::kTelemetryEnabled) return;
  ASSERT_EQ(provider_
                .http(Method::kPost, "/data/secrets/s1", R"({"secret":"x"})",
                      alice_)
                .status,
            201);
  // Bob invokes the viewer app: it reads alice's record, so the response
  // is blocked at the perimeter — and the trace shows the whole path.
  // Forwarding an X-W5-Trace id opts this request into full span
  // recording (head sampling would otherwise trace only 1-in-N).
  net::HttpRequest request;
  request.method = Method::kGet;
  request.target = "/dev/mallory/viewer";
  request.parsed = *net::parse_request_target(request.target);
  request.headers.set("Cookie",
                      std::string(platform::kSessionCookie) + "=" + bob_);
  request.headers.set("X-W5-Trace", "span-dump-please");
  const auto response = provider_.handle(request);
  EXPECT_EQ(response.status, 403);
  const std::string trace_id =
      response.headers.get("X-W5-Trace").value_or("");
  ASSERT_EQ(trace_id, "span-dump-please");

  const auto dump =
      provider_.http(Method::kGet, "/trace/" + trace_id, "", bob_);
  ASSERT_EQ(dump.status, 200);
  std::vector<std::string> names;
  auto parsed = util::Json::parse(dump.body);
  ASSERT_TRUE(parsed.ok());
  for (const auto& span : parsed.value().at("spans").as_array())
    names.push_back(span.at("name").as_string());
  EXPECT_NE(std::find(names.begin(), names.end(), "kernel.spawn"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "app"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "store.get"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "declassify"), names.end());

  // Audit events recorded during the request carry the same trace id.
  bool stamped = false;
  for (const auto& event : provider_.audit().events()) {
    if (event.trace == trace_id) stamped = true;
  }
  EXPECT_TRUE(stamped);
}

TEST_F(ObservabilityGatewayTest, AuditTailQueryPagesWithoutFullCopy) {
  for (int i = 0; i < 10; ++i) {
    provider_.audit().record(platform::AuditKind::kAdmin, "tester",
                             "subject" + std::to_string(i), "detail");
  }
  const auto all = provider_.audit().events();
  ASSERT_GE(all.size(), 10u);
  const auto tail = provider_.audit().events(3, 0);
  ASSERT_EQ(tail.size(), 3u);
  // Newest three, oldest-first.
  EXPECT_EQ(tail.back().subject, all.back().subject);
  EXPECT_EQ(tail.front().subject, all[all.size() - 3].subject);

  // since_micros cuts the window: a cutoff after the last event → empty.
  const auto none = provider_.audit().events(100, all.back().at + 1);
  EXPECT_TRUE(none.empty());
  // And the HTTP surface pages the same way.
  const auto response = provider_.http(Method::kGet, "/audit?n=3", "", alice_);
  ASSERT_EQ(response.status, 200);
  auto parsed = util::Json::parse(response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().at("events").as_array().size(), 3u);
  EXPECT_EQ(static_cast<std::size_t>(parsed.value().at("total").as_int()),
            provider_.audit().size());
}

TEST_F(ObservabilityGatewayTest, MetricsEndpointServesBothFormats) {
  if (!util::kTelemetryEnabled) return;
  ASSERT_EQ(provider_.http(Method::kGet, "/whoami", "", alice_).status, 200);

  const auto text = provider_.http(Method::kGet, "/metrics", "", alice_);
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.headers.get("Content-Type").value_or("").find("text/plain"),
            std::string::npos);
  EXPECT_NE(text.body.find("w5_requests_total"), std::string::npos);
  EXPECT_NE(text.body.find("w5_request_latency_micros_bucket"),
            std::string::npos);
  EXPECT_NE(text.body.find(
                "w5_route_requests_total{method=\"GET\",route=\"/whoami\"}"),
            std::string::npos);
  EXPECT_NE(text.body.find("w5_flow_cache_hits"), std::string::npos);
  EXPECT_NE(text.body.find("w5_store_shard_ops{shard=\"15\"}"),
            std::string::npos);

  const auto json =
      provider_.http(Method::kGet, "/metrics?format=json", "", alice_);
  ASSERT_EQ(json.status, 200);
  auto parsed = util::Json::parse(json.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(parsed.value()
                .at("counters")
                .at("w5_requests_total")
                .as_int(),
            0);
  const auto& latency =
      parsed.value().at("histograms").at("w5_request_latency_micros");
  EXPECT_GT(latency.at("count").as_int(), 0);
  EXPECT_TRUE(latency.contains("p50"));
  EXPECT_TRUE(latency.contains("p99"));
}

// 8 threads hammer the provider; afterwards the counters must add up
// exactly — lock-free updates may not lose increments.
TEST_F(ObservabilityGatewayTest, ObservabilityCountersExactUnderConcurrency) {
  if (!util::kTelemetryEnabled) return;
  constexpr int kThreads = 8;
  constexpr int kIters = 100;

  const std::uint64_t before =
      provider_.metrics().counter("w5_requests_total").value();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string& session = t % 2 == 0 ? alice_ : bob_;
      const std::string record = "/data/notes/obs-t" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        (void)provider_.http(Method::kPost, record, R"({"v":1})", session);
        (void)provider_.http(Method::kGet, "/whoami", "", session);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const std::uint64_t after =
      provider_.metrics().counter("w5_requests_total").value();
  EXPECT_EQ(after - before,
            static_cast<std::uint64_t>(kThreads) * kIters * 2);
  EXPECT_GE(provider_.metrics().histogram("w5_request_latency_micros").count(),
            after - before);
  // Store counters: every POST /data is one put.
  EXPECT_GE(provider_.store().op_counts().puts,
            static_cast<std::uint64_t>(kThreads) * kIters);
}

// ---- Component counters -----------------------------------------------------

TEST(ObservabilityFlowMemo, InvalidationCounterTracksEpochBumps) {
  const std::uint64_t before = difc::FlowCache::instance().invalidations();
  difc::LabelTable::instance().invalidate();
  EXPECT_EQ(difc::FlowCache::instance().invalidations(), before + 1);
}

// ---- Structured log sink ----------------------------------------------------

TEST(ObservabilityLog, JsonSinkEmitsTraceStampedLines) {
  std::ostringstream captured;
  auto previous = util::set_log_sink(util::make_json_sink(captured));
  util::set_log_threshold(util::LogLevel::kDebug);

  util::log_warn("outside request");
  {
    RequestContext context;
    util::log_warn("inside request");
    if (util::kTelemetryEnabled) {
      EXPECT_NE(captured.str().find("\"trace\":\"" + context.id() + "\""),
                std::string::npos);
    }
  }
  util::log_warn("after request");
  const std::string out = captured.str();
  util::set_log_threshold(util::LogLevel::kWarn);
  (void)util::set_log_sink(std::move(previous));

  // Each line is a parseable JSON object.
  std::istringstream lines(out);
  std::string line;
  int parsed_lines = 0;
  while (std::getline(lines, line)) {
    auto parsed = util::Json::parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed.value().at("level").as_string(), "warn");
    ++parsed_lines;
  }
  EXPECT_EQ(parsed_lines, 3);
  // Lines logged outside any request carry an empty trace field.
  EXPECT_NE(out.find("\"trace\":\"\",\"message\":\"outside request\""),
            std::string::npos);
}

// ---- The §3.5 leak invariant ------------------------------------------------
// Store a secret, drag it through the whole pipeline (app read, blocked
// export, audit records, spans, diagnostics), then grep every telemetry
// channel for the marker. Telemetry carries routes, label/tag names, and
// codes — never data bytes.
TEST_F(ObservabilityGatewayTest, NoTelemetryChannelCarriesDataBytes) {
  constexpr char kMarker[] = "xyzzy-telemetry-canary-4711";
  std::ostringstream log_lines;
  auto previous = util::set_log_sink(util::make_json_sink(log_lines));
  util::set_log_threshold(util::LogLevel::kDebug);

  ASSERT_EQ(provider_
                .http(Method::kPost, "/data/secrets/s1",
                      std::string(R"({"secret":")") + kMarker + "\"}", alice_)
                .status,
            201);
  // Owner reads it back (allowed), a third party reads it through the
  // app (blocked) — both paths exercise spans, counters, and audit.
  ASSERT_EQ(provider_.http(Method::kGet, "/data/secrets/s1", "", alice_).status,
            200);
  const auto blocked =
      provider_.http(Method::kGet, "/dev/mallory/viewer", "", bob_);
  EXPECT_EQ(blocked.status, 403);
  EXPECT_EQ(blocked.body.find(kMarker), std::string::npos);

  util::set_log_threshold(util::LogLevel::kWarn);
  (void)util::set_log_sink(std::move(previous));

  const auto contains_marker = [&](const std::string& text) {
    return text.find(kMarker) != std::string::npos;
  };
  // 1. /metrics, both formats.
  EXPECT_FALSE(contains_marker(
      provider_.http(Method::kGet, "/metrics", "", alice_).body));
  EXPECT_FALSE(contains_marker(
      provider_.http(Method::kGet, "/metrics?format=json", "", alice_).body));
  // 2. Every retained trace, via the registry itself.
  if (util::kTelemetryEnabled) {
    const std::string blocked_trace =
        blocked.headers.get("X-W5-Trace").value_or("");
    ASSERT_FALSE(blocked_trace.empty());
    const auto dump =
        provider_.http(Method::kGet, "/trace/" + blocked_trace, "", bob_);
    ASSERT_EQ(dump.status, 200);
    EXPECT_FALSE(contains_marker(dump.body));
  }
  // 2b. The debug plane: statusz aggregation, the slow-request flight
  // recorder, and the cross-hop span dump header (§16 surfaces).
  EXPECT_FALSE(contains_marker(
      provider_.http(Method::kGet, "/debug/statusz", "", alice_).body));
  EXPECT_FALSE(contains_marker(
      provider_.http(Method::kGet, "/debug/slowlog", "", alice_).body));
  {
    net::HttpRequest request;
    request.method = Method::kGet;
    request.target = "/data/secrets/s1";
    request.parsed = *net::parse_request_target(request.target);
    request.headers.set("Cookie",
                        std::string(platform::kSessionCookie) + "=" + alice_);
    request.headers.set("X-W5-Trace", "leak-probe-spans-1");
    const auto traced = provider_.handle(request);
    ASSERT_EQ(traced.status, 200);
    EXPECT_FALSE(contains_marker(
        traced.headers.get("X-W5-Spans").value_or("")));
  }
  // 3. The audit log (HTTP surface and full copy).
  EXPECT_FALSE(contains_marker(
      provider_.http(Method::kGet, "/audit?n=1000", "", alice_).body));
  for (const auto& event : provider_.audit().events()) {
    EXPECT_FALSE(contains_marker(event.actor + event.subject + event.detail));
  }
  // 4. Diagnostics emitted while the secret was in flight.
  EXPECT_FALSE(contains_marker(log_lines.str()));
}

}  // namespace
}  // namespace w5
