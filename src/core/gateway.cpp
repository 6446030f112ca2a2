#include "core/gateway.h"

#include <algorithm>
#include <exception>
#include <set>

#include "core/sanitizer.h"
#include "core/statusz.h"
#include "core/trace.h"
#include "difc/label_table.h"
#include "util/strings.h"
#include "net/cookies.h"

namespace w5::platform {

namespace {

net::HttpResponse json_error(int status, const std::string& code) {
  util::Json body;
  body["error"] = code;
  return net::HttpResponse::json(status, body.dump());
}

// Generic denial: deliberately free of application-controlled bytes so a
// blocked response cannot itself smuggle data.
net::HttpResponse perimeter_denial() {
  return json_error(403, "export blocked by security perimeter");
}

}  // namespace

Gateway::Gateway(Provider& provider) : provider_(provider) {
  using net::Method;
  const auto bind0 = [this](net::HttpResponse (Gateway::*fn)(
                                const net::HttpRequest&)) {
    return [this, fn](const net::HttpRequest& request,
                      const net::RouteParams&) { return (this->*fn)(request); };
  };
  const auto bind1 = [this](net::HttpResponse (Gateway::*fn)(
                                const net::HttpRequest&,
                                const net::RouteParams&)) {
    return [this, fn](const net::HttpRequest& request,
                      const net::RouteParams& params) {
      return (this->*fn)(request, params);
    };
  };
  // Registers the route and its hit counter in one step. The counter name
  // embeds the route *pattern* — telemetry never sees captured values.
  // route_hits_ parallels the router's registration order, so the route
  // index dispatch reports maps straight to the counter.
  const auto add = [this](Method method, const std::string& pattern,
                          net::RouteHandler handler) {
    router_.add(method, pattern, std::move(handler));
    const std::string method_name{net::to_string(method)};
    route_hits_.push_back(
        &provider_.metrics().counter("w5_route_requests_total{method=\"" +
                                     method_name + "\",route=\"" + pattern +
                                     "\"}"));
  };

  add(Method::kPost, "/signup", bind0(&Gateway::route_signup));
  add(Method::kPost, "/login", bind0(&Gateway::route_login));
  add(Method::kPost, "/logout", bind0(&Gateway::route_logout));
  add(Method::kGet, "/whoami", bind0(&Gateway::route_whoami));
  add(Method::kGet, "/policy", bind0(&Gateway::route_get_policy));
  add(Method::kPost, "/policy", bind0(&Gateway::route_set_policy));
  add(Method::kGet, "/apps", bind0(&Gateway::route_list_apps));
  add(Method::kGet, "/stats", bind0(&Gateway::route_stats));
  add(Method::kGet, "/metrics", bind0(&Gateway::route_metrics));
  add(Method::kGet, "/trace/:id", bind1(&Gateway::route_trace));
  add(Method::kGet, "/debug/statusz", bind0(&Gateway::route_statusz));
  add(Method::kGet, "/debug/slowlog", bind0(&Gateway::route_slowlog));
  add(Method::kGet, "/search", bind0(&Gateway::route_search));
  add(Method::kGet, "/fed/search", bind0(&Gateway::route_fed_search));
  add(Method::kGet, "/developers", bind0(&Gateway::route_developers));
  add(Method::kGet, "/dev-stats", bind0(&Gateway::route_dev_stats));
  add(Method::kGet, "/audit", bind0(&Gateway::route_audit));
  add(Method::kPost, "/invite", bind0(&Gateway::route_invite));
  add(Method::kGet, "/invitations", bind0(&Gateway::route_invitations));
  add(Method::kPost, "/accept", bind0(&Gateway::route_accept));
  add(Method::kPost, "/endorse", bind0(&Gateway::route_endorse));
  add(Method::kGet, "/export", bind0(&Gateway::route_export));
  add(Method::kDelete, "/account", bind0(&Gateway::route_delete_account));
  add(Method::kPost, "/data/:collection/:id",
      bind1(&Gateway::route_put_data));
  add(Method::kGet, "/data/:collection/:id",
      bind1(&Gateway::route_get_data));
  add(Method::kGet, "/data/:collection", bind1(&Gateway::route_list_data));
  add(Method::kDelete, "/data/:collection/:id",
      bind1(&Gateway::route_delete_data));
  for (const auto method : {Method::kGet, Method::kPost, Method::kPut,
                            Method::kDelete}) {
    add(method, "/dev/:developer/:app", bind1(&Gateway::route_app));
    add(method, "/dev/:developer/:app/*rest", bind1(&Gateway::route_app));
  }

  util::MetricsRegistry& metrics = provider_.metrics();
  requests_total_ = &metrics.counter("w5_requests_total");
  responses_2xx_ = &metrics.counter("w5_responses_total{class=\"2xx\"}");
  responses_3xx_ = &metrics.counter("w5_responses_total{class=\"3xx\"}");
  responses_4xx_ = &metrics.counter("w5_responses_total{class=\"4xx\"}");
  responses_5xx_ = &metrics.counter("w5_responses_total{class=\"5xx\"}");
  declassify_allow_ =
      &metrics.counter("w5_declassifier_decisions_total{verdict=\"allow\"}");
  declassify_deny_ =
      &metrics.counter("w5_declassifier_decisions_total{verdict=\"deny\"}");
  exports_allowed_ = &metrics.counter("w5_exports_total{verdict=\"allow\"}");
  exports_blocked_ = &metrics.counter("w5_exports_total{verdict=\"blocked\"}");
  deadline_exceeded_ = &metrics.counter("w5_deadline_exceeded_total");
  request_latency_ = &metrics.histogram("w5_request_latency_micros");
}

net::HttpResponse Gateway::handle(const net::HttpRequest& request) {
  // The W5_NO_TELEMETRY baseline must not pay for clock reads or header
  // stamping either — the whole plane compiles down to a bare dispatch.
  if constexpr (!util::kTelemetryEnabled) return router_.dispatch(request);
  // A validated inbound X-W5-Trace continues an upstream trace (federation
  // peers forward it); anything else mints a fresh id. The context is
  // thread-local-current for the duration, so spans recorded anywhere
  // below land in this request's trace.
  const auto inherited = request.headers.get("X-W5-Trace");
  // X-W5-Sampled propagates the upstream sampling decision: "0" keeps an
  // inherited id from forcing spans on, "1" forces them on.
  RequestContext::Sampling sampling = RequestContext::Sampling::kInherit;
  if (const auto sampled = request.headers.get("X-W5-Sampled")) {
    if (*sampled == "0") sampling = RequestContext::Sampling::kOff;
    if (*sampled == "1") sampling = RequestContext::Sampling::kOn;
  }
  RequestContext context(inherited ? std::string_view(*inherited)
                                   : std::string_view{},
                         sampling);
  // The caller's span id (digits only) — recorded so the stitched tree
  // shows which upstream span this whole request hangs under.
  if (const auto parent = request.headers.get("X-W5-Parent")) {
    if (util::parse_u64(*parent)) context.set_parent_span(*parent);
  }
  // Deadline propagation (DESIGN.md §12): stamp the request's wall-clock
  // budget into the context at admission. A client X-W5-Deadline-Ms can
  // only tighten the provider default, never extend it.
  util::Micros budget = provider_.config().request_deadline_micros;
  if (const auto header = request.headers.get("X-W5-Deadline-Ms")) {
    if (const auto millis = util::parse_u64(*header);
        millis && *millis > 0) {
      const auto requested =
          static_cast<util::Micros>(*millis) * 1000;
      budget = budget > 0 ? std::min(budget, requested) : requested;
    }
  }
  if (budget > 0) {
    static const util::WallClock wall;
    context.set_deadline(wall.now() + budget);
  }
  requests_total_->inc();
  const std::string* pattern = nullptr;
  std::size_t route_index = net::Router::kNoRoute;
  net::HttpResponse response =
      router_.dispatch(request, &pattern, &route_index);
  switch (response.status / 100) {
    case 2: responses_2xx_->inc(); break;
    case 3: responses_3xx_->inc(); break;
    case 4: responses_4xx_->inc(); break;
    case 5: responses_5xx_->inc(); break;
    default: break;
  }
  if (pattern != nullptr) context.set_route(*pattern);
  if (route_index < route_hits_.size()) route_hits_[route_index]->inc();
  context.set_status(response.status);
  if (!context.id().empty())
    response.headers.set("X-W5-Trace", context.id());
  Trace trace = context.finish();  // stamps the total duration
  // Cross-hop stitching: a caller that forwarded its trace id gets this
  // request's span dump back in the response, offsets relative to our
  // request start (the caller rebases onto its own clock). Only for
  // inherited ids — a trace root has nobody to stitch into.
  if (context.inherited() && trace.sampled) {
    std::string wire = encode_spans_for_wire(trace);
    if (!wire.empty()) response.headers.set("X-W5-Spans", std::move(wire));
  }
  request_latency_->observe_with_exemplar(trace.duration, trace.id);
  if (const util::Micros slow_after = provider_.config().slow_request_micros;
      slow_after > 0 && trace.duration >= slow_after)
    provider_.flight_recorder().record(trace);
  provider_.traces().record(std::move(trace));
  return response;
}

std::string Gateway::viewer_of(const net::HttpRequest& request) {
  const auto cookie_header = request.headers.get("Cookie");
  if (!cookie_header) return "";
  const auto cookies = net::parse_cookie_header(*cookie_header);
  const auto token = net::cookie_get(cookies, kSessionCookie);
  if (!token) return "";
  return provider_.sessions().validate(*token).value_or("");
}

// ---- Platform endpoints -----------------------------------------------------

net::HttpResponse Gateway::route_signup(const net::HttpRequest& request) {
  auto params = net::parse_query(request.body);
  if (!params) return json_error(400, "malformed form body");
  const auto user = net::query_get(*params, "user");
  const auto password = net::query_get(*params, "password");
  if (!user || !password) return json_error(400, "user and password required");
  const auto name = net::query_get(*params, "name").value_or(*user);
  if (auto created = provider_.signup(*user, *password, name);
      !created.ok()) {
    provider_.audit().record(AuditKind::kAuthEvent, *user, "signup",
                             created.error().code);
    return json_error(400, created.error().code);
  }
  provider_.audit().record(AuditKind::kAuthEvent, *user, "signup", "ok");
  util::Json body;
  body["user"] = *user;
  return net::HttpResponse::json(201, body.dump());
}

net::HttpResponse Gateway::route_login(const net::HttpRequest& request) {
  auto params = net::parse_query(request.body);
  if (!params) return json_error(400, "malformed form body");
  const auto user = net::query_get(*params, "user");
  const auto password = net::query_get(*params, "password");
  if (!user || !password) return json_error(400, "user and password required");
  auto token = provider_.login(*user, *password);
  if (!token.ok()) {
    provider_.audit().record(AuditKind::kAuthEvent, *user, "login",
                             token.error().code);
    return json_error(401, token.error().code);
  }
  provider_.audit().record(AuditKind::kAuthEvent, *user, "login", "ok");
  net::HttpResponse response = net::HttpResponse::json(200, R"({"ok":true})");
  const net::SetCookie cookie{.name = kSessionCookie,
                              .value = token.value(),
                              .path = "/",
                              .max_age_seconds = -1,
                              .http_only = true};
  response.headers.add("Set-Cookie", cookie.to_header().value_or(""));
  return response;
}

net::HttpResponse Gateway::route_logout(const net::HttpRequest& request) {
  const auto cookie_header = request.headers.get("Cookie");
  if (cookie_header) {
    const auto cookies = net::parse_cookie_header(*cookie_header);
    if (const auto token = net::cookie_get(cookies, kSessionCookie))
      provider_.sessions().revoke(*token);
  }
  return net::HttpResponse::json(200, R"({"ok":true})");
}

net::HttpResponse Gateway::route_whoami(const net::HttpRequest& request) {
  util::Json body;
  const std::string viewer = viewer_of(request);
  body["user"] = viewer.empty() ? util::Json(nullptr) : util::Json(viewer);
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_get_policy(const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  return net::HttpResponse::json(
      200, provider_.policies().get(viewer).to_json().dump());
}

net::HttpResponse Gateway::route_set_policy(const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  auto parsed = util::Json::parse(request.body);
  if (!parsed.ok()) return json_error(400, "policy must be JSON");
  auto policy = UserPolicy::from_json(parsed.value());
  if (!policy.ok()) return json_error(400, policy.error().code);
  // The named declassifier must exist — a typo must not silently leave
  // data guarded by nothing.
  if (provider_.declassifiers().find(policy.value().secrecy_declassifier) ==
      nullptr) {
    return json_error(400, "unknown declassifier");
  }
  provider_.policies().set(viewer, std::move(policy).value());
  provider_.audit().record(AuditKind::kAdmin, viewer, "policy", "updated");
  return net::HttpResponse::json(200, R"({"ok":true})");
}

net::HttpResponse Gateway::route_list_apps(const net::HttpRequest&) {
  util::Json apps = util::Json::array();
  for (const Module* module : provider_.modules().all()) {
    util::Json entry;
    entry["id"] = module->id();
    entry["developer"] = module->developer;
    entry["name"] = module->name;
    entry["version"] = module->version;
    entry["open_source"] = module->manifest.open_source;
    entry["description"] = module->manifest.description;
    entry["fingerprint"] = module->fingerprint;
    if (!module->forked_from.empty())
      entry["forked_from"] = module->forked_from;
    apps.push_back(std::move(entry));
  }
  util::Json body;
  body["apps"] = std::move(apps);
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_stats(const net::HttpRequest&) {
  util::Json body;
  body["users"] = provider_.users().size();
  body["records"] = provider_.store().total_records();
  body["exports_allowed"] =
      provider_.audit().count(AuditKind::kExportAllowed);
  body["exports_blocked"] =
      provider_.audit().count(AuditKind::kExportBlocked);
  body["quota_kills"] = provider_.audit().count(AuditKind::kQuotaKill);
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_search(const net::HttpRequest& request) {
  // Reindex on demand: module registration is rare, searches rarer.
  provider_.search_service().reindex(provider_.modules());
  const std::string query =
      net::query_get(request.parsed.query, "q").value_or("");
  const auto limit = static_cast<std::size_t>(
      util::parse_i64(
          net::query_get(request.parsed.query, "n").value_or("10"))
          .value_or(10));
  return net::HttpResponse::json(
      200, provider_.search_service().search(query, limit).dump());
}

net::HttpResponse Gateway::route_fed_search(const net::HttpRequest& request) {
  // The "everywhere" view (DESIGN.md §18): one query fanned out to every
  // provider this user consented to mirror with, merged and ranked. The
  // gateway stays the perimeter — the local leg's label union passes the
  // export check below, and remote rows already crossed each peer's
  // mirror declassifier under this user's consent.
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  const FederatedSearchFn& search = provider_.federated_search();
  if (!search) return json_error(503, "fed.not_configured");

  FederatedQuery query;
  query.collection =
      net::query_get(request.parsed.query, "collection").value_or("photos");
  query.terms = net::query_get(request.parsed.query, "q").value_or("");
  query.eq_field =
      net::query_get(request.parsed.query, "eq_field").value_or("");
  query.eq_value =
      net::query_get(request.parsed.query, "eq_value").value_or("");
  query.facets = util::split_nonempty(
      net::query_get(request.parsed.query, "facets").value_or(""), ',');
  query.cursor = net::query_get(request.parsed.query, "cursor").value_or("");
  query.principal = "frontend:" + viewer;
  query.limit = 20;
  if (const auto raw = net::query_get(request.parsed.query, "limit")) {
    char* end = nullptr;
    const long parsed = std::strtol(raw->c_str(), &end, 10);
    if (end != raw->c_str() + raw->size() || parsed < 1 || parsed > 200)
      return json_error(400, "limit must be in [1,200]");
    query.limit = static_cast<std::size_t>(parsed);
  }

  auto page = search(os::kKernelPid, viewer, query);
  if (!page.ok()) {
    const std::string& code = page.error().code;
    return json_error(
        code == "fed.bad_cursor" || code == "fed.bad_query" ? 400 : 403,
        code);
  }
  auto response = net::HttpResponse::json(200, page.value().body.dump());
  // Degradation is explicit, never silent: a page missing any peer says
  // so in a header the UI (and the chaos tests) can key off.
  if (page.value().partial) response.headers.set("X-W5-Fed-Partial", "1");
  return export_response(std::move(response), page.value().secrecy, viewer,
                         "fed/metasearch");
}

net::HttpResponse Gateway::route_developers(const net::HttpRequest&) {
  provider_.search_service().reindex(provider_.modules());
  util::Json body;
  body["reputation"] = provider_.search_service().developer_reputations();
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_audit(const net::HttpRequest& request) {
  // Recent security decisions, scrubbed by construction: the audit log
  // holds codes, principals, and label *names* only. The tail query
  // copies one page, not the whole log (?n= page size, ?since= micros
  // cutoff for incremental pulls).
  const auto limit = static_cast<std::size_t>(
      util::parse_i64(
          net::query_get(request.parsed.query, "n").value_or("20"))
          .value_or(20));
  const util::Micros since =
      util::parse_i64(
          net::query_get(request.parsed.query, "since").value_or("0"))
          .value_or(0);
  const auto events = provider_.audit().events(limit, since);
  util::Json items = util::Json::array();
  for (const AuditEvent& event : events) {
    util::Json entry;
    entry["at"] = event.at;
    entry["kind"] = to_string(event.kind);
    entry["actor"] = event.actor;
    entry["subject"] = event.subject;
    entry["detail"] = event.detail;
    if (!event.trace.empty()) entry["trace"] = event.trace;
    items.push_back(std::move(entry));
  }
  util::Json body;
  body["events"] = std::move(items);
  body["total"] = provider_.audit().size();
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_metrics(const net::HttpRequest& request) {
  refresh_runtime_gauges();
  if (net::query_get(request.parsed.query, "format").value_or("") == "json")
    return net::HttpResponse::json(200,
                                   provider_.metrics().to_json().dump());
  net::HttpResponse response =
      net::HttpResponse::text(200, provider_.metrics().to_prometheus());
  response.headers.set("Content-Type", "text/plain; version=0.0.4");
  return response;
}

net::HttpResponse Gateway::route_trace(const net::HttpRequest&,
                                       const net::RouteParams& params) {
  Trace trace;
  switch (provider_.traces().lookup(params.at("id"), &trace)) {
    case TraceBuffer::Lookup::kFound:
      return net::HttpResponse::json(200, trace.to_json().dump());
    case TraceBuffer::Lookup::kEvicted:
      // The id was real but the ring has recycled its slot: "gone", not
      // "never existed" — callers chasing an exemplar can tell a stale
      // pointer from a bogus one.
      return net::HttpResponse::text(204, "");
    case TraceBuffer::Lookup::kUnknown:
      break;
  }
  return json_error(404, "no such trace");
}

net::HttpResponse Gateway::route_statusz(const net::HttpRequest&) {
  refresh_runtime_gauges();  // breaker/pool gauges feed the page
  return net::HttpResponse::json(200, build_statusz(provider_).dump());
}

net::HttpResponse Gateway::route_slowlog(const net::HttpRequest&) {
  util::Json body = provider_.flight_recorder().to_json();
  body["threshold_micros"] = provider_.config().slow_request_micros;
  return net::HttpResponse::json(200, body.dump());
}

void Gateway::refresh_runtime_gauges() {
  const auto as_i64 = [](auto v) { return static_cast<std::int64_t>(v); };
  util::MetricsRegistry& metrics = provider_.metrics();

  const auto ops = provider_.store().op_counts();
  metrics.gauge("w5_store_ops{op=\"get\"}").set(as_i64(ops.gets));
  metrics.gauge("w5_store_ops{op=\"put\"}").set(as_i64(ops.puts));
  metrics.gauge("w5_store_ops{op=\"remove\"}").set(as_i64(ops.removes));
  metrics.gauge("w5_store_ops{op=\"scan\"}").set(as_i64(ops.scans));
  const auto shard_ops = provider_.store().shard_op_counts();
  for (std::size_t i = 0; i < shard_ops.size(); ++i) {
    metrics.gauge("w5_store_shard_ops{shard=\"" + std::to_string(i) + "\"}")
        .set(as_i64(shard_ops[i]));
  }
  metrics.gauge("w5_store_records").set(as_i64(
      provider_.store().total_records()));

  // Query engine + §3.5 governor (DESIGN.md §17); sourced from the
  // record-free QueryEngineStats struct.
  const auto query = provider_.store().query_stats();
  metrics.gauge("w5_store_plans{path=\"field\"}").set(as_i64(query.plans_field));
  metrics.gauge("w5_store_plans{path=\"owner\"}").set(as_i64(query.plans_owner));
  metrics.gauge("w5_store_plans{path=\"scan\"}").set(as_i64(query.plans_scan));
  metrics.gauge("w5_store_label_groups{verdict=\"checked\"}")
      .set(as_i64(query.label_groups_checked));
  metrics.gauge("w5_store_label_groups{verdict=\"skipped\"}")
      .set(as_i64(query.label_groups_skipped));
  metrics.gauge("w5_store_cursor_resumes").set(as_i64(query.cursor_resumes));
  metrics.gauge("w5_store_indexes").set(as_i64(query.registered_indexes));
  metrics.gauge("w5_store_postings{family=\"field\"}")
      .set(as_i64(query.field_postings));
  metrics.gauge("w5_store_postings{family=\"label\"}")
      .set(as_i64(query.label_postings));
  metrics.gauge("w5_store_postings{family=\"owner\"}")
      .set(as_i64(query.owner_postings));
  metrics.gauge("w5_store_queries{verdict=\"admitted\"}")
      .set(as_i64(query.queries_admitted));
  metrics.gauge("w5_store_queries{verdict=\"denied\"}")
      .set(as_i64(query.queries_denied));

  // pool_if_started(): a scrape must never spawn the worker pool.
  if (os::ThreadPool* pool = provider_.pool_if_started()) {
    metrics.gauge("w5_pool_workers").set(as_i64(pool->size()));
    metrics.gauge("w5_pool_active").set(as_i64(pool->active()));
    metrics.gauge("w5_pool_queue_depth").set(as_i64(pool->pending()));
    metrics.gauge("w5_pool_max_queue_depth")
        .set(as_i64(pool->max_queue_depth()));
    metrics.gauge("w5_pool_jobs_submitted")
        .set(as_i64(pool->jobs_submitted()));
    metrics.gauge("w5_pool_jobs_completed")
        .set(as_i64(pool->jobs_completed()));
    metrics.gauge("w5_pool_jobs_rejected")
        .set(as_i64(pool->jobs_rejected()));
    metrics.gauge("w5_pool_queue_limit").set(as_i64(pool->queue_limit()));
  }

  // serve()'s robustness counters (DESIGN.md §12): slow-client reaping,
  // load shedding, and oversize rejections at the front door.
  const net::ServerStats& net_stats = provider_.server_stats();
  metrics.gauge("w5_net_io_timeouts")
      .set(as_i64(net_stats.timeouts_total.load()));
  metrics.gauge("w5_net_connections_reaped")
      .set(as_i64(net_stats.reaped_total.load()));
  metrics.gauge("w5_net_connections_shed")
      .set(as_i64(net_stats.shed_total.load()));
  metrics.gauge("w5_net_requests_handled")
      .set(as_i64(net_stats.handled_total.load()));
  metrics.gauge("w5_net_rejected{status=\"413\"}")
      .set(as_i64(net_stats.rejected_413_total.load()));
  metrics.gauge("w5_net_rejected{status=\"431\"}")
      .set(as_i64(net_stats.rejected_431_total.load()));

  // Connection-plane telemetry (DESIGN.md §15): live open/idle levels
  // plus lifetime accept/timeout/reset totals.
  const net::ConnStats& conn_stats = provider_.conn_stats();
  metrics.gauge("w5_net_open_connections").set(conn_stats.open.load());
  metrics.gauge("w5_net_idle_connections").set(conn_stats.idle.load());
  metrics.gauge("w5_net_connections_accepted")
      .set(as_i64(conn_stats.accepted_total.load()));
  metrics.gauge("w5_net_timeout_closes")
      .set(as_i64(conn_stats.timeout_closes_total.load()));
  metrics.gauge("w5_net_connection_resets")
      .set(as_i64(conn_stats.reset_total.load()));

  const difc::FlowCache& cache = difc::FlowCache::instance();
  metrics.gauge("w5_flow_cache_hits").set(as_i64(cache.hits()));
  metrics.gauge("w5_flow_cache_misses").set(as_i64(cache.misses()));
  metrics.gauge("w5_flow_cache_invalidations")
      .set(as_i64(cache.invalidations()));
  metrics.gauge("w5_flow_cache_size").set(as_i64(cache.size()));
  metrics.gauge("w5_label_table_size")
      .set(as_i64(difc::LabelTable::instance().size()));
  metrics.gauge("w5_label_table_epoch")
      .set(as_i64(difc::LabelTable::instance().epoch()));

  metrics.gauge("w5_audit_events_retained")
      .set(as_i64(provider_.audit().size()));
  metrics.gauge("w5_audit_events_dropped")
      .set(as_i64(provider_.audit().dropped()));
  metrics.gauge("w5_traces_recorded").set(as_i64(
      provider_.traces().recorded()));
  metrics.gauge("w5_traces_retained").set(as_i64(provider_.traces().size()));
  // Monotonic total, exported as a gauge the same way the other lifetime
  // counts above are: the source atomic is the truth, the gauge a mirror.
  metrics.gauge("w5_trace_dropped_total")
      .set(as_i64(provider_.traces().dropped()));
  metrics.gauge("w5_slowlog_recorded")
      .set(as_i64(provider_.flight_recorder().recorded()));
  metrics.gauge("w5_users").set(as_i64(provider_.users().size()));
}

// ---- Invitations (§1: "a prospective user can sign up simply by
// checking a box or 'accepting an invitation'"; §2: forking developers
// get "a pool of users (who need only check a box on a form to begin
// using the modified application)"). An invitation is a pending grant;
// accepting it applies the module's write grant to the user's policy in
// one POST — the entire adoption cost of a new application.

net::HttpResponse Gateway::route_invite(const net::HttpRequest& request) {
  const std::string from = viewer_of(request);
  if (from.empty()) return json_error(401, "login required");
  auto params = net::parse_query(request.body);
  if (!params) return json_error(400, "malformed form body");
  const auto to = net::query_get(*params, "to");
  const auto app = net::query_get(*params, "app");
  if (!to || !app) return json_error(400, "to and app required");
  if (provider_.users().find(*to) == nullptr)
    return json_error(404, "no such user");
  // Validate the module path exists (any version).
  const auto slash = app->find('/');
  if (slash == std::string::npos ||
      provider_.modules().resolve(app->substr(0, slash),
                                  app->substr(slash + 1)) == nullptr) {
    return json_error(404, "no such application");
  }
  // The invitation is the invitee's data: labeled for them, written by
  // the trusted front-end.
  const UserAccount* invitee = provider_.users().find(*to);
  store::Record record;
  record.collection = "invitations";
  record.id = *to + ":" + *app;
  record.owner = *to;
  record.labels =
      difc::ObjectLabels{difc::Label{invitee->secrecy_tag},
                         difc::Label{invitee->write_tag}};
  record.data["app"] = *app;
  record.data["from"] = from;
  record.data["accepted"] = false;
  const os::Pid pid = provider_.kernel().spawn_trusted(
      "frontend:invite",
      difc::LabelState({invitee->secrecy_tag}, {invitee->write_tag}, {}));
  auto status = provider_.store().put(pid, std::move(record));
  (void)provider_.kernel().exit(pid);
  provider_.kernel().reap(pid);
  if (!status.ok()) return json_error(403, status.error().code);
  provider_.audit().record(AuditKind::kAdmin, from, "invite",
                           *to + " -> " + *app);
  return net::HttpResponse::json(201, R"({"ok":true})");
}

net::HttpResponse Gateway::route_invitations(
    const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  auto records = provider_.store().query(
      os::kKernelPid, "invitations",
      store::QueryOptions{.owner = viewer});
  util::Json items = util::Json::array();
  if (records.ok()) {
    for (const auto& record : records.value()) {
      util::Json entry;
      entry["app"] = record.data.at("app");
      entry["from"] = record.data.at("from");
      entry["accepted"] = record.data.at("accepted");
      items.push_back(std::move(entry));
    }
  }
  util::Json body;
  body["invitations"] = std::move(items);
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_accept(const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  auto params = net::parse_query(request.body);
  if (!params) return json_error(400, "malformed form body");
  const auto app = net::query_get(*params, "app");
  if (!app) return json_error(400, "app required");
  auto record = provider_.store().get(os::kKernelPid, "invitations",
                                      viewer + ":" + *app);
  if (!record.ok()) return json_error(404, "no such invitation");

  // "Checking the box": one policy update, no data moves.
  UserPolicy policy = provider_.policies().get(viewer);
  if (!policy.grants_write(*app)) policy.write_grants.push_back(*app);
  provider_.policies().set(viewer, std::move(policy));

  record.value().data["accepted"] = true;
  const UserAccount* account = provider_.users().find(viewer);
  const os::Pid pid = provider_.kernel().spawn_trusted(
      "frontend:accept",
      difc::LabelState({account->secrecy_tag}, {account->write_tag}, {}));
  (void)provider_.store().put(pid, record.value());
  (void)provider_.kernel().exit(pid);
  provider_.kernel().reap(pid);
  provider_.audit().record(AuditKind::kAdmin, viewer, "accept", *app);
  return net::HttpResponse::json(200, R"({"ok":true})");
}

net::HttpResponse Gateway::route_endorse(const net::HttpRequest& request) {
  // §3.2 editors: any logged-in user may vet software; their weight in
  // search accrues only as users actually adopt what they endorse.
  const std::string editor = viewer_of(request);
  if (editor.empty()) return json_error(401, "login required");
  auto params = net::parse_query(request.body);
  if (!params) return json_error(400, "malformed form body");
  const auto app = net::query_get(*params, "app");
  if (!app) return json_error(400, "app required");
  if (provider_.modules().resolve_id(*app) == nullptr)
    return json_error(404, "no such module");
  double confidence = 1.0;
  if (const auto raw = net::query_get(*params, "confidence")) {
    char* end = nullptr;
    confidence = std::strtod(raw->c_str(), &end);
    if (end != raw->c_str() + raw->size() || confidence <= 0 ||
        confidence > 1) {
      return json_error(400, "confidence must be in (0,1]");
    }
  }
  provider_.search_service().endorse(editor, *app, confidence);
  provider_.audit().record(AuditKind::kAdmin, editor, "endorse", *app);
  return net::HttpResponse::json(200, R"({"ok":true})");
}

// ---- Data portability (§1: today "a new photo sharing application would
// require a user to retrieve her collection from an existing provider and
// upload it to the new one" — and providers make even that hard). On W5
// the user's data is theirs: one request exports all of it (to its owner,
// through the ordinary perimeter rules), and one request deletes the
// account and every record it owns.

net::HttpResponse Gateway::route_export(const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");

  // Gather everything the viewer owns, across all collections; each
  // record still passes the export check (owner → owner always passes
  // the boilerplate policy; an idiosyncratic declassifier could refuse).
  util::Json records = util::Json::array();
  difc::Label combined;
  // Collections are not enumerable via the app API by design; the
  // trusted front-end may scan (it is inside the TCB).
  for (const auto& record :
       provider_.store().export_owned_by(viewer)) {
    util::Json entry;
    entry["collection"] = record.collection;
    entry["id"] = record.id;
    entry["data"] = record.data;
    entry["version"] = record.version;
    records.push_back(std::move(entry));
    combined = combined.union_with(record.labels.secrecy);
  }
  util::Json body;
  body["user"] = viewer;
  body["records"] = std::move(records);
  auto response = net::HttpResponse::json(200, body.dump());
  return export_response(std::move(response), combined, viewer,
                         "platform/export");
}

net::HttpResponse Gateway::route_delete_account(
    const net::HttpRequest& request) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  const UserAccount* account = provider_.users().find(viewer);
  if (account == nullptr) return json_error(404, "no such account");

  // Delete every record the user owns (trusted path endorsed as them).
  std::size_t removed = 0;
  for (const auto& record : provider_.store().export_owned_by(viewer)) {
    const os::Pid pid = provider_.kernel().spawn_trusted(
        "frontend:delete-account:" + viewer,
        difc::LabelState({account->secrecy_tag}, {account->write_tag},
                         difc::CapabilitySet{
                             difc::plus(account->read_tag)}));
    if (provider_.store().remove(pid, record.collection, record.id).ok())
      ++removed;
    (void)provider_.kernel().exit(pid);
    provider_.kernel().reap(pid);
  }
  provider_.sessions().revoke_all(viewer);
  provider_.users().remove(viewer);
  provider_.audit().record(AuditKind::kAdmin, viewer, "account-deleted",
                           std::to_string(removed) + " records removed");
  util::Json body;
  body["deleted_records"] = removed;
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_dev_stats(const net::HttpRequest& request) {
  // §3.5 Debugging: "developers need to get some information when their
  // applications malfunction" — without core dumps that would expose
  // users' data. The audit log records failures as scrubbed events
  // (exception type / error code only); this endpoint aggregates them
  // per module for the developer.
  const std::string module_id =
      net::query_get(request.parsed.query, "app").value_or("");
  if (module_id.empty()) return json_error(400, "app parameter required");
  std::size_t errors = 0;
  std::size_t quota_kills = 0;
  std::size_t exports_blocked = 0;
  std::string last_error;
  for (const auto& event : provider_.audit().events()) {
    if (event.actor != module_id) continue;
    switch (event.kind) {
      case AuditKind::kAppError:
        ++errors;
        last_error = event.detail;  // exception type name only
        break;
      case AuditKind::kQuotaKill:
        ++quota_kills;
        break;
      case AuditKind::kExportBlocked:
        ++exports_blocked;
        break;
      default:
        break;
    }
  }
  util::Json body;
  body["app"] = module_id;
  body["errors"] = errors;
  body["quota_kills"] = quota_kills;
  body["exports_blocked"] = exports_blocked;
  body["last_error_type"] = last_error;
  return net::HttpResponse::json(200, body.dump());
}

net::HttpResponse Gateway::route_put_data(const net::HttpRequest& request,
                                          const net::RouteParams& params) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  const UserAccount* account = provider_.users().find(viewer);
  auto data = util::Json::parse(request.body);
  if (!data.ok()) return json_error(400, "body must be JSON");

  const std::string& collection = params.at("collection");
  store::Record record;
  record.collection = collection;
  record.id = params.at("id");
  record.owner = viewer;
  record.data = std::move(data).value();
  difc::Label secrecy{account->secrecy_tag};
  if (provider_.policies().get(viewer).is_private_collection(collection))
    secrecy = secrecy.with(account->read_tag);
  record.labels =
      difc::ObjectLabels{secrecy, difc::Label{account->write_tag}};

  // Uploading your own data is provider-written trusted code (§2), but
  // overwriting an existing record still honors its labels: spawn a
  // process endorsed as the user rather than using raw kernel authority.
  const os::Pid pid = provider_.kernel().spawn_trusted(
      "frontend:put-data:" + viewer,
      difc::LabelState({account->secrecy_tag}, {account->write_tag}, {}));
  // No span here: the "POST /data/:collection/:id" route pattern already
  // names this store write, and the direct data path is the hot path.
  // Store spans live in AppContext, where attribution is ambiguous.
  util::Status status = provider_.store().put(pid, std::move(record));
  (void)provider_.kernel().exit(pid);
  provider_.kernel().reap(pid);
  if (!status.ok()) {
    provider_.audit().record(AuditKind::kFlowDenied, viewer,
                             collection + "/" + params.at("id"),
                             status.error().code);
    return json_error(403, status.error().code);
  }
  return net::HttpResponse::json(201, R"({"ok":true})");
}

net::HttpResponse Gateway::route_get_data(const net::HttpRequest& request,
                                          const net::RouteParams& params) {
  const std::string viewer = viewer_of(request);
  // Trusted read, then the data must still pass the perimeter to reach
  // the viewer's browser — same rule as any app response.
  // No span: the route pattern already names this read (see route_put_data).
  auto record = provider_.store().get(os::kKernelPid, params.at("collection"),
                                      params.at("id"));
  if (!record.ok()) return json_error(404, record.error().code);
  auto response =
      net::HttpResponse::json(200, record.value().data.dump());
  return export_response(std::move(response),
                         record.value().labels.secrecy, viewer,
                         "platform/data-read");
}

net::HttpResponse Gateway::route_list_data(const net::HttpRequest& request,
                                           const net::RouteParams& params) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  store::QueryOptions options;
  options.owner = viewer;  // the front-end lists *your* rows
  options.principal = "frontend:" + viewer;
  options.cursor =
      net::query_get(request.parsed.query, "cursor").value_or("");
  options.limit = 50;
  if (const auto raw = net::query_get(request.parsed.query, "limit")) {
    char* end = nullptr;
    const long parsed = std::strtol(raw->c_str(), &end, 10);
    if (end != raw->c_str() + raw->size() || parsed < 1 || parsed > 200)
      return json_error(400, "limit must be in [1,200]");
    options.limit = static_cast<std::size_t>(parsed);
  }
  // Trusted read (owner-scoped), then the page must still pass the
  // perimeter to reach the viewer's browser — same rule as single reads.
  auto page = provider_.store().query_page(os::kKernelPid,
                                           params.at("collection"), options);
  if (!page.ok()) {
    return json_error(
        page.error().code == "store.bad_cursor" ? 400 : 403,
        page.error().code);
  }
  difc::Label combined;
  util::Json items = util::Json::array();
  for (const auto& record : page.value().records) {
    combined = combined.union_with(record.labels.secrecy);
    util::Json entry;
    entry["id"] = record.id;
    entry["data"] = record.data;
    items.push_back(std::move(entry));
  }
  util::Json body;
  body["items"] = std::move(items);
  body["next_cursor"] = page.value().next_cursor;
  auto response = net::HttpResponse::json(200, body.dump());
  return export_response(std::move(response), combined, viewer,
                         "platform/data-read");
}

net::HttpResponse Gateway::route_delete_data(const net::HttpRequest& request,
                                             const net::RouteParams& params) {
  const std::string viewer = viewer_of(request);
  if (viewer.empty()) return json_error(401, "login required");
  const UserAccount* account = provider_.users().find(viewer);
  const os::Pid pid = provider_.kernel().spawn_trusted(
      "frontend:delete-data:" + viewer,
      difc::LabelState({account->secrecy_tag}, {account->write_tag},
                       difc::CapabilitySet{difc::plus(account->read_tag)}));
  auto status = provider_.store().remove(pid, params.at("collection"),
                                         params.at("id"));
  (void)provider_.kernel().exit(pid);
  provider_.kernel().reap(pid);
  if (!status.ok()) return json_error(403, status.error().code);
  return net::HttpResponse::json(200, R"({"ok":true})");
}

// ---- Application invocation --------------------------------------------------

bool Gateway::module_components_trusted(const Module& module,
                                        const UserPolicy& policy) const {
  if (policy.trusted_fingerprints.empty()) return true;  // feature off
  const auto trusted = [&](const std::string& fingerprint) {
    return std::find(policy.trusted_fingerprints.begin(),
                     policy.trusted_fingerprints.end(),
                     fingerprint) != policy.trusted_fingerprints.end();
  };
  if (!trusted(module.fingerprint)) return false;
  for (const auto& import_id : module.manifest.imports) {
    const Module* component = provider_.modules().resolve_id(import_id);
    // A missing or unaudited component fails closed.
    if (component == nullptr || !trusted(component->fingerprint))
      return false;
  }
  return true;
}

net::HttpResponse Gateway::route_app(const net::HttpRequest& request,
                                     const net::RouteParams& params) {
  // Deadline check before spawning a labeled process: a request that
  // queued past its budget gets 504 instead of burning a worker on an
  // answer nobody is waiting for (DESIGN.md §12).
  if (RequestContext::deadline_expired()) {
    if (deadline_exceeded_ != nullptr) deadline_exceeded_->inc();
    return json_error(504, "deadline exceeded");
  }
  const std::string viewer = viewer_of(request);
  const std::string& developer = params.at("developer");
  const std::string& app = params.at("app");

  // Version selection: explicit ?version= beats the user's pin beats
  // latest (§2: users choose particular versions).
  std::string version =
      net::query_get(request.parsed.query, "version").value_or("");
  if (version.empty() && !viewer.empty()) {
    const auto& pins = provider_.policies().get(viewer).version_pins;
    const auto pin = pins.find(developer + "/" + app);
    if (pin != pins.end()) version = pin->second;
  }
  const Module* module = provider_.modules().resolve(developer, app, version);
  if (module == nullptr) return json_error(404, "no such application");

  // Resource containers: per-app parent, per-request child (§3.5).
  os::ResourceContainer* app_container = provider_.modules().container_for(
      module->path(), provider_.config().app_limits);
  os::ResourceContainer request_container(
      "request:" + module->path(), provider_.config().request_limits,
      app_container);

  // Initial label state (DESIGN.md §3.3): clean secrecy and integrity.
  // A write grant arrives as the wp(viewer)+ *capability*, exercised at
  // each write (endorsed endpoint), never as a standing integrity label —
  // a process labeled I={wp(u)} could no longer read anyone else's
  // unendorsed data (Flume's read rule), which would break every
  // multi-user app the moment its user granted it write access.
  // rp(viewer)+ similarly when the viewer granted read-protected access.
  difc::CapabilitySet owned;
  if (!viewer.empty()) {
    const UserAccount* account = provider_.users().find(viewer);
    const UserPolicy& policy = provider_.policies().get(viewer);
    // §3.1 integrity protection: with a trusted-fingerprint list set,
    // a module only *acts on the user's behalf* (receives grants) when
    // it and every imported component are on the list. The module still
    // runs — just without the user's privileges.
    const bool meritorious = module_components_trusted(*module, policy);
    if (!meritorious) {
      provider_.audit().record(AuditKind::kAdmin, module->id(),
                               "integrity-protection",
                               "grants withheld: unaudited component");
    }
    if (account != nullptr && meritorious &&
        policy.grants_write(module->path()))
      owned.add(difc::plus(account->write_tag));
    if (account != nullptr && meritorious &&
        policy.grants_read(module->path()))
      owned.add(difc::plus(account->read_tag));
  }
  const std::string module_id = module->id();  // concatenates; build once
  os::Pid pid;
  {
    ScopedSpan span("kernel.spawn", module_id);
    pid = provider_.kernel().spawn_trusted(
        "app:" + module_id, difc::LabelState({}, {}, owned),
        &request_container);
  }

  AppContext context(provider_, pid, *module, viewer, request, params);
  net::HttpResponse response;
  try {
    ScopedSpan span("app", module_id);
    response = module->handler(context);
  } catch (const std::exception& e) {
    // §3.5 Debugging: developers get a signal that their app failed, but
    // the diagnostic channel carries no user data — exception *type* only.
    provider_.audit().record(AuditKind::kAppError, module->id(),
                             request.parsed.path, typeid(e).name());
    (void)provider_.kernel().kill(pid, "app exception");
    provider_.kernel().reap(pid);
    return json_error(500, "application error");
  }

  const os::Process* process = provider_.kernel().find(pid);
  if (process == nullptr || process->status == os::ProcessStatus::kKilled) {
    // Killed mid-request (quota): the partial response must not escape.
    provider_.audit().record(AuditKind::kQuotaKill, module->id(),
                             request.parsed.path,
                             process != nullptr ? process->exit_reason : "");
    return json_error(503, "application over quota");
  }
  const difc::Label label = process->labels.secrecy();
  (void)provider_.kernel().exit(pid);
  provider_.kernel().reap(pid);

  // Popularity mining for code search (§3.2): every completed invocation
  // counts as a use.
  provider_.search_service().record_use(module->id());

  return export_response(std::move(response), label, viewer, module->id());
}

util::Result<difc::CapabilitySet> Gateway::authorize_export(
    const difc::Label& label, const std::string& viewer,
    const std::string& module_id, const std::string& destination,
    std::size_t byte_count) {
  // Distinct owners on the label (for aggregate declassifiers).
  std::set<std::string> owners;
  for (const difc::Tag tag : label.tags()) {
    if (const UserAccount* account = provider_.users().owner_of_tag(tag))
      owners.insert(account->id);
  }

  difc::CapabilitySet authority;
  for (const difc::Tag tag : label.tags()) {
    const UserAccount* owner = provider_.users().owner_of_tag(tag);
    if (owner == nullptr) {
      return util::make_error(
          "perimeter.denied",
          "no owner for tag " + provider_.kernel().tags().describe(tag));
    }
    // Read-protect tags are never exported through user-picked policy:
    // owner-only, always.
    const difc::TagInfo* info = provider_.kernel().tags().find(tag);
    const bool read_protect =
        info != nullptr && info->purpose == difc::TagPurpose::kReadProtect;

    const std::string declassifier_id =
        read_protect ? std::string("std/owner-only")
                     : provider_.policies().get(owner->id)
                           .secrecy_declassifier;
    Declassifier* declassifier =
        provider_.declassifiers().find(declassifier_id);
    if (declassifier == nullptr) {
      return util::make_error("perimeter.denied",
                              "declassifier '" + declassifier_id +
                                  "' not installed");
    }
    ExportRequest export_request{viewer,       owner->id,
                                 tag,          module_id,
                                 destination,  byte_count,
                                 owners.size()};
    // Span note: declassifier id only — policy names, never data.
    ScopedSpan span("declassify", declassifier_id);
    auto verdict = declassifier->decide(export_request);
    (verdict.ok() ? declassify_allow_ : declassify_deny_)->inc();
    provider_.audit().record(
        AuditKind::kDeclassifierDecision, declassifier_id,
        provider_.kernel().tags().describe(tag),
        verdict.ok() ? "allow viewer=" + viewer
                     : verdict.error().code + " viewer=" + viewer);
    if (!verdict.ok()) return verdict.error();
    authority.add(difc::minus(tag));
  }
  return authority;
}

net::HttpResponse Gateway::export_response(net::HttpResponse response,
                                           const difc::Label& label,
                                           const std::string& viewer,
                                           const std::string& module_id) {
  auto authority = authorize_export(label, viewer, module_id, "browser",
                                    response.body.size());
  if (!authority.ok()) {
    exports_blocked_->inc();
    provider_.audit().record(AuditKind::kExportBlocked, module_id,
                             label.to_string(), authority.error().detail);
    return perimeter_denial();
  }
  // The real DIFC check, with exactly the authority the declassifiers
  // granted — belt and suspenders over the per-tag loop above.
  {
    ScopedSpan span("flow-check");
    if (auto allowed = difc::check_export(label, authority.value());
        !allowed.ok()) {
      exports_blocked_->inc();
      provider_.audit().record(AuditKind::kExportBlocked, module_id,
                               label.to_string(), allowed.error().detail);
      return perimeter_denial();
    }
  }
  exports_allowed_->inc();

  if (provider_.config().strip_javascript) {
    const auto content_type = response.headers.get("Content-Type");
    if (content_type &&
        content_type->find("text/html") != std::string::npos) {
      bool modified = false;
      response.body = strip_javascript(response.body, &modified);
      if (modified) {
        provider_.audit().record(AuditKind::kAdmin, module_id,
                                 "sanitizer", "stripped scripts");
      }
    }
  }

  // Label transparency: tell the client which tags were declassified to
  // produce this response (names only — labels are not secret), and pin
  // scripts off via CSP when the provider filters JavaScript (the
  // MashupOS-flavored client-side extension the paper floats in §3.5).
  if (!label.empty()) {
    std::string names;
    for (const difc::Tag tag : label.tags()) {
      if (!names.empty()) names += ",";
      names += provider_.kernel().tags().describe(tag);
    }
    response.headers.set("X-W5-Label", names);
  }
  if (provider_.config().strip_javascript)
    response.headers.set("Content-Security-Policy", "script-src 'none'");

  provider_.audit().record(AuditKind::kExportAllowed, module_id,
                           label.to_string(), "viewer=" + viewer);
  return response;
}

}  // namespace w5::platform
