// Gateway: the provider's HTTP front door and the security perimeter.
//
// This is the component the paper's §3.1 describes: it authenticates the
// viewer from cookies, launches a fresh labeled process per application
// request, and — critically — applies the export check on the way out:
// every secrecy tag on the response must be approved by the tag-owner's
// chosen declassifier, or the response is replaced by a generic 403
// carrying no application-controlled bytes.
#pragma once

#include <string>
#include <unordered_map>

#include "core/app_context.h"
#include "core/provider.h"
#include "net/router.h"
#include "util/metrics.h"

namespace w5::platform {

class Gateway {
 public:
  explicit Gateway(Provider& provider);

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  net::HttpResponse handle(const net::HttpRequest& request);

  // Export check, factored out so the federation layer can reuse it for
  // peer syncs: may `label` leave the perimeter toward `viewer` at
  // `destination`? On success returns the assembled declassification
  // authority (the minus-capabilities the approving declassifiers
  // exercised).
  util::Result<difc::CapabilitySet> authorize_export(
      const difc::Label& label, const std::string& viewer,
      const std::string& module_id, const std::string& destination,
      std::size_t byte_count);

 private:
  // Authenticated user for this request, "" when anonymous.
  std::string viewer_of(const net::HttpRequest& request);

  // ---- Platform endpoints (provider-written trusted code, §2) -------------
  net::HttpResponse route_signup(const net::HttpRequest& request);
  net::HttpResponse route_login(const net::HttpRequest& request);
  net::HttpResponse route_logout(const net::HttpRequest& request);
  net::HttpResponse route_whoami(const net::HttpRequest& request);
  net::HttpResponse route_get_policy(const net::HttpRequest& request);
  net::HttpResponse route_set_policy(const net::HttpRequest& request);
  net::HttpResponse route_list_apps(const net::HttpRequest& request);
  net::HttpResponse route_put_data(const net::HttpRequest& request,
                                   const net::RouteParams& params);
  net::HttpResponse route_get_data(const net::HttpRequest& request,
                                   const net::RouteParams& params);
  net::HttpResponse route_list_data(const net::HttpRequest& request,
                                    const net::RouteParams& params);
  net::HttpResponse route_delete_data(const net::HttpRequest& request,
                                      const net::RouteParams& params);
  net::HttpResponse route_stats(const net::HttpRequest& request);
  net::HttpResponse route_search(const net::HttpRequest& request);
  // GET /fed/search: federated metasearch via the FederatedSearchFn seam
  // (503 until fed::Metasearch::install() sets it). Marks degraded pages
  // with X-W5-Fed-Partial: 1.
  net::HttpResponse route_fed_search(const net::HttpRequest& request);
  net::HttpResponse route_developers(const net::HttpRequest& request);
  net::HttpResponse route_dev_stats(const net::HttpRequest& request);
  net::HttpResponse route_audit(const net::HttpRequest& request);
  net::HttpResponse route_metrics(const net::HttpRequest& request);
  net::HttpResponse route_statusz(const net::HttpRequest& request);
  net::HttpResponse route_slowlog(const net::HttpRequest& request);
  net::HttpResponse route_trace(const net::HttpRequest& request,
                                const net::RouteParams& params);
  net::HttpResponse route_invite(const net::HttpRequest& request);
  net::HttpResponse route_invitations(const net::HttpRequest& request);
  net::HttpResponse route_accept(const net::HttpRequest& request);
  net::HttpResponse route_endorse(const net::HttpRequest& request);
  net::HttpResponse route_export(const net::HttpRequest& request);
  net::HttpResponse route_delete_account(const net::HttpRequest& request);

  // ---- Application invocation (developer code, untrusted) ------------------
  net::HttpResponse route_app(const net::HttpRequest& request,
                              const net::RouteParams& params);

  // §3.1 integrity protection: module + all imports audited by the user.
  bool module_components_trusted(const Module& module,
                                 const UserPolicy& policy) const;

  // Final perimeter step shared by app responses and /data reads.
  net::HttpResponse export_response(net::HttpResponse response,
                                    const difc::Label& label,
                                    const std::string& viewer,
                                    const std::string& module_id);

  // Copies component-local counters (store shards, flow cache, thread
  // pool, audit, traces) into registry gauges; called per /metrics scrape.
  void refresh_runtime_gauges();

  Provider& provider_;
  net::Router router_;

  // Metrics, resolved once here so the request path updates them with a
  // single relaxed atomic each — no registry lookups while serving.
  util::Counter* requests_total_ = nullptr;
  util::Counter* responses_2xx_ = nullptr;
  util::Counter* responses_3xx_ = nullptr;
  util::Counter* responses_4xx_ = nullptr;
  util::Counter* responses_5xx_ = nullptr;
  util::Counter* declassify_allow_ = nullptr;
  util::Counter* declassify_deny_ = nullptr;
  util::Counter* exports_allowed_ = nullptr;
  util::Counter* exports_blocked_ = nullptr;
  util::Counter* deadline_exceeded_ = nullptr;
  util::Histogram* request_latency_ = nullptr;
  // Per-route hit counters in registration order, indexed by the route
  // index the router reports from dispatch. Built in the constructor and
  // read-only afterwards: a lookup is one bounds check and one array
  // load — no hashing, no allocation, no lock.
  std::vector<util::Counter*> route_hits_;
};

// The answer to a request whose mutation the write-ahead log could not
// make durable (DESIGN.md §13): 503 with the log's error code. A server
// fault, not a DIFC decision, so no flow-denied audit row goes with it.
// In-process requests get it from the route; parked reactor requests get
// it from Provider::serve when the log fails before their fsync.
net::HttpResponse durability_failure(const util::Error& error);

}  // namespace w5::platform
