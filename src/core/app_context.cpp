#include "core/app_context.h"

#include "core/audit.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "core/trace.h"

namespace w5::platform {

AppContext::AppContext(Provider& provider, os::Pid pid, const Module& module,
                       std::string viewer, const net::HttpRequest& request,
                       net::RouteParams params)
    : provider_(provider),
      pid_(pid),
      module_(module),
      viewer_(std::move(viewer)),
      request_(request),
      params_(std::move(params)) {}

std::string AppContext::param(const std::string& name,
                              const std::string& fallback) const {
  const auto it = params_.find(name);
  return it == params_.end() ? fallback : it->second;
}

std::string AppContext::query_param(const std::string& name,
                                    const std::string& fallback) const {
  return net::query_get(request_.parsed.query, name).value_or(fallback);
}

// Store spans carry no note: collection names and record ids are
// app-controlled strings, and a malicious module must not be able to
// smuggle record bytes into a trace through them (DESIGN.md §11 — spans
// record *what kind* of operation ran and how long, nothing the app
// chose).

util::Result<store::Record> AppContext::get_record(
    const std::string& collection, const std::string& id) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  ScopedSpan span("store.get");
  return provider_.store().get(pid_, collection, id, store::Raise::kYes);
}

util::Result<std::vector<store::Record>> AppContext::query(
    const std::string& collection, const store::QueryOptions& options) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  ScopedSpan span("store.query");
  store::QueryOptions metered = options;
  metered.principal = module_.id();
  return provider_.store().query(pid_, collection, metered,
                                 store::Raise::kYes);
}

util::Result<store::QueryPage> AppContext::query_page(
    const std::string& collection, const store::QueryOptions& options) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  ScopedSpan span("store.query");
  store::QueryOptions metered = options;
  metered.principal = module_.id();
  return provider_.store().query_page(pid_, collection, metered,
                                      store::Raise::kYes);
}

util::Result<std::size_t> AppContext::count(
    const std::string& collection, const store::QueryOptions& options) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  ScopedSpan span("store.count");
  store::QueryOptions metered = options;
  metered.principal = module_.id();
  return provider_.store().count(pid_, collection, metered);
}

util::Status AppContext::put_record(store::Record record) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged;
  ScopedSpan span("store.put");
  return provider_.store().put(pid_, std::move(record));
}

util::Status AppContext::remove_record(const std::string& collection,
                                       const std::string& id) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged;
  ScopedSpan span("store.remove");
  return provider_.store().remove(pid_, collection, id);
}

util::Result<store::Record> AppContext::make_user_record(
    const std::string& owner, const std::string& collection,
    const std::string& id, util::Json data) const {
  const UserAccount* account = provider_.users().find(owner);
  if (account == nullptr)
    return util::make_error("user.not_found", "no such user '" + owner + "'");
  store::Record record;
  record.collection = collection;
  record.id = id;
  record.owner = owner;
  record.data = std::move(data);
  record.labels = provider_.record_labels(*account, collection);
  return record;
}

util::Result<std::string> AppContext::read_file(const std::string& path) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  return provider_.fs().read(pid_, path, os::AutoRaise::kYes);
}

util::Status AppContext::write_file(const std::string& path,
                                    std::string content) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged;
  return provider_.fs().write(pid_, path, std::move(content));
}

util::Status AppContext::create_file(const std::string& path,
                                     const difc::ObjectLabels& labels,
                                     std::string content) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged;
  return provider_.fs().create(pid_, path, labels, std::move(content));
}

difc::Label AppContext::current_secrecy() const {
  const os::Process* process = provider_.kernel().find(pid_);
  return process != nullptr ? process->labels.secrecy() : difc::Label{};
}

util::Result<FederatedPage> AppContext::federated_search(
    FederatedQuery query) {
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();
  const FederatedSearchFn& search = provider_.federated_search();
  if (!search) {
    return util::make_error("fed.not_configured",
                            "this provider does not federate");
  }
  ScopedSpan span("fed.search");
  // The §3.5 budget meters the module whatever principal the app claims,
  // same stamp as every other scan; the viewer identity still decides
  // the consent-gated fan-out set inside the seam.
  query.principal = module_.id();
  return search(pid_, viewer_, query);
}

util::Result<std::string> AppContext::fetch_external(const std::string& url) {
  // The app process holds no declassification authority, so any secrecy
  // contamination at all blocks the call (difc::check_export with an
  // empty authority set).
  const difc::Label secrecy = current_secrecy();
  if (auto allowed = difc::check_export(secrecy, difc::CapabilitySet{});
      !allowed.ok()) {
    provider_.audit().record(
        AuditKind::kExportBlocked, module_.id(), url,
        "fetch_external with secrecy " + secrecy.to_string());
    return allowed.error();
  }
  if (auto charged =
          charge(os::Resource::kNetwork, static_cast<std::int64_t>(url.size()));
      !charged.ok()) {
    return charged.error();
  }
  const auto& fetcher = provider_.external_fetcher();
  if (!fetcher)
    return util::make_error("net.unreachable", "no external network");
  return fetcher(url);
}

util::Result<net::HttpResponse> AppContext::call_module(
    const std::string& developer, const std::string& app,
    const std::string& rest, const std::string& query) {
  constexpr int kMaxCallDepth = 8;
  if (call_depth_ >= kMaxCallDepth) {
    return util::make_error("module.call_depth",
                            "module call chain exceeds depth limit");
  }
  const Module* callee = provider_.modules().resolve(developer, app);
  if (callee == nullptr) {
    return util::make_error("module.not_found",
                            developer + "/" + app + " is not registered");
  }
  if (auto charged = charge(os::Resource::kCpu, 1); !charged.ok())
    return charged.error();

  // Synthesize the callee's request; same viewer, same pid (and thus the
  // same floating label and the same resource container).
  std::string target = "/dev/" + developer + "/" + app;
  if (!rest.empty()) target += "/" + rest;
  if (!query.empty()) target += "?" + query;
  auto parsed = net::parse_request_target(target);
  if (!parsed) return util::make_error("module.call", "bad call target");
  net::HttpRequest synthetic;
  synthetic.method = net::Method::kGet;
  synthetic.target = target;
  synthetic.parsed = std::move(*parsed);
  synthetic.headers = request_.headers;

  net::RouteParams params;
  params["developer"] = developer;
  params["app"] = app;
  if (!rest.empty()) params["rest"] = rest;

  AppContext callee_context(provider_, pid_, *callee, viewer_, synthetic,
                            std::move(params));
  callee_context.call_depth_ = call_depth_ + 1;
  try {
    auto response = callee->handler(callee_context);
    provider_.search_service().record_use(callee->id());
    return response;
  } catch (const std::exception& e) {
    provider_.audit().record(AuditKind::kAppError, callee->id(),
                             "call_module", typeid(e).name());
    return util::make_error("module.call", "callee raised an exception");
  }
}

util::Status AppContext::charge(os::Resource resource, std::int64_t amount) {
  auto status = provider_.kernel().charge(pid_, resource, amount);
  if (!status.ok() && status.error().code == "quota.exceeded") {
    provider_.audit().record(AuditKind::kQuotaKill, module_.id(),
                             to_string(resource), status.error().detail);
  }
  return status;
}

}  // namespace w5::platform
