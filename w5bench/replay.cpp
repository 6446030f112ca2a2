// Layer replay for the traced pass (README.md "Traced run"): after a
// request has been issued for real, call each layer's public function
// on that request's inputs, one benchmark-side span per call.
//
// A span's parent is the request, or the layer call whose work it stands
// for; self time is the span minus the spans whose parent it is. Two
// kinds of child make that subtraction possible without touching the
// provider: the program's own store.* spans, collected from a
// RequestContext the benchmark opens around the module handler, and
// replays of calls nested inside a function the benchmark cannot split
// (audit.record inside Gateway::authorize_export, json.dump/json.parse
// inside the photo app), timed right after their parent.
#include "core/app_context.h"
#include "core/gateway.h"
#include "core/trace.h"
#include "difc/flow.h"
#include "net/cookies.h"
#include "net/http_parser.h"
#include "util/json.h"
#include "w5bench.h"

namespace w5bench {

namespace {

using w5::difc::Label;
using w5::os::Pid;
using w5::platform::AuditKind;

constexpr const char* kUnroutedTarget = "/w5bench/unrouted";

// Spans the photo app's handler records through AppContext, renamed to
// the literals the span log keeps.
const char* program_span_name(const std::string& name) {
  if (name == "store.get") return "program:store.get";
  if (name == "store.query") return "program:store.query";
  if (name == "store.put") return "program:store.put";
  return nullptr;
}

struct Viewer {
  const std::string& name;
  const w5::platform::UserAccount& account;
};

// Runs `fn` inside a span named `name`; returns the span id.
template <typename Fn>
std::uint32_t timed(SpanLog& log, const char* name, std::uint32_t parent,
                    Fn&& fn) {
  const std::uint32_t id = log.open(name, parent);
  fn();
  log.close(id);
  return id;
}

bool is_app(OpKind kind) {
  return kind == OpKind::kPhotoView || kind == OpKind::kPhotoList ||
         kind == OpKind::kUpload;
}

std::string app_action(OpKind kind) {
  switch (kind) {
    case OpKind::kPhotoList: return "list";
    case OpKind::kUpload: return "upload";
    default: return "view";
  }
}

// The capabilities the gateway hands the photo app for this viewer.
w5::difc::CapabilitySet app_capabilities(Provider& provider,
                                         const Viewer& viewer,
                                         const std::string& module_path) {
  w5::difc::CapabilitySet owned;
  const auto policy = provider.policies().get(viewer.name);
  if (policy.grants_write(module_path))
    owned.add(w5::difc::plus(viewer.account.write_tag));
  if (policy.grants_read(module_path))
    owned.add(w5::difc::plus(viewer.account.read_tag));
  return owned;
}

// A process labeled like the app's, for store calls replayed outside the
// handler. Spawned and reaped outside every span.
class ReplayProcess {
 public:
  ReplayProcess(Provider& provider, std::string name,
                 w5::difc::LabelState state)
      : provider_(provider),
        pid_(provider.kernel().spawn_trusted(std::move(name),
                                             std::move(state))) {}
  ~ReplayProcess() {
    (void)provider_.kernel().exit(pid_);
    provider_.kernel().reap(pid_);
  }
  ReplayProcess(const ReplayProcess&) = delete;
  ReplayProcess& operator=(const ReplayProcess&) = delete;
  Pid pid() const { return pid_; }

 private:
  Provider& provider_;
  Pid pid_;
};

// The app's per-request resource container, created and dropped the way
// Gateway::route_app does.
void request_container(Provider& provider, const std::string& path) {
  w5::os::ResourceContainer* app =
      provider.modules().container_for(path, provider.config().app_limits);
  const w5::os::ResourceContainer child(
      "request:" + path, provider.config().request_limits, app);
}

// One process lifetime with no work in it.
void spawn_exit_reap(Provider& provider, std::string name,
                     w5::difc::LabelState state) {
  const Pid pid =
      provider.kernel().spawn_trusted(std::move(name), std::move(state));
  (void)provider.kernel().exit(pid);
  provider.kernel().reap(pid);
}

// How the gateway's put-data route labels its writer process.
w5::difc::LabelState put_data_writer(const Viewer& viewer) {
  return w5::difc::LabelState({viewer.account.secrecy_tag},
                              {viewer.account.write_tag}, {});
}

w5::store::QueryOptions page_options(const Op& op,
                                     const std::string& principal) {
  w5::store::QueryOptions options;
  options.owner = op.subject;
  options.limit = kPageRows;
  options.cursor = op.cursor;
  options.principal = principal;
  return options;
}

// The record a data put or an upload writes, labeled as the gateway and
// AppContext::make_user_record label it.
w5::store::Record own_record(const Op& op, const Viewer& viewer,
                             w5::util::Json data) {
  w5::store::Record record;
  record.collection = op.collection;
  record.id = op.record_id;
  record.owner = viewer.name;
  record.data = std::move(data);
  record.labels = w5::difc::ObjectLabels{Label{viewer.account.secrecy_tag},
                                         Label{viewer.account.write_tag}};
  return record;
}

}  // namespace

// ---- SpanLog --------------------------------------------------------------------

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent) {
  // Stamp after the append, so a growing log never times its own growth.
  const std::uint32_t id = add(name, parent, 0, 0, false);
  spans_[id - 1].start_ns = now_ns();
  return id;
}

void SpanLog::close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::int64_t start_ns, std::int64_t end_ns,
                           bool program) {
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.request = request_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.program = program;
  spans_.push_back(span);
  return span.id;
}

// ---- Replay ---------------------------------------------------------------------

void replay_layers(Deployment& deployment, int client, const Op& op,
                   const HttpRequest& request, const HttpResponse& response,
                   bool tcp, std::uint32_t root, SpanLog& log,
                   ReplayStats& stats) {
  Provider& provider = deployment.provider();
  const std::string& viewer_name = deployment.world().owners[client];
  const w5::platform::UserAccount* account =
      provider.users().find(viewer_name);
  const Viewer viewer{viewer_name, *account};

  // net: the request's wire bytes through the server's parser, and the
  // response back to wire form. Only on the TCP mixes' path.
  if (tcp) {
    const std::string wire = request.to_wire();
    w5::net::RequestParser parser;
    timed(log, "net.parse", root, [&] {
      parser.feed(wire);
      (void)parser.take();
    });
    timed(log, "net.to_wire", root, [&] { (void)response.to_wire(); });
  }

  // gateway floor: dispatch of an unrouted path with the same headers
  // (route scan, RequestContext, counters, trace record). Unsampled, the
  // path most requests take.
  {
    HttpRequest unrouted;
    unrouted.target = kUnroutedTarget;
    unrouted.parsed = *w5::net::parse_request_target(kUnroutedTarget);
    unrouted.headers = request.headers;
    unrouted.headers.remove("X-W5-Sampled");
    timed(log, "gateway.floor", root,
          [&] { (void)provider.handle(unrouted); });
  }

  timed(log, "auth.session", root, [&] {
    const auto cookies =
        w5::net::parse_cookie_header(*request.headers.get("Cookie"));
    const auto token =
        w5::net::cookie_get(cookies, w5::platform::kSessionCookie);
    (void)provider.sessions().validate(*token);
  });

  {
    w5::platform::Trace trace;
    trace.id = w5::platform::next_trace_id();
    trace.route = kUnroutedTarget;
    trace.status = response.status;
    timed(log, "trace.record", root,
          [&] { provider.traces().record(std::move(trace)); });
  }

  // The label the response carries out of the perimeter, and who asks.
  Label label;
  std::string module_id = "platform/data-read";
  std::uint32_t handler_span = 0;

  if (is_app(op.kind)) {
    const w5::platform::Module* module =
        provider.modules().resolve("photoco", "photos");
    module_id = module->id();
    const std::string path = module->path();
    const auto owned = app_capabilities(provider, viewer, path);

    timed(log, "os.container", root,
          [&] { request_container(provider, path); });
    timed(log, "os.spawn", root, [&] {
      spawn_exit_reap(provider, "app:" + module_id,
                      w5::difc::LabelState({}, {}, owned));
    });

    // The handler, through a public AppContext, under a sampled context
    // of the benchmark's own so its store calls leave spans to subtract.
    // Its charges go to a container tree of the benchmark's own: the app's
    // CPU quota is cumulative, and replays must not spend it.
    w5::os::ResourceContainer replay_root("replay:" + path,
                                          provider.config().app_limits);
    w5::os::ResourceContainer child_container(
        "request:" + path, provider.config().request_limits, &replay_root);
    const Pid pid = provider.kernel().spawn_trusted(
        "app:" + module_id, w5::difc::LabelState({}, {}, owned),
        &child_container);
    w5::net::RouteParams params{{"developer", "photoco"},
                                {"app", "photos"},
                                {"rest", app_action(op.kind)}};
    {
      w5::platform::RequestContext context(
          {}, w5::platform::RequestContext::Sampling::kOn);
      w5::platform::AppContext app(provider, pid, *module, viewer.name,
                                   request, params);
      handler_span = timed(log, "apps.handler", root,
                           [&] { (void)module->handler(app); });
      const w5::platform::Trace trace = context.finish();
      for (const auto& span : trace.spans) {
        if (const char* name = program_span_name(span.name))
          log.add(name, handler_span, span.start * 1000,
                  (span.start + span.duration) * 1000, true);
      }
    }
    if (const auto* process = provider.kernel().find(pid))
      label = process->labels.secrecy();
    (void)provider.kernel().exit(pid);
    provider.kernel().reap(pid);

    // Store calls of the handler, replayed on their own.
    ReplayProcess process(provider, "app:" + module_id,
                           w5::difc::LabelState({}, {}, owned));
    if (op.kind == OpKind::kPhotoView) {
      timed(log, "store.get", root, [&] {
        (void)provider.store().get(process.pid(), op.collection, op.record_id,
                                   w5::store::Raise::kYes);
      });
    } else if (op.kind == OpKind::kPhotoList) {
      const auto options = page_options(op, module_id);
      timed(log, "store.query_page", root, [&] {
        auto page = provider.store().query_page(process.pid(), op.collection,
                                                options,
                                                w5::store::Raise::kYes);
        if (page.ok()) stats.query_rows += page.value().records.size();
      });
    } else {
      w5::util::Json data;
      timed(log, "json.parse", handler_span, [&] {
        data = std::move(w5::util::Json::parse(request.body)).value();
      });
      auto record = own_record(op, viewer, std::move(data));
      timed(log, "store.put", root, [&] {
        (void)provider.store().put(process.pid(), std::move(record));
      });
    }
  } else if (op.kind == OpKind::kDataGet) {
    std::optional<w5::util::Result<w5::store::Record>> record;
    timed(log, "store.get", root, [&] {
      record.emplace(provider.store().get(w5::os::kKernelPid, op.collection,
                                          op.record_id));
    });
    if (record->ok()) label = record->value().labels.secrecy;
  } else if (op.kind == OpKind::kDataList) {
    const auto options = page_options(op, "frontend:" + viewer.name);
    std::optional<w5::util::Result<w5::store::QueryPage>> page;
    timed(log, "store.query_page", root, [&] {
      page.emplace(provider.store().query_page(w5::os::kKernelPid,
                                               op.collection, options));
    });
    if (page->ok()) {
      stats.query_rows += page->value().records.size();
      for (const auto& row : page->value().records)
        label = label.union_with(row.labels.secrecy);
    }
  } else if (op.kind == OpKind::kDataPut) {
    w5::util::Json data;
    timed(log, "json.parse", root, [&] {
      data = std::move(w5::util::Json::parse(request.body)).value();
    });
    ReplayProcess process(provider, "frontend:put-data:" + viewer.name,
                           put_data_writer(viewer));
    timed(log, "os.spawn", root, [&] {
      spawn_exit_reap(provider, "frontend:put-data:" + viewer.name,
                      put_data_writer(viewer));
    });
    auto record = own_record(op, viewer, std::move(data));
    timed(log, "store.put", root, [&] {
      (void)provider.store().put(process.pid(), std::move(record));
    });
    return;  // a data put answers a fixed body; nothing is exported
  }

  // The response document printed again. For an app's own answer the
  // handler printed it, so the dump is the handler's child.
  if (!op.denied && response.headers.get("Content-Type").value_or("").find(
                        "json") != std::string::npos) {
    auto doc = w5::util::Json::parse(response.body);
    if (doc.ok()) {
      std::string out;
      timed(log, "json.dump", is_app(op.kind) ? handler_span : root,
            [&] { out = doc.value().dump(); });
      stats.dump_bytes += out.size();
    }
  }

  // The perimeter: declassifier decisions (minus their audit records,
  // replayed as children), the DIFC check, the export audit record.
  std::uint32_t declassify_span = 0;
  w5::util::Result<w5::difc::CapabilitySet> authority =
      w5::difc::CapabilitySet{};
  declassify_span = timed(log, "core.declassify", root, [&] {
    authority = provider.gateway().authorize_export(
        label, viewer.name, module_id, "browser", response.body.size());
  });
  for (const w5::difc::Tag tag : label.tags()) {
    const auto* owner = provider.users().owner_of_tag(tag);
    std::string declassifier =
        owner != nullptr ? provider.policies().get(owner->id).secrecy_declassifier
                         : "";
    std::string subject = provider.kernel().tags().describe(tag);
    std::string detail = authority.ok()
                             ? "allow viewer=" + viewer.name
                             : "declassify.denied viewer=" + viewer.name;
    timed(log, "audit.record", declassify_span, [&] {
      provider.audit().record(AuditKind::kDeclassifierDecision,
                              std::move(declassifier), std::move(subject),
                              std::move(detail));
    });
  }
  if (authority.ok()) {
    timed(log, "difc.check_export", root, [&] {
      (void)w5::difc::check_export(label, authority.value());
    });
  }
  if (is_app(op.kind)) {
    timed(log, "search.record_use", root,
          [&] { provider.search_service().record_use(module_id); });
  }
  std::string subject = label.to_string();
  std::string detail = authority.ok() ? "viewer=" + viewer.name
                                      : authority.error().detail;
  timed(log, "audit.record", root, [&] {
    provider.audit().record(authority.ok() ? AuditKind::kExportAllowed
                                           : AuditKind::kExportBlocked,
                            module_id, std::move(subject), std::move(detail));
  });
  if (op.denied) {
    auto doc = w5::util::Json::parse(response.body);
    if (doc.ok()) {
      std::string out;
      timed(log, "json.dump", root, [&] { out = doc.value().dump(); });
      stats.dump_bytes += out.size();
    }
  }
}

}  // namespace w5bench
