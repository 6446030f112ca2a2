#include "core/provider.h"

#include "core/gateway.h"
#include "core/statusz.h"
#include "difc/codec.h"
#include "net/cookies.h"
#include "net/tracing.h"
#include "util/log.h"

#include <fstream>
#include <sstream>

namespace w5::platform {

namespace {

// True when the store record <collection>/<id> lists `viewer` in its
// string array `field`. Membership lists (friend lists, group rosters)
// are themselves user data in the store; the declassifiers that consult
// them read with provider authority — they are inside the TCB and hold
// the owner's privilege by construction.
bool record_lists(store::LabeledStore& store, const std::string& collection,
                  const std::string& id, std::string_view field,
                  const std::string& viewer) {
  auto record = store.get(os::kKernelPid, collection, id, store::Raise::kNo);
  if (!record.ok()) return false;
  for (const auto& entry : record.value().data.at(field).as_array())
    if (entry.is_string() && entry.as_string() == viewer) return true;
  return false;
}

}  // namespace

Provider::Provider(ProviderConfig config, const util::Clock& clock)
    : config_(std::move(config)),
      clock_(clock),
      fs_(kernel_),
      store_(kernel_, clock),
      users_(kernel_),
      sessions_(clock, config_.session_ttl_micros),
      audit_(clock),
      loop_stats_(config_.io_threads == 0 ? 1 : config_.io_threads) {
  // Outbound hops (HttpClient, federation pulls) stamp the active
  // request's trace headers; the hook is process-global and reads the
  // thread-local context, so re-installation by later providers is
  // idempotent in effect.
  net::set_outbound_trace_provider([](net::TraceHeaders* out) {
    RequestContext* context = RequestContext::current();
    if (context == nullptr || context->id().empty()) return false;
    out->trace_id = context->id();
    out->parent_span = context->current_parent() != 0
                           ? std::to_string(context->current_parent())
                           : std::string();
    out->sampled = context->spans_enabled();
    return true;
  });
  // The standard declassifier library every provider ships (§3.1: "casual
  // W5 users will authorize only a small handful of reputable
  // declassifiers").
  const auto is_friend = [this](const std::string& owner,
                                const std::string& viewer) {
    return record_lists(store_, "friends", owner, "friends", viewer);
  };
  declassifiers_.add("std/owner-only", make_owner_only());
  declassifiers_.add("std/public", make_public());
  declassifiers_.add("std/friends", make_friend_list(is_friend));
  declassifiers_.add("std/k-aggregate-3", make_k_aggregate(3));
  declassifiers_.add(
      "std/friends-rate-limited",
      make_rate_limited(make_friend_list(is_friend), clock_,
                        /*max_exports=*/100,
                        /*window_micros=*/60ll * 1000 * 1000));

  // Default simulated internet: echoes a canned payload. Examples and
  // tests replace this to observe traffic.
  external_fetcher_ = [](const std::string& url) -> util::Result<std::string> {
    return std::string("external-response:") + url;
  };

  // Store query plane (DESIGN.md §17): indexes first (so durability
  // recovery below replays into indexed shards), then the §3.5 knobs.
  for (const auto& spec : config_.store_indexes)
    (void)store_.create_index(spec.collection, spec.field);
  store_.set_governor_config(config_.query_governor);

  gateway_ = std::make_unique<Gateway>(*this);

  // Filesystem skeleton — code-created bootstrap state, recreated on
  // every boot *before* durability attaches, so it is never WAL-logged.
  (void)fs_.mkdir(os::kKernelPid, "/users", {});
  (void)fs_.mkdir(os::kKernelPid, "/apps", {});

  if (config_.durability.enabled) init_durability();
}

Provider::~Provider() {
  // Workers may hold references into members destroyed below; stop them
  // first.
  if (pool_ != nullptr) pool_->shutdown();
  // Then the durability plane: the last worker mutations are enqueued by
  // now, and close() drains them to disk before the components that
  // published them are torn down.
  if (durable_ != nullptr) durable_->close();
}

void Provider::init_durability() {
  durable_ =
      std::make_unique<store::DurableStore>(config_.durability, &metrics_);
  auto recovered = durable_->recover(
      [this](const std::string& payload) -> util::Status {
        auto parsed = util::Json::parse(payload);
        if (!parsed.ok()) return parsed.error();
        return restore(parsed.value());
      },
      [this](const util::Json& op) { return apply_wal_op(op); });
  if (!recovered.ok()) {
    durability_status_ = recovered.error();
    durable_.reset();
    util::log_error("provider: durability disabled: ",
                    durability_status_.error().detail);
    return;
  }
  recovery_stats_ = recovered.value();
  // Attach the log only *after* recovery: replayed mutations must not be
  // re-logged — and the trusted apply paths skip kernel charges, audit
  // events, and telemetry, so recovery charges each op exactly once (at
  // original execution time, never again).
  kernel_.tags().set_mutation_log(durable_.get());
  users_.set_mutation_log(durable_.get());
  policies_.set_mutation_log(durable_.get());
  fs_.set_mutation_log(durable_.get());
  store_.set_mutation_log(durable_.get());
  durable_->set_checkpoint_source([this] { return snapshot().dump(); });
}

util::Status Provider::apply_wal_op(const util::Json& op) {
  const std::string& kind = op.at("op").as_string();
  if (kind.starts_with("store.")) return store_.apply_wal(op);
  if (kind.starts_with("fs.")) return fs_.apply_wal(op);
  if (kind.starts_with("tag.")) return kernel_.tags().apply_wal(op);
  if (kind.starts_with("policy.")) return policies_.apply_wal(op);
  if (kind.starts_with("user.")) return users_.apply_wal(op);
  return util::make_error("wal.replay", "unknown op '" + kind + "'");
}

util::Status Provider::checkpoint() {
  if (durable_ == nullptr)
    return util::make_error("wal.checkpoint", "durability disabled");
  return durable_->checkpoint();
}

os::ThreadPool& Provider::worker_pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<os::ThreadPool>(config_.worker_threads,
                                             config_.max_queued_connections);
    pool_ptr_.store(pool_.get(), std::memory_order_release);
  });
  return *pool_;
}

std::size_t Provider::serve(net::TcpListener& listener) {
  net::EventLoopOptions loop_options;
  loop_options.io_threads = config_.io_threads;
  // ---- Reactor telemetry (DESIGN.md §16) ---------------------------------
  // Histogram pointers resolve once here; loop threads update them
  // lock-free. The on_stage callback runs on the owning loop thread after
  // the response's last byte — off the request's latency path.
  loop_options.telemetry.loop_lag_micros = &metrics_.histogram(
      "w5_reactor_loop_lag_micros",
      {50, 100, 250, 500, 1'000, 2'500, 5'000, 10'000, 50'000});
  loop_options.telemetry.epoll_batch =
      &metrics_.histogram("w5_reactor_epoll_batch", {1, 2, 4, 8, 16, 32, 64});
  loop_options.telemetry.timer_drift_micros = &metrics_.histogram(
      "w5_reactor_timer_drift_micros",
      {100, 500, 1'000, 5'000, 10'000, 20'000, 50'000, 100'000});
  loop_options.telemetry.loop_stats = &loop_stats_;
  struct StageHistograms {
    util::Histogram* parse;
    util::Histogram* dispatch;
    util::Histogram* handler;
    util::Histogram* durable;
    util::Histogram* write;
    util::Histogram* total;
  };
  const std::vector<std::int64_t> stage_bounds{
      10, 50, 100, 500, 1'000, 5'000, 10'000, 50'000, 100'000, 500'000};
  const StageHistograms stage_histograms{
      &metrics_.histogram("w5_reactor_stage_micros{stage=\"parse\"}",
                          stage_bounds),
      &metrics_.histogram("w5_reactor_stage_micros{stage=\"dispatch\"}",
                          stage_bounds),
      &metrics_.histogram("w5_reactor_stage_micros{stage=\"handler\"}",
                          stage_bounds),
      &metrics_.histogram("w5_reactor_stage_micros{stage=\"durable\"}",
                          stage_bounds),
      &metrics_.histogram("w5_reactor_stage_micros{stage=\"write\"}",
                          stage_bounds),
      &metrics_.histogram("w5_reactor_request_micros", stage_bounds),
  };
  loop_options.telemetry.on_stage = [this, stage_histograms](
                                        const net::StageSample& sample) {
    const auto clamped = [](util::Micros later, util::Micros earlier) {
      return later > earlier ? later - earlier : 0;
    };
    const util::Micros parse = clamped(sample.parse_done, sample.request_start);
    const util::Micros dispatch =
        clamped(sample.handler_start, sample.parse_done);
    const util::Micros handler =
        clamped(sample.handler_done, sample.handler_start);
    // A parked request waited for its WAL fsync between the handler's
    // return and the release of its response; only those have the stage.
    const bool parked = sample.released != 0;
    const util::Micros answered =
        parked ? sample.released : sample.handler_done;
    const util::Micros durable = clamped(answered, sample.handler_done);
    const util::Micros write = clamped(sample.write_done, answered);
    const util::Micros total = clamped(sample.write_done, sample.request_start);
    stage_histograms.parse->observe(parse);
    stage_histograms.dispatch->observe(dispatch);
    stage_histograms.handler->observe(handler);
    if (parked) stage_histograms.durable->observe(durable);
    stage_histograms.write->observe(write);
    // The exemplar ties the p99 bucket to a findable trace: "what was a
    // recent slow request" is one /trace/:id away from the histogram.
    stage_histograms.total->observe_with_exemplar(total, sample.trace_id);
    if (sample.trace_id.empty()) return;
    // Stage spans attach to the already-recorded trace (the gateway
    // records before the response bytes leave); append_spans drops them
    // when the trace was unsampled or already evicted.
    std::vector<TraceSpan> spans;
    spans.reserve(5);
    const auto stage_span = [&](const char* name, util::Micros start,
                                util::Micros duration) {
      TraceSpan span;
      span.name = name;
      span.start = start;
      span.duration = duration;
      spans.push_back(std::move(span));
    };
    stage_span("stage.parse", sample.request_start, parse);
    stage_span("stage.dispatch", sample.parse_done, dispatch);
    stage_span("stage.handler", sample.handler_start, handler);
    if (parked) stage_span("stage.durable", sample.handler_done, durable);
    stage_span("stage.write", answered, write);
    (void)traces_.append_spans(sample.trace_id, std::move(spans));
    // Slow-request capture happens at the gateway (it has the finished
    // trace in hand); the reactor path re-records here so the flight
    // recorder entry includes the stage spans just attached.
    if (config_.slow_request_micros > 0 &&
        total >= config_.slow_request_micros) {
      Trace slow;
      if (traces_.lookup(sample.trace_id, &slow) ==
          TraceBuffer::Lookup::kFound)
        flight_recorder_.record(std::move(slow));
    }
  };
  // Inline dispatch runs handlers on the owning loop (no handoff, no
  // 503 shed — overload becomes TCP backpressure) and starts no workers.
  // Pooled dispatch keeps blocking handlers off the loops; try_submit
  // refuses once max_queued_connections jobs wait, and the reactor
  // answers 503 + Retry-After (admission control, DESIGN.md §12).
  os::ThreadPool* pool = config_.app_dispatch == AppDispatch::kPooled
                             ? &worker_pool()
                             : nullptr;
  net::BoundedExecutor dispatch = [](std::function<void()> job) {
    job();
    return true;
  };
  if (pool != nullptr)
    dispatch = [pool](std::function<void()> job) {
      return pool->try_submit(std::move(job));
    };
  net::EventLoopHttpServer server(
      [this](const net::HttpRequest& request, net::Responder respond) {
        serve_one(request, std::move(respond));
      },
      std::move(dispatch), config_.http_limits, config_.http_robustness,
      loop_options, &server_stats_, &conn_stats_);
  const std::size_t accepted = server.serve(listener);
  // In-flight handlers post into the server's mailboxes.
  if (pool != nullptr) pool->drain();
  return accepted;
}

void Provider::serve_one(const net::HttpRequest& request,
                         net::Responder respond) {
  // The components' fsync waits on our log return at once inside the
  // scope; `pending` is the highest sequence this request wrote.
  std::uint64_t pending = 0;
  net::HttpResponse response;
  {
    const util::DeferredDurability deferred(durable_.get());
    response = handle(request);
    pending = deferred.highest_seq();
  }
  if (pending == 0) {
    respond(std::move(response));
    return;
  }
  // Park: the loop serves other connections while the flusher batches
  // this write with theirs. A log that fails first turns the answer into
  // the 503 the in-process path gives — never an ack (DESIGN.md §13).
  durable_->on_durable(pending, [respond = std::move(respond),
                                 response = std::move(response)](
                                    util::Status durable) mutable {
    if (durable.ok()) {
      respond(std::move(response));
      return;
    }
    net::HttpResponse failure = durability_failure(durable.error());
    if (const auto trace = response.headers.get(net::kTraceHeader))
      failure.headers.set(std::string(net::kTraceHeader), *trace);
    respond(std::move(failure));
  });
}

void Provider::set_external_fetcher(ExternalFetcher fetcher) {
  external_fetcher_ = std::move(fetcher);
}

util::Status Provider::signup(const std::string& user,
                              const std::string& password,
                              const std::string& display_name) {
  auto created = users_.create(user, display_name, password);
  if (!created.ok()) return created.error();
  // Per-user home directory, write-protected for the user.
  const UserAccount* account = created.value();
  (void)fs_.mkdir(os::kKernelPid, "/users/" + user,
                  difc::ObjectLabels{{}, difc::Label{account->write_tag}});
  return util::ok_status();
}

util::Result<std::string> Provider::login(const std::string& user,
                                          const std::string& password) {
  if (!users_.verify_password(user, password))
    return util::make_error("auth.bad_credentials", "wrong user or password");
  return sessions_.create(user);
}

util::Json Provider::snapshot() const {
  util::Json out;
  out["format"] = 1;
  out["tags"] = kernel_.tags().to_json();
  out["global_caps"] = difc::capability_set_to_json(kernel_.global_caps());
  out["users"] = users_.to_json();
  out["policies"] = policies_.to_json();
  out["fs"] = fs_.to_json();
  out["store"] = store_.to_json();
  return out;
}

util::Status Provider::restore(const util::Json& snapshot) {
  if (snapshot.at("format").as_int() != 1)
    return util::make_error("provider.parse", "unknown snapshot format");
  auto tags = difc::TagRegistry::from_json(snapshot.at("tags"));
  if (!tags.ok()) return tags.error();
  auto caps = difc::capability_set_from_json(snapshot.at("global_caps"));
  if (!caps.ok()) return caps.error();
  // Validate everything into temporaries before mutating live state.
  kernel_.tags() = std::move(tags).value();
  // Drop pre-restore global capabilities before republishing: tag ids are
  // reused across restores, so a stale entry could grant t+ for a
  // different tag now wearing the same id.
  kernel_.clear_global_capabilities();
  for (const auto& cap : caps.value().capabilities())
    kernel_.add_global_capability(cap);
  if (auto status = users_.load_json(snapshot.at("users")); !status.ok())
    return status;
  if (auto status = policies_.load_json(snapshot.at("policies")); !status.ok())
    return status;
  if (auto status = fs_.load_json(snapshot.at("fs")); !status.ok())
    return status;
  if (auto status = store_.load_json(snapshot.at("store")); !status.ok())
    return status;
  sessions_.revoke_all_everything();
  return util::ok_status();
}

util::Status Provider::save_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return util::make_error("io.open", "cannot write '" + path + "'");
  out << snapshot().dump();
  out.flush();
  if (!out) return util::make_error("io.write", "short write to '" + path + "'");
  return util::ok_status();
}

util::Status Provider::load_from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::make_error("io.open", "cannot read '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = util::Json::parse(buffer.str());
  if (!parsed.ok()) return parsed.error();
  return restore(parsed.value());
}

void Provider::add_group_declassifier(const std::string& group) {
  declassifiers_.add(
      "std/group/" + group,
      make_group(group, [this](const std::string& group_name,
                               const std::string& viewer) {
        return record_lists(store_, "groups", group_name, "members", viewer);
      }));
}

net::HttpResponse Provider::handle(const net::HttpRequest& request) {
  return gateway_->handle(request);
}

net::HttpResponse Provider::http(net::Method method, const std::string& target,
                                 const std::string& body,
                                 const std::string& session) {
  net::HttpRequest request;
  request.method = method;
  request.target = target;
  auto parsed = net::parse_request_target(target);
  if (!parsed) {
    return net::HttpResponse::text(400, "bad target");
  }
  request.parsed = std::move(*parsed);
  request.body = body;
  if (!session.empty()) {
    request.headers.set("Cookie",
                        std::string(kSessionCookie) + "=" + session);
  }
  return handle(request);
}

}  // namespace w5::platform
