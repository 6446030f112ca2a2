#include "fed/node.h"

#include <algorithm>
#include <optional>

#include "core/gateway.h"
#include "fed/merge.h"
#include "net/tracing.h"
#include "rank/relevance.h"

namespace w5::fed {

using platform::json_error;

Node::Node(std::string name, platform::Provider& provider,
           net::InMemoryNetwork& network)
    : name_(std::move(name)),
      provider_(provider),
      network_(network),
      server_([this](const net::HttpRequest& request) {
        return handle_request(request);
      }) {
  // Accepted connections are parked until the dialer pumps us — the
  // non-blocking in-memory transport means request bytes arrive only
  // after dial() returns. Dials and pumps come from concurrent hop
  // threads (a straggling metasearch hop and the next search's hop to
  // the same peer), so the queue is locked, and one pump at a time
  // serves it: a pump may answer another dialer's request, which that
  // dialer's own pump then waits out before it reads.
  network_.listen(
      address(),
      [this](std::unique_ptr<net::Connection> conn) {
        const util::MutexLock lock(serve_mutex_);
        pending_.push_back(std::move(conn));
      },
      [this] {
        const util::MutexLock lock(serve_mutex_);
        for (auto& conn : pending_)
          if (conn && !conn->closed()) server_.serve(*conn);
        std::erase_if(pending_, [](const auto& conn) {
          return conn == nullptr || conn->closed();
        });
      });
}

Node::~Node() { network_.unlisten(address()); }

util::Status Node::write_local(const std::string& user,
                               const std::string& collection,
                               const std::string& id, util::Json data) {
  const platform::UserAccount* account = provider_.users().find(user);
  if (account == nullptr)
    return util::make_error("user.not_found", "no user '" + user + "'");
  store::Record record;
  record.collection = collection;
  record.id = id;
  record.owner = user;
  record.data = std::move(data);
  // The labels and the acting process a /data upload uses.
  record.labels = provider_.record_labels(*account, collection);
  return provider_.store().put(
      platform::ActingUser(provider_.kernel(), *account).pid(),
      std::move(record));
}

util::Status Node::put_user_record(const std::string& user,
                                   const std::string& collection,
                                   const std::string& id, util::Json data) {
  if (auto status = write_local(user, collection, id, std::move(data));
      !status.ok()) {
    return status;
  }
  // Only *original* local writes advance this node's axis; imports merge
  // the remote clock instead (no tick), or replicas would ping-pong
  // forever, each sync looking like a fresh concurrent edit.
  clocks_[{collection, id}].tick(name_);
  tombstones_.erase({collection, id});  // resurrection clears the grave
  return util::ok_status();
}

util::Status Node::delete_user_record(const std::string& user,
                                      const std::string& collection,
                                      const std::string& id) {
  const platform::UserAccount* account = provider_.users().find(user);
  if (account == nullptr)
    return util::make_error("user.not_found", "no user '" + user + "'");
  if (auto status = provider_.store().remove(
          platform::ActingUser(provider_.kernel(), *account).pid(),
          collection, id);
      !status.ok())
    return status;
  clocks_[{collection, id}].tick(name_);
  tombstones_[{collection, id}] = provider_.clock().now();
  return util::ok_status();
}

bool Node::has_tombstone(const std::string& collection,
                         const std::string& id) const {
  return tombstones_.contains({collection, id});
}

net::HttpResponse Node::handle_request(const net::HttpRequest& request) {
  // Federation serving perimeter: the same trace plumbing the gateway
  // gives app requests. A token-shaped inbound X-W5-Trace makes this hop
  // a child of the dialer's trace; the response carries our span dump
  // back (X-W5-Spans) for stitching.
  platform::RequestContext context(request.headers);
  static const std::string kPullRoute = "fed.pull";
  static const std::string kQueryRoute = "fed.query";
  const bool is_query = request.parsed.path == "/fed/query";
  context.set_route(is_query ? kQueryRoute : kPullRoute);
  net::HttpResponse response =
      is_query ? serve_query(request) : serve_pull(request);
  provider_.traces().record(context.finish(response));
  return response;
}

net::HttpResponse Node::serve_pull(const net::HttpRequest& request) {
  if (request.parsed.path != "/fed/pull" ||
      request.method != net::Method::kPost) {
    return json_error(404, "unknown federation endpoint");
  }
  auto body = util::Json::parse(request.body);
  if (!body.ok()) return json_error(400, "body must be JSON");
  const std::string peer = body.value().at("peer").as_string();
  const std::string user = body.value().at("user").as_string();
  if (peer.empty() || user.empty())
    return json_error(400, "peer and user required");

  // The §3.3 consent check: this user must have handed the mirror
  // declassifier their export privilege toward this peer.
  if (auto allowed = mirrors_.check(user, peer); !allowed.ok()) {
    provider_.audit().record(platform::AuditKind::kExportBlocked,
                             "fed/mirror", user,
                             allowed.error().code + " peer=" + peer);
    return json_error(403, allowed.error().code);
  }

  // Export every record the user owns whose clock the peer is missing;
  // the clock table is the authoritative index across collections.
  util::Json since = body.value().at("since");
  util::Json records = util::Json::array();
  platform::ScopedSpan export_span("fed.export");
  for (const auto& [key, clock] : clocks_) {
    const auto& [collection, id] = key;
    const auto tombstone = tombstones_.find(key);
    const bool deleted = tombstone != tombstones_.end();
    auto record = provider_.store().get(os::kKernelPid, collection, id);
    if (!deleted && (!record.ok() || record.value().owner != user)) continue;

    auto peer_clock = VectorClock{};
    const util::Json& since_entry = since.at(collection + "/" + id);
    if (since_entry.is_object()) {
      auto parsed = VectorClock::from_json(since_entry);
      if (parsed.ok()) peer_clock = std::move(parsed).value();
    }
    const ClockOrder order = clock.compare(peer_clock);
    if (order == ClockOrder::kBefore || order == ClockOrder::kEqual)
      continue;  // peer already has everything we know

    util::Json item;
    item["collection"] = collection;
    item["id"] = id;
    item["clock"] = clock.to_json();
    if (deleted) {
      item["deleted"] = true;
      item["owner"] = user;
      item["updated"] = tombstone->second;
    } else {
      item["owner"] = record.value().owner;
      item["data"] = record.value().data;
      item["updated"] = record.value().updated_micros;
    }
    records.push_back(std::move(item));
    provider_.audit().record(platform::AuditKind::kExportAllowed,
                             "fed/mirror", collection + "/" + id,
                             "peer=" + peer + " user=" + user);
  }
  export_span.set_note("records=" +
                       std::to_string(records.as_array().size()));
  util::Json response;
  response["records"] = std::move(records);
  return net::HttpResponse::json(200, response.dump());
}

net::HttpResponse Node::serve_query(const net::HttpRequest& request) {
  if (request.method != net::Method::kPost)
    return json_error(404, "unknown federation endpoint");
  auto body = util::Json::parse(request.body);
  if (!body.ok()) return json_error(400, "body must be JSON");
  const std::string peer = body.value().at("peer").as_string();
  const std::string user = body.value().at("user").as_string();
  const std::string collection = body.value().at("collection").as_string();
  if (peer.empty() || user.empty() || collection.empty())
    return json_error(400, "peer, user, and collection required");

  // The same §3.3 consent gate as /fed/pull: absent this user's explicit
  // authorization toward this peer, not even record *names* answer.
  if (auto allowed = mirrors_.check(user, peer); !allowed.ok()) {
    provider_.audit().record(platform::AuditKind::kExportBlocked,
                             "fed/metasearch", user,
                             allowed.error().code + " peer=" + peer);
    return json_error(403, allowed.error().code);
  }

  store::QueryOptions options;
  options.owner = user;
  options.eq_field = body.value().at("eq_field").as_string();
  options.eq_value = body.value().at("eq_value").as_string();
  options.limit = static_cast<std::size_t>(
      std::clamp(body.value().at("limit").as_int(50), std::int64_t{1},
                 std::int64_t{200}));
  // The §3.5 budget meters the *peer*, whatever user it asks about —
  // a chatty federation partner exhausts its own allowance, not ours.
  options.principal = "fed:" + peer;
  const std::vector<std::string> terms =
      rank::tokenize(body.value().at("q").as_string());
  if (!terms.empty()) {
    options.predicate = [&terms](const store::Record& record) {
      return record_matches_terms(record.id, record.data, terms);
    };
  }

  platform::ScopedSpan answer_span("fed.answer");
  auto records =
      provider_.store().query(os::kKernelPid, collection, options);
  if (!records.ok()) {
    answer_span.set_note("err=" + records.error().code);
    return json_error(
        records.error().code == "store.query_budget" ? 429 : 403,
        records.error().code);
  }
  util::Json items = util::Json::array();
  for (const store::Record& record : records.value()) {
    util::Json item;
    item["collection"] = record.collection;
    item["id"] = record.id;
    item["owner"] = record.owner;
    item["data"] = record.data;
    item["clock"] = clock_of(record.collection, record.id).to_json();
    item["updated"] = record.updated_micros;
    items.push_back(std::move(item));
  }
  const std::size_t served = items.as_array().size();
  answer_span.set_note("records=" + std::to_string(served));
  provider_.metrics().counter("w5_fed_query_served_total").inc();
  provider_.audit().record(
      platform::AuditKind::kExportAllowed, "fed/metasearch", user,
      "peer=" + peer + " records=" + std::to_string(served));
  util::Json response;
  response["provider"] = name_;
  response["records"] = std::move(items);
  return net::HttpResponse::json(200, response.dump());
}

net::CircuitBreaker& Node::breaker_for(const std::string& peer_name) {
  const util::MutexLock lock(breakers_mutex_);
  auto& slot = breakers_[peer_name];
  if (slot == nullptr)
    slot = std::make_unique<net::CircuitBreaker>(provider_.clock());
  return *slot;
}

util::Result<SyncStats> Node::sync_from(const std::string& peer_name) {
  // A sync kicked off outside any request (a cron-style replication
  // sweep) becomes its own trace root so the cross-hop tree has a local
  // anchor; a sync nested in a serving request joins that trace instead.
  std::optional<platform::RequestContext> root;
  if (platform::RequestContext::current() == nullptr) {
    root.emplace();
    static const std::string kSyncRoute = "fed.sync";
    root->set_route(kSyncRoute);
  }
  net::CircuitBreaker& breaker = breaker_for(peer_name);
  // Metric names carry the peer *name* — an infrastructure identifier,
  // like a route pattern; never user data (telemetry invariant, §11).
  util::MetricsRegistry& metrics = provider_.metrics();
  util::Gauge& state_gauge =
      metrics.gauge("w5_fed_breaker_state{peer=\"" + peer_name + "\"}");
  // Last backoff delay this peer cost us (0 = the round needed none):
  // with the breaker state, the per-peer backoff posture on /metrics.
  util::Gauge& backoff_gauge = metrics.gauge(
      "w5_fed_backoff_last_delay_micros{peer=\"" + peer_name + "\"}");
  std::uint64_t retries = 0;
  util::Micros last_backoff = 0;
  const auto finish = [&](util::Result<SyncStats> result) {
    state_gauge.set(static_cast<std::int64_t>(breaker.state()));
    backoff_gauge.set(last_backoff);
    if (retries > 0) {
      metrics
          .counter("w5_fed_sync_retries_total{peer=\"" + peer_name + "\"}")
          .inc(retries);
    }
    metrics
        .counter(std::string("w5_fed_sync_rounds_total{result=\"") +
                 (result.ok() ? "ok" : "error") + "\"}")
        .inc();
    if (result.ok()) {
      const SyncStats& stats = result.value();
      const auto count = [&](const char* kind, std::size_t n) {
        if (n > 0)
          metrics
              .counter(std::string("w5_fed_sync_records_total{kind=\"") +
                       kind + "\"}")
              .inc(n);
      };
      count("offered", stats.offered);
      count("applied", stats.applied);
      count("skipped", stats.skipped);
      count("conflicts", stats.conflicts);
    }
    if (root && !root->id().empty()) {
      root->set_status(result.ok() ? 200 : 500);
      provider_.traces().record(root->finish());
    }
    return result;
  };
  if (!breaker.allow()) {
    return finish(util::make_error(
        "fed.circuit_open",
        "peer '" + peer_name + "' breaker open; retry after cooldown"));
  }
  SyncStats total;
  // Every user who authorized mirroring *to this node* on our side; the
  // peer independently verifies its own authorization table.
  for (const std::string& user : mirrors_.users_for(peer_name)) {
    // Transient transport failures retry with exponential backoff before
    // the breaker hears about them; protocol/consent failures (4xx-style
    // codes) are final and fail immediately.
    net::Backoff backoff(retry_policy_);
    auto stats = pull_user(peer_name, user);
    while (!stats.ok() && net::retryable_error(stats.error())) {
      const util::Micros delay = backoff.next_delay();
      if (backoff.exhausted()) break;
      retry_sleep_(delay);
      ++retries;
      last_backoff = delay;
      stats = pull_user(peer_name, user);
    }
    if (!stats.ok()) {
      breaker.record_failure();
      return finish(stats.error());
    }
    total.offered += stats.value().offered;
    total.applied += stats.value().applied;
    total.skipped += stats.value().skipped;
    total.conflicts += stats.value().conflicts;
  }
  breaker.record_success();
  return finish(total);
}

util::Result<SyncStats> Node::pull_user(const std::string& peer_name,
                                        const std::string& user) {
  // The cross-hop client half: one "fed.pull" span brackets the whole
  // hop; the TSC read just before dialing anchors the peer's returned
  // span offsets on our clock. A failed hop keeps the span with an
  // err= note — the cleanly-marked orphan in the stitched tree.
  platform::RequestContext* context = platform::RequestContext::current();
  platform::ScopedSpan hop_span("fed.pull", "peer=" + peer_name);
  const std::uint64_t hop_start_cycles = util::cycle_count();
  const auto hop_failed = [&](util::Error error) {
    hop_span.set_note("peer=" + peer_name + " err=" + error.code);
    return error;
  };
  auto dialed = network_.dial("fed://" + peer_name);
  if (!dialed.ok()) return hop_failed(dialed.error());
  std::unique_ptr<net::Connection> connection = std::move(dialed).value();
  if (decorator_) connection = decorator_(std::move(connection));

  // Only this user's record keys/clocks cross the wire: other users
  // never consented, and even record *names* are their data.
  util::Json since;
  since.mutable_object();
  for (const auto& [key, clock] : clocks_) {
    auto record =
        provider_.store().get(os::kKernelPid, key.first, key.second);
    if (record.ok() && record.value().owner == user)
      since[key.first + "/" + key.second] = clock.to_json();
  }

  util::Json body;
  body["peer"] = name_;
  body["user"] = user;
  body["since"] = std::move(since);

  net::HttpRequest request;
  request.method = net::Method::kPost;
  request.target = "/fed/pull";
  request.parsed = *net::parse_request_target("/fed/pull");
  request.headers.set("Connection", "close");
  // Trace propagation: the active context rides the wire so the peer's
  // serving spans stitch under our hop span. current_parent() is the
  // hop span itself (opened above).
  if (context != nullptr && !context->id().empty()) {
    request.headers.set(std::string(net::kTraceHeader), context->id());
    if (context->current_parent() != 0)
      request.headers.set(std::string(net::kParentHeader),
                          std::to_string(context->current_parent()));
    request.headers.set(std::string(net::kSampledHeader),
                        context->spans_enabled() ? "1" : "0");
  }
  request.body = body.dump();

  if (auto written = connection->write(request.to_wire()); !written.ok())
    return hop_failed(written.error());
  if (auto pumped = network_.pump("fed://" + peer_name); !pumped.ok())
    return hop_failed(pumped.error());
  net::ResponseParser parser;
  while (!parser.complete() && !parser.failed()) {
    auto bytes = connection->read_available();
    if (!bytes.ok()) return hop_failed(bytes.error());
    if (bytes.value().empty())
      return hop_failed(
          util::make_error("fed.protocol", "peer sent no response"));
    parser.feed(bytes.value());
  }
  if (parser.failed()) return hop_failed(parser.error());
  auto response = util::Result<net::HttpResponse>(parser.take());
  // Stitch the peer's span dump (if any) under the hop span whatever the
  // status — a 403 consent denial's spans explain themselves.
  if (context != nullptr && context->spans_enabled()) {
    if (const auto spans_header =
            response.value().headers.get(net::kSpansHeader)) {
      auto remote = platform::decode_remote_spans(*spans_header, peer_name);
      if (!remote.empty())
        context->add_remote_spans(std::move(remote), hop_start_cycles);
    }
  }
  if (response.value().status != 200) {
    return hop_failed(util::make_error(
        "fed.pull_failed", "peer returned " +
                               std::to_string(response.value().status) +
                               ": " + response.value().body));
  }
  auto parsed = util::Json::parse(response.value().body);
  if (!parsed.ok()) return hop_failed(parsed.error());
  return apply_records(peer_name, parsed.value().at("records"));
}

util::Result<SyncStats> Node::apply_records(const std::string& peer,
                                            const util::Json& records) {
  SyncStats stats;
  if (!records.is_array())
    return util::make_error("fed.parse", "records must be an array");
  for (const auto& item : records.as_array()) {
    ++stats.offered;
    const std::string collection = item.at("collection").as_string();
    const std::string id = item.at("id").as_string();
    const std::string owner = item.at("owner").as_string();
    if (collection.empty() || id.empty() || owner.empty())
      return util::make_error("fed.parse", "record missing keys");
    auto remote_clock = VectorClock::from_json(item.at("clock"));
    if (!remote_clock.ok()) return remote_clock.error();

    auto& local_clock = clocks_[{collection, id}];
    const ClockOrder order = remote_clock.value().compare(local_clock);
    if (order == ClockOrder::kBefore || order == ClockOrder::kEqual) {
      ++stats.skipped;
      continue;
    }

    bool take_remote = true;
    if (order == ClockOrder::kConcurrent) {
      ++stats.conflicts;
      // Deterministic resolution: newer wall-clock wins; ties broken by
      // peer name ordering so both sides converge to the same value.
      auto local = provider_.store().get(os::kKernelPid, collection, id);
      const std::int64_t local_updated =
          local.ok() ? local.value().updated_micros : -1;
      const std::int64_t remote_updated = item.at("updated").as_int(0);
      if (remote_updated < local_updated) {
        take_remote = false;
      } else if (remote_updated == local_updated) {
        take_remote = peer < name_;
      }
    }

    if (take_remote) {
      if (item.at("deleted").as_bool()) {
        // Replicated deletion: drop the local copy (if any), remember
        // the tombstone.
        const platform::UserAccount* account =
            provider_.users().find(owner);
        if (account == nullptr)
          return util::make_error("user.not_found", "no user '" + owner + "'");
        (void)provider_.store().remove(
            platform::ActingUser(provider_.kernel(), *account).pid(),
            collection, id);
        tombstones_[{collection, id}] = item.at("updated").as_int(0);
      } else {
        // Re-classify under OUR tags for the owner (the import half of
        // the import/export declassifier). No clock tick: this is
        // replication, not an edit.
        if (auto status =
                write_local(owner, collection, id, item.at("data"));
            !status.ok()) {
          return status.error();
        }
        tombstones_.erase({collection, id});
      }
      ++stats.applied;
    }
    // Either way the clocks merge: we have now *seen* the remote state.
    local_clock.merge(remote_clock.value());
  }
  return stats;
}

VectorClock Node::clock_of(const std::string& collection,
                           const std::string& id) const {
  const auto it = clocks_.find({collection, id});
  return it == clocks_.end() ? VectorClock{} : it->second;
}

}  // namespace w5::fed
