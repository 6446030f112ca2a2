// A federated W5 node: one provider plus the peering machinery of §3.3.
//
// Nodes talk over the in-memory network (or any Connection) using a small
// HTTP+JSON protocol:
//
//   POST /fed/pull   {"peer": <requesting node>, "user": <id>,
//                     "since": {<collection/id>: <vector clock>}}
//   → {"records": [{collection, id, owner, data, clock, updated}]}
//
//   POST /fed/query  {"peer": <requesting node>, "user": <id>,
//                     "collection": <name>, "q": <terms>,
//                     "eq_field"/"eq_value": <equality>, "limit": <n>}
//   → {"provider": <name>, "records": [{collection, id, owner, data,
//                                       clock, updated}]}
//   The read half of §3.3 (DESIGN.md §18): answers from the local query
//   engine, under the same mirror-consent gate as /fed/pull — the peer
//   only sees records of users who authorized mirroring toward it, and
//   the scan is metered against the "fed:<peer>" query-budget principal.
//
// The serving node releases a user's records only through the mirror
// declassifier (user consent for that specific peer); the pulling node
// re-classifies imports under its *own* tags for the user — labels never
// cross the wire, policy travels by re-stamping, exactly the
// import/export-declassifier design the paper sketches.
#pragma once

#include <map>
#include <memory>
#include <vector>
#include <string>

#include "core/provider.h"
#include "fed/mirror.h"
#include "fed/vector_clock.h"
#include "net/backoff.h"
#include "net/circuit_breaker.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/transport.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::fed {

struct SyncStats {
  std::size_t offered = 0;    // records the peer sent
  std::size_t applied = 0;    // records written locally
  std::size_t skipped = 0;    // already up to date (peer ≤ local)
  std::size_t conflicts = 0;  // concurrent edits resolved
};

class Node {
 public:
  // `name` is the node's federation identity and its address on the
  // in-memory network ("fed://<name>").
  Node(std::string name, platform::Provider& provider,
       net::InMemoryNetwork& network);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const noexcept { return name_; }
  MirrorAuthorizer& mirrors() noexcept { return mirrors_; }
  platform::Provider& provider() noexcept { return provider_; }
  // The wire this node lives on; the metasearch fan-out dials through it.
  net::InMemoryNetwork& network() noexcept { return network_; }

  // Local user write that participates in replication: stores the record
  // with the user's standard labels and ticks this node's clock axis.
  util::Status put_user_record(const std::string& user,
                               const std::string& collection,
                               const std::string& id, util::Json data);

  // Local delete that replicates as a tombstone: peers that pull see the
  // deletion and drop their copy (last-writer-wins against edits).
  util::Status delete_user_record(const std::string& user,
                                  const std::string& collection,
                                  const std::string& id);

  bool has_tombstone(const std::string& collection,
                     const std::string& id) const;

  // Pulls every mirroring-authorized user's records from the peer and
  // merges them (one direction; run both ways for convergence).
  //
  // Robustness (DESIGN.md §12): each per-user pull is retried with
  // exponential backoff on transient transport errors; a per-peer circuit
  // breaker opens after consecutive sync failures, after which sync_from
  // fails fast with "fed.circuit_open" until the cooldown elapses and a
  // half-open probe succeeds. The breaker state is exported as the gauge
  // w5_fed_breaker_state{peer="..."} (0=closed, 1=half-open, 2=open).
  util::Result<SyncStats> sync_from(const std::string& peer_name);

  // ---- Robustness knobs --------------------------------------------------
  // Wraps every dialed peer connection; the fault-injection harness uses
  // this to interpose FaultyConnection between the node and the wire.
  using ConnectionDecorator = std::function<std::unique_ptr<net::Connection>(
      std::unique_ptr<net::Connection>)>;
  void set_connection_decorator(ConnectionDecorator decorator) {
    decorator_ = std::move(decorator);
  }
  // Retry policy for per-user pulls. The sleeper defaults to no_sleep():
  // the in-memory wire fails deterministically, so waiting between
  // attempts only slows tests; pass real_sleep() over real transports.
  void set_retry_policy(net::RetryPolicy policy,
                        net::SleepFn sleep = net::no_sleep()) {
    retry_policy_ = policy;
    retry_sleep_ = std::move(sleep);
  }
  // The peer's breaker, created on first use (never null).
  net::CircuitBreaker& breaker_for(const std::string& peer_name);

  // Replication metadata for one record (empty clock when unknown).
  VectorClock clock_of(const std::string& collection,
                       const std::string& id) const;

  // Connection-close hop decorator shared with Metasearch (it wraps its
  // fan-out dials through the same knob when per-peer wrapping is off).
  const ConnectionDecorator& connection_decorator() const noexcept {
    return decorator_;
  }

 private:
  // The tracing perimeter around both federation endpoints (context,
  // route, echo, X-W5-Spans), dispatching to the serve_* handlers.
  net::HttpResponse handle_request(const net::HttpRequest& request);
  net::HttpResponse serve_pull(const net::HttpRequest& request);
  // POST /fed/query: one peer's leg of a metasearch fan-out.
  net::HttpResponse serve_query(const net::HttpRequest& request);

  // Stores under the owner's standard labels without touching clocks
  // (shared by local writes and imports).
  util::Status write_local(const std::string& user,
                           const std::string& collection,
                           const std::string& id, util::Json data);

  util::Result<SyncStats> apply_records(const std::string& peer,
                                        const util::Json& records);

  // One user's pull round trip against one peer (no retry, no breaker —
  // sync_from layers those on top).
  util::Result<SyncStats> pull_user(const std::string& peer_name,
                                    const std::string& user);

  std::string address() const { return "fed://" + name_; }

  std::string name_;
  platform::Provider& provider_;
  net::InMemoryNetwork& network_;
  MirrorAuthorizer mirrors_;
  net::HttpServer server_;
  // Guards pending_ and is held while a pump serves it, handler calls
  // included — the node's outermost lock.
  util::Mutex serve_mutex_{util::lockrank::kFedServe, "Node::serve_mutex_"};
  std::vector<std::unique_ptr<net::Connection>> pending_
      W5_GUARDED_BY(serve_mutex_);
  // (collection, id) -> clock
  std::map<std::pair<std::string, std::string>, VectorClock> clocks_;
  // (collection, id) -> deletion time; present only while deleted.
  std::map<std::pair<std::string, std::string>, util::Micros> tombstones_;
  ConnectionDecorator decorator_;
  net::RetryPolicy retry_policy_;
  net::SleepFn retry_sleep_ = net::no_sleep();
  // Per-peer breakers; unique_ptr because CircuitBreaker is immovable
  // (mutex) and the map must not invalidate references on rehash. The
  // map itself is the only Node state touched from concurrent sync
  // drivers (clocks_/tombstones_ are externally serialized per node), so
  // it gets its own leaf mutex; the returned breaker synchronizes
  // internally.
  mutable util::Mutex breakers_mutex_{util::lockrank::kFedBreakers,
                                       "Node::breakers_mutex_"};
  std::map<std::string, std::unique_ptr<net::CircuitBreaker>> breakers_
      W5_GUARDED_BY(breakers_mutex_);
};

}  // namespace w5::fed
