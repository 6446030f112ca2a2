// Federated metasearch (DESIGN.md §18): the scatter/gather query plane.
//
// One home provider peered with three others, all of them holding bob's
// mirrored photos. Covered here: the fan-out itself (merge, vector-clock
// dedupe, tf-idf merge-rank, cursor pagination), graceful degradation
// under chaos (slow peer → cutoff + partial, dead peer → breaker opens,
// duplicates → deterministic winner, all reproducible per seed), the
// §3.5 facet-quantization regression across the federation boundary,
// the stitched fan-out trace, the gateway and photos-app surfaces, and
// the fed statusz/metrics exports.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "core/auth.h"
#include "core/provider.h"
#include "core/trace.h"
#include "fed/metasearch.h"
#include "fed/node.h"
#include "net/fault.h"
#include "util/metrics.h"

namespace w5::fed {
namespace {

using net::Method;
using platform::Provider;
using platform::ProviderConfig;

class MetasearchTest : public ::testing::Test {
 protected:
  MetasearchTest()
      : home_(ProviderConfig{.name = "home"}, clock_),
        peer_b_(ProviderConfig{.name = "peerB"}, clock_),
        peer_c_(ProviderConfig{.name = "peerC"}, clock_),
        peer_d_(ProviderConfig{.name = "peerD"}, clock_),
        home_node_("home", home_, network_),
        node_b_("peerB", peer_b_, network_),
        node_c_("peerC", peer_c_, network_),
        node_d_("peerD", peer_d_, network_) {}

  void SetUp() override {
    for (Provider* provider : {&home_, &peer_b_, &peer_c_, &peer_d_})
      ASSERT_TRUE(provider->signup("bob", "pwd").ok());
    // Bob consented to mirror with every peer, both directions (§3.3):
    // the home side defines the fan-out set, each peer's side gates what
    // its /fed/query leg will answer.
    for (const char* peer : {"peerB", "peerC", "peerD"})
      home_node_.mirrors().authorize("bob", peer);
    for (Node* node : {&node_b_, &node_c_, &node_d_})
      node->mirrors().authorize("bob", "home");
  }

  util::Status put(Node& node, const std::string& id,
                   const std::string& title, const std::string& color = "") {
    util::Json data;
    data["title"] = title;
    if (!color.empty()) data["color"] = color;
    return node.put_user_record("bob", "photos", id, std::move(data));
  }

  void put_one_everywhere() {
    ASSERT_TRUE(put(home_node_, "h1", "home sunset").ok());
    ASSERT_TRUE(put(node_b_, "b1", "beach sunset").ok());
    ASSERT_TRUE(put(node_c_, "c1", "city lights").ok());
    ASSERT_TRUE(put(node_d_, "d1", "desert dunes").ok());
  }

  static platform::FederatedQuery make_query(std::string terms = "",
                                             std::size_t limit = 20) {
    platform::FederatedQuery query;
    query.collection = "photos";
    query.terms = std::move(terms);
    query.limit = limit;
    return query;
  }

  static std::vector<std::string> ids_of(const MetaPage& page) {
    std::vector<std::string> ids;
    for (const MergedRecord& record : page.records) ids.push_back(record.id);
    return ids;
  }

  static const PeerOutcome* outcome_for(const MetaPage& page,
                                        const std::string& peer) {
    for (const PeerOutcome& outcome : page.peers)
      if (outcome.peer == peer) return &outcome;
    return nullptr;
  }

  util::SimClock clock_;
  net::InMemoryNetwork network_;
  Provider home_;
  Provider peer_b_;
  Provider peer_c_;
  Provider peer_d_;
  Node home_node_;
  Node node_b_;
  Node node_c_;
  Node node_d_;
};

// ---- The happy-path fan-out -------------------------------------------------

TEST_F(MetasearchTest, FansOutToThreePeersAndMergesWithLocalLeg) {
  put_one_everywhere();
  Metasearch meta(home_node_);
  auto page = meta.search(os::kKernelPid, "bob", make_query());
  ASSERT_TRUE(page.ok()) << page.error().code;
  EXPECT_FALSE(page.value().partial);
  auto ids = ids_of(page.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"b1", "c1", "d1", "h1"}));
  ASSERT_EQ(page.value().peers.size(), 3u);
  for (const char* peer : {"peerB", "peerC", "peerD"}) {
    const PeerOutcome* outcome = outcome_for(page.value(), peer);
    ASSERT_NE(outcome, nullptr) << peer;
    EXPECT_EQ(outcome->status, "ok");
    EXPECT_EQ(outcome->records, 1u);
  }
  // Provenance: remote rows name their source node, the local row is
  // flagged local.
  for (const MergedRecord& record : page.value().records) {
    if (record.id == "h1") {
      EXPECT_TRUE(record.local);
      EXPECT_EQ(record.provider, "home");
    } else {
      EXPECT_FALSE(record.local);
    }
  }
}

TEST_F(MetasearchTest, RelevanceRanksTermMatchesAcrossProviders) {
  put_one_everywhere();
  Metasearch meta(home_node_);
  auto page = meta.search(os::kKernelPid, "bob", make_query("sunset"));
  ASSERT_TRUE(page.ok()) << page.error().code;
  // AND-matching happens at each source: only the two sunset photos
  // cross the wire at all, scored and sorted.
  auto ids = ids_of(page.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"b1", "h1"}));
  ASSERT_EQ(page.value().records.size(), 2u);
  EXPECT_GE(page.value().records[0].score, page.value().records[1].score);
  // Non-matching peers still answered ok — just with nothing.
  EXPECT_EQ(outcome_for(page.value(), "peerC")->records, 0u);
}

TEST_F(MetasearchTest, DuplicateRecordsCollapseToOneDeterministicWinner) {
  put_one_everywhere();
  // The same record diverged on home and peerB at the same instant:
  // concurrent clocks, tied timestamps — the name tie-break (smaller
  // provider wins) picks "home", same rule Node::apply_records uses.
  ASSERT_TRUE(put(home_node_, "shared", "from home").ok());
  ASSERT_TRUE(put(node_b_, "shared", "from peerB").ok());
  Metasearch meta(home_node_);
  auto page = meta.search(os::kKernelPid, "bob", make_query());
  ASSERT_TRUE(page.ok()) << page.error().code;
  std::size_t shared_rows = 0;
  for (const MergedRecord& record : page.value().records) {
    if (record.id != "shared") continue;
    ++shared_rows;
    EXPECT_EQ(record.provider, "home");
    EXPECT_EQ(record.data.at("title").as_string(), "from home");
  }
  EXPECT_EQ(shared_rows, 1u);

  // A genuinely newer remote copy wins over the stale local one.
  clock_.advance(100);
  ASSERT_TRUE(put(node_b_, "shared", "newer from peerB").ok());
  auto again = meta.search(os::kKernelPid, "bob", make_query());
  ASSERT_TRUE(again.ok());
  for (const MergedRecord& record : again.value().records) {
    if (record.id != "shared") continue;
    EXPECT_EQ(record.provider, "peerB");
    EXPECT_EQ(record.data.at("title").as_string(), "newer from peerB");
  }
}

TEST_F(MetasearchTest, CursorPaginatesTheMergedWindowWithoutOverlap) {
  put_one_everywhere();
  Metasearch meta(home_node_);
  std::vector<std::string> seen;
  std::string cursor;
  for (int pages = 0; pages < 10; ++pages) {
    auto query = make_query("", 2);
    query.cursor = cursor;
    auto page = meta.search(os::kKernelPid, "bob", query);
    ASSERT_TRUE(page.ok()) << page.error().code;
    EXPECT_LE(page.value().records.size(), 2u);
    for (const MergedRecord& record : page.value().records) {
      EXPECT_EQ(std::count(seen.begin(), seen.end(), record.id), 0)
          << "page overlap on " << record.id;
      seen.push_back(record.id);
    }
    cursor = page.value().next_cursor;
    if (cursor.empty()) break;
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"b1", "c1", "d1", "h1"}));

  auto bad = make_query();
  bad.cursor = "not-a-cursor";
  EXPECT_EQ(meta.search(os::kKernelPid, "bob", bad).error().code,
            "fed.bad_cursor");
}

// ---- Chaos: graceful degradation -------------------------------------------

TEST_F(MetasearchTest, SlowPeerHitsTheCutoffAndThePageDegradesToPartial) {
  put_one_everywhere();
  MetasearchConfig config;
  // 100 ms gather budget: far more than a healthy hop takes even in a
  // sanitizer build on a loaded host, so only the stalled peer misses it.
  config.fanout_budget_micros = 100'000;
  Metasearch meta(home_node_, config);
  // peerC's wire stalls 400 ms on the first write — four budgets long.
  meta.set_connection_decorator(
      [](const std::string& peer, std::unique_ptr<net::Connection> inner)
          -> std::unique_ptr<net::Connection> {
        if (peer != "peerC") return inner;
        return std::make_unique<net::FaultyConnection>(
            std::move(inner),
            net::FaultSchedule::scripted(
                {}, {{net::FaultKind::kDelay, 400'000, 1}}));
      });
  auto page = meta.search(os::kKernelPid, "bob", make_query());
  ASSERT_TRUE(page.ok()) << page.error().code;
  EXPECT_TRUE(page.value().partial);
  EXPECT_EQ(outcome_for(page.value(), "peerC")->status, "timeout");
  EXPECT_EQ(outcome_for(page.value(), "peerB")->status, "ok");
  EXPECT_EQ(outcome_for(page.value(), "peerD")->status, "ok");
  // The fast peers' results still serve — partial beats blank.
  auto ids = ids_of(page.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"b1", "d1", "h1"}));
}

// Regression: a straggling hop from one search and the next search's hop
// to the same slow peer both run that peer node's accept and pump
// callbacks. The node's connection queue and the in-memory pipe buffers
// were unlocked, so the two hop threads raced on them (heap-use-after-free
// under ASan, data races under TSan). Run under both sanitizers.
TEST_F(MetasearchTest, StragglerAndNextSearchShareTheSlowPeerSafely) {
  put_one_everywhere();
  MetasearchConfig config;
  config.fanout_budget_micros = 20'000;
  Metasearch meta(home_node_, config);
  // Three back-to-back searches (the third timeout opens peerC's breaker).
  // Each connection to peerC stalls on its first write, each one budget
  // less than the one before, so all three hops to peerC write and pump
  // it at about the same moment, after their searches gave up on them.
  std::atomic<int> dials{0};
  meta.set_connection_decorator(
      [&dials](const std::string& peer, std::unique_ptr<net::Connection> inner)
          -> std::unique_ptr<net::Connection> {
        if (peer != "peerC") return inner;
        const util::Micros stall = 80'000 - 20'000 * dials++;
        return std::make_unique<net::FaultyConnection>(
            std::move(inner),
            net::FaultSchedule::scripted(
                {}, {{net::FaultKind::kDelay, stall, 1}}));
      });
  for (int search = 0; search < 3; ++search) {
    auto page = meta.search(os::kKernelPid, "bob", make_query());
    ASSERT_TRUE(page.ok()) << page.error().code;
    EXPECT_TRUE(page.value().partial);
    EXPECT_EQ(outcome_for(page.value(), "peerC")->status, "timeout");
  }
  // ~Metasearch joins the stragglers, which finish their exchanges with
  // peerC meanwhile: each of them dials, writes, pumps and reads.
}

TEST_F(MetasearchTest, DeadPeerOpensItsBreakerAndResultsStillServe) {
  put_one_everywhere();
  // "peerE" is authorized but nothing listens there: every hop fails.
  home_node_.mirrors().authorize("bob", "peerE");
  Metasearch meta(home_node_);
  for (int round = 0; round < 3; ++round) {
    auto page = meta.search(os::kKernelPid, "bob", make_query());
    ASSERT_TRUE(page.ok()) << page.error().code;
    EXPECT_TRUE(page.value().partial);
    EXPECT_EQ(outcome_for(page.value(), "peerE")->status, "error");
    EXPECT_EQ(outcome_for(page.value(), "peerE")->error_code,
              "net.unreachable");
  }
  // Three consecutive failures opened the breaker: the next fan-out
  // skips the peer outright instead of burning another hop.
  EXPECT_EQ(home_node_.breaker_for("peerE").state(),
            net::CircuitBreaker::State::kOpen);
  auto page = meta.search(os::kKernelPid, "bob", make_query());
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page.value().partial);
  EXPECT_EQ(outcome_for(page.value(), "peerE")->status, "breaker_open");
  auto ids = ids_of(page.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"b1", "c1", "d1", "h1"}));
  if constexpr (util::kTelemetryEnabled) {
    const util::Json counters = home_.metrics().to_json().at("counters");
    EXPECT_GE(counters
                  .at("w5_fed_query_peer_results_total{result=\"breaker_open\"}")
                  .as_int(0),
              1);
    EXPECT_GE(counters.at("w5_fed_query_partial_total").as_int(0), 4);
  }
}

// A query helper usable from the non-fixture chaos test.
platform::FederatedQuery make_query_static() {
  platform::FederatedQuery query;
  query.collection = "photos";
  return query;
}

// Seeded chaos: the same seed replays the identical fan-out — peer fates
// and the merged window match row for row across runs.
class MetasearchChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetasearchChaos, SeededFaultsAreDeterministic) {
  struct Outcome {
    std::vector<std::pair<std::string, std::string>> peers;  // (peer, status)
    std::vector<std::string> ids;
    bool partial = false;
  };
  const auto run_once = [](std::uint64_t seed) {
    util::SimClock clock;
    net::InMemoryNetwork network;
    Provider home(ProviderConfig{.name = "home"}, clock);
    Provider pb(ProviderConfig{.name = "peerB"}, clock);
    Provider pc(ProviderConfig{.name = "peerC"}, clock);
    Node home_node("home", home, network);
    Node node_b("peerB", pb, network);
    Node node_c("peerC", pc, network);
    for (Provider* provider : {&home, &pb, &pc})
      EXPECT_TRUE(provider->signup("bob", "pwd").ok());
    for (const char* peer : {"peerB", "peerC"})
      home_node.mirrors().authorize("bob", peer);
    node_b.mirrors().authorize("bob", "home");
    node_c.mirrors().authorize("bob", "home");
    const auto put = [](Node& node, const std::string& id,
                        const std::string& title) {
      util::Json data;
      data["title"] = title;
      EXPECT_TRUE(node.put_user_record("bob", "photos", id, data).ok());
    };
    put(home_node, "h1", "home sunset");
    // Duplicates from two peers: both hold bob's "shared" record,
    // concurrently edited — dedupe must pick the same winner every run.
    put(node_b, "shared", "peerB copy");
    put(node_c, "shared", "peerC copy");
    put(node_b, "b1", "beach");
    put(node_c, "c1", "city");

    Metasearch meta(home_node);
    net::FaultSchedule::Profile profile;
    profile.short_read_probability = 0.3;
    profile.drop_probability = 0.15;
    profile.reset_probability = 0.1;
    meta.set_connection_decorator(
        [seed, profile](const std::string& peer,
                        std::unique_ptr<net::Connection> inner)
            -> std::unique_ptr<net::Connection> {
          // Distinct per-peer streams, still pure functions of the seed.
          const std::uint64_t peer_seed = seed * 31 + peer.size() +
                                          static_cast<std::uint64_t>(
                                              peer.back());
          return std::make_unique<net::FaultyConnection>(
              std::move(inner),
              net::FaultSchedule::seeded(peer_seed, profile),
              net::no_sleep());
        });
    Outcome outcome;
    auto page = meta.search(os::kKernelPid, "bob", make_query_static());
    EXPECT_TRUE(page.ok());
    if (!page.ok()) return outcome;
    outcome.partial = page.value().partial;
    for (const PeerOutcome& peer : page.value().peers)
      outcome.peers.emplace_back(peer.peer, peer.status);
    for (const MergedRecord& record : page.value().records)
      outcome.ids.push_back(record.provider + "/" + record.id);
    return outcome;
  };
  const Outcome first = run_once(GetParam());
  const Outcome second = run_once(GetParam());
  EXPECT_EQ(first.peers, second.peers);
  EXPECT_EQ(first.ids, second.ids);
  EXPECT_EQ(first.partial, second.partial);
  // Whatever the faults did, the local leg always serves.
  EXPECT_NE(std::find(first.ids.begin(), first.ids.end(), "home/h1"),
            first.ids.end());

  // Dedupe determinism: if both peers delivered "shared", exactly one
  // row survives (the clock/name rule), never two.
  EXPECT_LE(std::count_if(first.ids.begin(), first.ids.end(),
                          [](const std::string& id) {
                            return id.find("/shared") != std::string::npos;
                          }),
            1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetasearchChaos, ::testing::Values(1, 2, 3));

// ---- §3.5 across the federation boundary ------------------------------------

TEST_F(MetasearchTest, MergedFacetCountsRideTheSameQuantizerAsLocalCounts) {
  // Quantum 8 on the home store: facet counts over the merged window
  // must round up through LabeledStore::quantize_count — the same path
  // count() uses — so adjacent true counts n and n+1 render identically
  // and the count channel stays closed across the federation boundary.
  store::QueryGovernorConfig governor;
  governor.count_quantum = 8;
  home_.store().set_governor_config(governor);
  ASSERT_TRUE(put(home_node_, "h1", "one", "red").ok());
  ASSERT_TRUE(put(node_b_, "b1", "two", "red").ok());
  ASSERT_TRUE(put(node_b_, "b2", "three", "red").ok());
  ASSERT_TRUE(put(node_c_, "c1", "four", "red").ok());
  ASSERT_TRUE(put(node_d_, "d1", "five", "red").ok());

  Metasearch meta(home_node_);
  auto query = make_query();
  query.facets = {"color"};
  auto five = meta.search(os::kKernelPid, "bob", query);
  ASSERT_TRUE(five.ok()) << five.error().code;
  const std::int64_t count_at_5 =
      five.value().facets.at("color").at("red").as_int(0);

  ASSERT_TRUE(put(node_c_, "c2", "six", "red").ok());  // n → n+1
  auto six = meta.search(os::kKernelPid, "bob", query);
  ASSERT_TRUE(six.ok());
  const std::int64_t count_at_6 =
      six.value().facets.at("color").at("red").as_int(0);

  EXPECT_EQ(count_at_5, 8);  // quantized up, not the true 5
  EXPECT_EQ(count_at_5, count_at_6);  // n vs n+1 indistinguishable

  // Same quantum, same answer from the local count path — one quantizer,
  // two planes.
  EXPECT_EQ(home_.store().quantize_count(5),
            home_.store().quantize_count(6));
}

// ---- Tracing: the fan-out as one stitched tree ------------------------------

TEST_F(MetasearchTest, FanOutIsOneStitchedTraceAcrossAllPeers) {
  if (!util::kTelemetryEnabled) return;
  put_one_everywhere();
  Metasearch meta(home_node_);
  platform::Trace trace;
  {
    platform::RequestContext context("meta-probe-1");  // forced sampling
    auto page = meta.search(os::kKernelPid, "bob", make_query());
    ASSERT_TRUE(page.ok()) << page.error().code;
    trace = context.finish();
  }
  // One hop span per peer, each with the peer's own serving spans
  // stitched under it (remote="peerX"), plus the local leg's span.
  std::vector<std::string> hop_peers;
  bool saw_local_leg = false;
  for (const platform::TraceSpan& span : trace.spans) {
    if (span.name == "fed.local") saw_local_leg = true;
    if (span.name != "fed.query" || !span.remote.empty()) continue;
    hop_peers.push_back(span.note.substr(span.note.find("peer=")));
    bool found_remote_child = false;
    for (const platform::TraceSpan& child : trace.spans) {
      if (!child.remote.empty() && child.parent == span.id)
        found_remote_child = true;
    }
    EXPECT_TRUE(found_remote_child) << span.note;
  }
  EXPECT_TRUE(saw_local_leg);
  EXPECT_EQ(hop_peers.size(), 3u);
  // Every peer recorded the same trace id on its side: /trace/:id
  // resolves over there too, route "fed.query".
  for (Provider* peer : {&peer_b_, &peer_c_, &peer_d_}) {
    platform::Trace peer_side;
    ASSERT_EQ(peer->traces().lookup("meta-probe-1", &peer_side),
              platform::TraceBuffer::Lookup::kFound);
    EXPECT_EQ(peer_side.route, "fed.query");
  }
}

// ---- The gateway + app surfaces ---------------------------------------------

TEST_F(MetasearchTest, GatewayFedSearchServesMergedPageToTheViewer) {
  put_one_everywhere();
  Metasearch meta(home_node_);
  meta.install();
  const std::string bob = home_.login("bob", "pwd").value();

  EXPECT_EQ(home_.http(Method::kGet, "/fed/search").status, 401);
  const auto response =
      home_.http(Method::kGet, "/fed/search?facets=title", "", bob);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_FALSE(response.headers.get("X-W5-Fed-Partial").has_value());
  auto body = util::Json::parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().at("items").as_array().size(), 4u);
  EXPECT_EQ(body.value().at("peers").as_array().size(), 3u);
  EXPECT_FALSE(body.value().at("partial").as_bool());

  EXPECT_EQ(home_.http(Method::kGet, "/fed/search?limit=0", "", bob).status,
            400);
  EXPECT_EQ(
      home_.http(Method::kGet, "/fed/search?cursor=junk", "", bob).status,
      400);
}

TEST_F(MetasearchTest, GatewayFlagsPartialPagesInAHeader) {
  put_one_everywhere();
  MetasearchConfig config;
  // 100 ms gather budget, so only the stalled peer misses it (see the
  // cutoff test above).
  config.fanout_budget_micros = 100'000;
  Metasearch meta(home_node_, config);
  // peerD's wire stalls 400 ms on the first write — four budgets long.
  meta.set_connection_decorator(
      [](const std::string& peer, std::unique_ptr<net::Connection> inner)
          -> std::unique_ptr<net::Connection> {
        if (peer != "peerD") return inner;
        return std::make_unique<net::FaultyConnection>(
            std::move(inner),
            net::FaultSchedule::scripted(
                {}, {{net::FaultKind::kDelay, 400'000, 1}}));
      });
  meta.install();
  const std::string bob = home_.login("bob", "pwd").value();
  const auto response = home_.http(Method::kGet, "/fed/search", "", bob);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.headers.get("X-W5-Fed-Partial").value_or(""), "1");
  auto body = util::Json::parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_TRUE(body.value().at("partial").as_bool());
  EXPECT_EQ(body.value().at("items").as_array().size(), 3u);
}

TEST_F(MetasearchTest, FedSearchWithoutAnInstalledPlaneIs503) {
  const std::string bob = home_.login("bob", "pwd").value();
  const auto response = home_.http(Method::kGet, "/fed/search", "", bob);
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("fed.not_configured"), std::string::npos);
}

TEST_F(MetasearchTest, PhotosEverywhereViewReachesTheSeamOnly) {
  put_one_everywhere();
  ASSERT_TRUE(home_.modules().add(apps::make_photo_app("photoco", "1.0")).ok());
  const std::string bob = home_.login("bob", "pwd").value();

  // Before install: the app surfaces the same fed.not_configured as 503.
  EXPECT_EQ(home_.http(Method::kGet, "/dev/photoco/photos/everywhere", "",
                       bob).status,
            503);

  Metasearch meta(home_node_);
  meta.install();
  EXPECT_EQ(home_.http(Method::kGet, "/dev/photoco/photos/everywhere").status,
            401);
  const auto response =
      home_.http(Method::kGet, "/dev/photoco/photos/everywhere?q=sunset", "",
                 bob);
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = util::Json::parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().at("user").as_string(), "bob");
  EXPECT_EQ(body.value().at("items").as_array().size(), 2u);  // h1 + b1
}

// ---- Observability exports ---------------------------------------------------

TEST_F(MetasearchTest, StatuszCarriesTheFedSyncAndMetasearchSections) {
  if (!util::kTelemetryEnabled) return;
  put_one_everywhere();
  // Exercise both planes: one sync round and one fan-out.
  ASSERT_TRUE(home_node_.sync_from("peerB").ok());
  Metasearch meta(home_node_);
  ASSERT_TRUE(meta.search(os::kKernelPid, "bob", make_query()).ok());

  const std::string bob = home_.login("bob", "pwd").value();
  const auto response = home_.http(Method::kGet, "/debug/statusz", "", bob);
  ASSERT_EQ(response.status, 200);
  auto statusz = util::Json::parse(response.body);
  ASSERT_TRUE(statusz.ok());
  const util::Json& fed = statusz.value().at("fed");
  EXPECT_GE(fed.at("sync").at("rounds_ok").as_int(0), 1);
  EXPECT_GE(fed.at("sync").at("records").at("applied").as_int(0), 1);
  EXPECT_GE(fed.at("metasearch").at("fanouts").as_int(0), 1);
  EXPECT_GE(fed.at("metasearch").at("records_merged").as_int(0), 4);
  EXPECT_GE(fed.at("metasearch").at("peer_results").at("ok").as_int(0), 3);
  // The serving side counts what it answered.
  const util::Json peer_counters = peer_b_.metrics().to_json().at("counters");
  EXPECT_GE(peer_counters.at("w5_fed_query_served_total").as_int(0), 1);
}

}  // namespace
}  // namespace w5::fed
