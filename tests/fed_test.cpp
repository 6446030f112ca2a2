#include <gtest/gtest.h>

#include "fed/node.h"
#include "util/rng.h"

namespace w5::fed {
namespace {

TEST(VectorClockTest, TickMergeCompare) {
  VectorClock a, b;
  EXPECT_EQ(a.compare(b), ClockOrder::kEqual);
  a.tick("A");
  EXPECT_EQ(a.compare(b), ClockOrder::kAfter);
  EXPECT_EQ(b.compare(a), ClockOrder::kBefore);
  b.tick("B");
  EXPECT_EQ(a.compare(b), ClockOrder::kConcurrent);
  b.merge(a);
  EXPECT_EQ(b.compare(a), ClockOrder::kAfter);
  EXPECT_EQ(b.at("A"), 1u);
  EXPECT_EQ(b.at("B"), 1u);
  EXPECT_EQ(b.at("C"), 0u);
}

TEST(VectorClockTest, JsonRoundTrip) {
  VectorClock clock;
  clock.tick("providerA");
  clock.tick("providerA");
  clock.tick("providerB");
  auto parsed = VectorClock::from_json(clock.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), clock);
  EXPECT_FALSE(VectorClock::from_json(util::Json(3)).ok());
  EXPECT_FALSE(
      VectorClock::from_json(util::Json::parse(R"({"a":-1})").value()).ok());
  EXPECT_EQ(clock.to_string(), "[providerA:2,providerB:1]");
}

// Property: compare() is consistent with merge() — after merging, the
// result dominates both inputs.
class ClockProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClockProperty, MergeDominatesBothInputs) {
  util::Rng rng(GetParam());
  const std::vector<std::string> axes{"A", "B", "C"};
  for (int round = 0; round < 200; ++round) {
    VectorClock a, b;
    for (int i = 0; i < 10; ++i) {
      if (rng.next_bool()) a.tick(axes[rng.next_below(3)]);
      if (rng.next_bool()) b.tick(axes[rng.next_below(3)]);
    }
    VectorClock merged = a;
    merged.merge(b);
    const auto va = merged.compare(a);
    const auto vb = merged.compare(b);
    EXPECT_TRUE(va == ClockOrder::kAfter || va == ClockOrder::kEqual);
    EXPECT_TRUE(vb == ClockOrder::kAfter || vb == ClockOrder::kEqual);
    // Antisymmetry of compare.
    const auto ab = a.compare(b);
    const auto ba = b.compare(a);
    if (ab == ClockOrder::kBefore) {
      EXPECT_EQ(ba, ClockOrder::kAfter);
    }
    if (ab == ClockOrder::kConcurrent) {
      EXPECT_EQ(ba, ClockOrder::kConcurrent);
    }
    if (ab == ClockOrder::kEqual) {
      EXPECT_EQ(ba, ClockOrder::kEqual);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClockProperty, ::testing::Values(1, 2, 3));

TEST(MirrorAuthorizerTest, ConsentTable) {
  MirrorAuthorizer mirrors;
  EXPECT_FALSE(mirrors.authorized("bob", "providerB"));
  EXPECT_EQ(mirrors.check("bob", "providerB").error().code,
            "fed.unauthorized");
  mirrors.authorize("bob", "providerB");
  EXPECT_TRUE(mirrors.authorized("bob", "providerB"));
  EXPECT_TRUE(mirrors.check("bob", "providerB").ok());
  EXPECT_FALSE(mirrors.authorized("bob", "providerC"));
  EXPECT_EQ(mirrors.users_for("providerB"),
            (std::vector<std::string>{"bob"}));
  mirrors.revoke("bob", "providerB");
  EXPECT_FALSE(mirrors.authorized("bob", "providerB"));
}

class FederationTest : public ::testing::Test {
 protected:
  FederationTest()
      : provider_a_(platform::ProviderConfig{.name = "providerA"}, clock_),
        provider_b_(platform::ProviderConfig{.name = "providerB"}, clock_),
        node_a_("providerA", provider_a_, network_),
        node_b_("providerB", provider_b_, network_) {}

  void SetUp() override {
    // Bob has linked accounts on both providers (§3.3).
    ASSERT_TRUE(provider_a_.signup("bob", "pwd").ok());
    ASSERT_TRUE(provider_b_.signup("bob", "pwd").ok());
    ASSERT_TRUE(provider_a_.signup("amy", "pwd").ok());
    ASSERT_TRUE(provider_b_.signup("amy", "pwd").ok());
  }

  void authorize_bob_both_ways() {
    node_a_.mirrors().authorize("bob", "providerB");
    node_b_.mirrors().authorize("bob", "providerA");
  }

  util::SimClock clock_;
  net::InMemoryNetwork network_;
  platform::Provider provider_a_;
  platform::Provider provider_b_;
  Node node_a_;
  Node node_b_;
};

TEST_F(FederationTest, MirrorsAuthorizedUserData) {
  authorize_bob_both_ways();
  util::Json photo;
  photo["title"] = "sunset";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", photo).ok());

  auto stats = node_b_.sync_from("providerA");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().applied, 1u);

  auto replicated =
      provider_b_.store().get(os::kKernelPid, "photos", "p1");
  ASSERT_TRUE(replicated.ok());
  EXPECT_EQ(replicated.value().data.at("title").as_string(), "sunset");
  EXPECT_EQ(replicated.value().owner, "bob");
  // Re-classified under provider B's tags for bob.
  const auto* bob_b = provider_b_.users().find("bob");
  EXPECT_EQ(replicated.value().labels.secrecy,
            difc::Label{bob_b->secrecy_tag});
}

TEST_F(FederationTest, UnauthorizedUserIsNotMirrored) {
  authorize_bob_both_ways();
  util::Json diary;
  diary["note"] = "amy's private";
  ASSERT_TRUE(node_a_.put_user_record("amy", "diary", "d1", diary).ok());
  auto stats = node_b_.sync_from("providerA");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().applied, 0u);
  EXPECT_EQ(provider_b_.store().get(os::kKernelPid, "diary", "d1")
                .error().code,
            "store.not_found");
}

TEST_F(FederationTest, PeerSideConsentIsAlsoRequired) {
  // B thinks bob consented, but on A (the data holder) bob did not: the
  // serving side must refuse.
  node_b_.mirrors().authorize("bob", "providerA");
  util::Json photo;
  photo["title"] = "x";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", photo).ok());
  auto stats = node_b_.sync_from("providerA");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, "fed.pull_failed");
  EXPECT_GE(provider_a_.audit().count(platform::AuditKind::kExportBlocked),
            1u);
}

TEST_F(FederationTest, RepeatSyncIsIdempotent) {
  authorize_bob_both_ways();
  util::Json photo;
  photo["title"] = "sunset";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", photo).ok());
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());
  auto again = node_b_.sync_from("providerA");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().applied, 0u);
  EXPECT_EQ(again.value().offered, 0u);  // clock filter on the serving side
  // And the reverse direction doesn't bounce the record back.
  auto reverse = node_a_.sync_from("providerB");
  ASSERT_TRUE(reverse.ok());
  EXPECT_EQ(reverse.value().applied, 0u);
}

TEST_F(FederationTest, UpdatePropagatesAfterResync) {
  authorize_bob_both_ways();
  util::Json v1;
  v1["title"] = "v1";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", v1).ok());
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());
  clock_.advance(10);
  util::Json v2;
  v2["title"] = "v2";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", v2).ok());
  auto stats = node_b_.sync_from("providerA");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().applied, 1u);
  EXPECT_EQ(provider_b_.store().get(os::kKernelPid, "photos", "p1").value()
                .data.at("title").as_string(),
            "v2");
}

TEST_F(FederationTest, ConcurrentEditsConvergeDeterministically) {
  authorize_bob_both_ways();
  util::Json base;
  base["title"] = "base";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", base).ok());
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());

  // Divergent edits: A at t=100, B at t=200 (B is newer).
  clock_.advance(100);
  util::Json edit_a;
  edit_a["title"] = "edit from A";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", edit_a).ok());
  clock_.advance(100);
  util::Json edit_b;
  edit_b["title"] = "edit from B";
  ASSERT_TRUE(node_b_.put_user_record("bob", "photos", "p1", edit_b).ok());

  auto stats_b = node_b_.sync_from("providerA");
  ASSERT_TRUE(stats_b.ok());
  EXPECT_EQ(stats_b.value().conflicts, 1u);
  auto stats_a = node_a_.sync_from("providerB");
  ASSERT_TRUE(stats_a.ok());

  // Both converge on the later edit.
  const auto title_a = provider_a_.store()
                           .get(os::kKernelPid, "photos", "p1").value()
                           .data.at("title").as_string();
  const auto title_b = provider_b_.store()
                           .get(os::kKernelPid, "photos", "p1").value()
                           .data.at("title").as_string();
  EXPECT_EQ(title_a, "edit from B");
  EXPECT_EQ(title_b, "edit from B");
  // Clocks converge too.
  EXPECT_EQ(node_a_.clock_of("photos", "p1")
                .compare(node_b_.clock_of("photos", "p1")),
            ClockOrder::kEqual);
}

TEST_F(FederationTest, SimultaneousTimestampsTieBreakByName) {
  authorize_bob_both_ways();
  // Same SimClock instant on both sides: pure tie.
  util::Json edit_a;
  edit_a["title"] = "from A";
  util::Json edit_b;
  edit_b["title"] = "from B";
  ASSERT_TRUE(node_a_.put_user_record("bob", "photos", "p1", edit_a).ok());
  ASSERT_TRUE(node_b_.put_user_record("bob", "photos", "p1", edit_b).ok());
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());
  ASSERT_TRUE(node_a_.sync_from("providerB").ok());
  const auto title_a = provider_a_.store()
                           .get(os::kKernelPid, "photos", "p1").value()
                           .data.at("title").as_string();
  const auto title_b = provider_b_.store()
                           .get(os::kKernelPid, "photos", "p1").value()
                           .data.at("title").as_string();
  EXPECT_EQ(title_a, title_b);  // same winner on both sides
}

TEST_F(FederationTest, PartitionThenHeal) {
  authorize_bob_both_ways();
  // "Partition": just don't sync while both sides accumulate writes.
  for (int i = 0; i < 5; ++i) {
    util::Json a;
    a["n"] = i;
    ASSERT_TRUE(node_a_.put_user_record("bob", "photos",
                                        "a" + std::to_string(i), a).ok());
    util::Json b;
    b["n"] = i;
    ASSERT_TRUE(node_b_.put_user_record("bob", "photos",
                                        "b" + std::to_string(i), b).ok());
  }
  // Heal: both pull.
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());
  ASSERT_TRUE(node_a_.sync_from("providerB").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(provider_a_.store()
                    .get(os::kKernelPid, "photos", "b" + std::to_string(i))
                    .ok());
    EXPECT_TRUE(provider_b_.store()
                    .get(os::kKernelPid, "photos", "a" + std::to_string(i))
                    .ok());
  }
}

TEST_F(FederationTest, UnknownPeerIsUnreachable) {
  node_a_.mirrors().authorize("bob", "ghost");
  auto stats = node_a_.sync_from("ghost");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, "net.unreachable");
}

// bob keeps "diary" private (rp(bob) on every record there) and lets his
// friends read the rest. Every trusted write path stamps the same labels:
// a /data upload, the node's own write, and the peer's import of it.
// amy, his friend, is refused all three.
TEST_F(FederationTest, PrivateCollectionStaysReadProtectedOnEveryWritePath) {
  authorize_bob_both_ways();
  for (platform::Provider* provider : {&provider_a_, &provider_b_}) {
    const std::string bob = provider->login("bob", "pwd").value();
    ASSERT_EQ(provider->http(net::Method::kPost, "/data/friends/bob",
                             R"({"friends":["amy"]})", bob)
                  .status,
              201);
    ASSERT_EQ(provider->http(net::Method::kPost, "/policy",
                             R"({"declassifier":"std/friends",
                                 "private_collections":["diary"]})",
                             bob)
                  .status,
              200);
  }
  const std::string bob_a = provider_a_.login("bob", "pwd").value();
  ASSERT_EQ(provider_a_.http(net::Method::kPost, "/data/diary/uploaded",
                             R"({"entry":"via data"})", bob_a)
                .status,
            201);
  util::Json entry;
  entry["entry"] = "via node";
  ASSERT_TRUE(node_a_.put_user_record("bob", "diary", "written", entry).ok());
  ASSERT_TRUE(node_b_.sync_from("providerA").ok());

  const auto expect_private = [](platform::Provider& provider,
                                 const std::string& id) {
    const platform::UserAccount* bob = provider.users().find("bob");
    auto record = provider.store().get(os::kKernelPid, "diary", id);
    ASSERT_TRUE(record.ok()) << id;
    EXPECT_EQ(record.value().labels.secrecy.to_string(),
              (difc::Label{bob->secrecy_tag, bob->read_tag}).to_string())
        << id;
    EXPECT_EQ(record.value().labels.integrity.to_string(),
              difc::Label{bob->write_tag}.to_string())
        << id;
    const std::string amy = provider.login("amy", "pwd").value();
    const auto read =
        provider.http(net::Method::kGet, "/data/diary/" + id, "", amy);
    EXPECT_EQ(read.status, 403) << id << ": " << read.body;
    EXPECT_EQ(read.body.find("via"), std::string::npos) << id;
  };
  expect_private(provider_a_, "uploaded");
  expect_private(provider_a_, "written");
  expect_private(provider_b_, "written");

  // The control: amy may read bob's collections that are not private.
  const std::string amy_a = provider_a_.login("amy", "pwd").value();
  EXPECT_EQ(provider_a_.http(net::Method::kGet, "/data/friends/bob", "", amy_a)
                .status,
            200);
}

TEST_F(FederationTest, NodeDeleteReachesReadProtectedRecords) {
  const std::string bob = provider_a_.login("bob", "pwd").value();
  ASSERT_EQ(provider_a_.http(net::Method::kPost, "/policy",
                             R"({"private_collections":["diary"]})", bob)
                .status,
            200);
  ASSERT_EQ(provider_a_.http(net::Method::kPost, "/data/diary/d1",
                             R"({"entry":"secret"})", bob)
                .status,
            201);
  const platform::UserAccount* account = provider_a_.users().find("bob");
  auto stored = provider_a_.store().get(os::kKernelPid, "diary", "d1");
  ASSERT_TRUE(stored.ok());
  ASSERT_TRUE(stored.value().labels.secrecy.contains(account->read_tag));

  const util::Status deleted = node_a_.delete_user_record("bob", "diary", "d1");
  ASSERT_TRUE(deleted.ok()) << deleted.error().code;
  EXPECT_EQ(provider_a_.store().get(os::kKernelPid, "diary", "d1").error().code,
            "store.not_found");
  EXPECT_TRUE(node_a_.has_tombstone("diary", "d1"));
}

TEST_F(FederationTest, UserMissingOnReceivingSideFailsCleanly) {
  // carol exists only on A.
  ASSERT_TRUE(provider_a_.signup("carol", "pwd").ok());
  node_a_.mirrors().authorize("carol", "providerB");
  node_b_.mirrors().authorize("carol", "providerA");
  util::Json data;
  ASSERT_TRUE(node_a_.put_user_record("carol", "notes", "n1", data).ok());
  auto stats = node_b_.sync_from("providerA");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().code, "user.not_found");
}

}  // namespace
}  // namespace w5::fed
