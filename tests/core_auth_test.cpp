#include <gtest/gtest.h>

#include "core/auth.h"
#include "core/policy.h"
#include "core/provider.h"
#include "core/user.h"

namespace w5::platform {
namespace {

TEST(UserDirectoryTest, CreateMintsThreeTagsAndGlobalPlus) {
  os::Kernel kernel;
  UserDirectory users(kernel);
  auto bob = users.create("bob", "Bob", "hunter2");
  ASSERT_TRUE(bob.ok());
  EXPECT_TRUE(bob.value()->secrecy_tag.valid());
  EXPECT_TRUE(bob.value()->write_tag.valid());
  EXPECT_TRUE(bob.value()->read_tag.valid());
  EXPECT_EQ(kernel.tags().describe(bob.value()->secrecy_tag), "sec(bob)");
  // sec(bob)+ is global; wp/rp are not.
  EXPECT_TRUE(kernel.global_caps().has_plus(bob.value()->secrecy_tag));
  EXPECT_FALSE(kernel.global_caps().has_plus(bob.value()->write_tag));
  EXPECT_FALSE(kernel.global_caps().has_plus(bob.value()->read_tag));
}

TEST(UserDirectoryTest, RejectsBadIdsAndDuplicates) {
  os::Kernel kernel;
  UserDirectory users(kernel);
  EXPECT_EQ(users.create("", "x", "pw").error().code, "user.invalid");
  EXPECT_EQ(users.create("Bob", "x", "pw").error().code, "user.invalid");
  EXPECT_EQ(users.create("has space", "x", "pw").error().code,
            "user.invalid");
  EXPECT_EQ(users.create("bob", "x", "pw").error().code, "user.invalid");
  ASSERT_TRUE(users.create("bob", "x", "pwd").ok());
  EXPECT_EQ(users.create("bob", "x", "pwd").error().code, "user.exists");
  EXPECT_EQ(users.create("amy", "x", "ab").error().code, "user.invalid");
}

TEST(UserDirectoryTest, PasswordVerification) {
  os::Kernel kernel;
  UserDirectory users(kernel);
  ASSERT_TRUE(users.create("bob", "Bob", "hunter2").ok());
  EXPECT_TRUE(users.verify_password("bob", "hunter2"));
  EXPECT_FALSE(users.verify_password("bob", "hunter3"));
  EXPECT_FALSE(users.verify_password("nobody", "hunter2"));
  // Hashes are salted per user: same password, different hash.
  ASSERT_TRUE(users.create("amy", "Amy", "hunter2").ok());
  EXPECT_NE(users.find("bob")->password_hash, users.find("amy")->password_hash);
}

TEST(UserDirectoryTest, TagOwnerLookup) {
  os::Kernel kernel;
  UserDirectory users(kernel);
  ASSERT_TRUE(users.create("bob", "Bob", "pwd").ok());
  const UserAccount* bob = users.find("bob");
  EXPECT_EQ(users.owner_of_tag(bob->secrecy_tag)->id, "bob");
  EXPECT_EQ(users.owner_of_tag(bob->write_tag)->id, "bob");
  EXPECT_EQ(users.owner_of_tag(difc::Tag(9999)), nullptr);
  EXPECT_EQ(users.user_ids(), (std::vector<std::string>{"bob"}));
}

TEST(SessionManagerTest, CreateValidateRevoke) {
  util::SimClock clock;
  SessionManager sessions(clock, /*ttl=*/1000);
  const std::string token = sessions.create("bob");
  EXPECT_FALSE(token.empty());
  EXPECT_EQ(sessions.validate(token), "bob");
  EXPECT_FALSE(sessions.validate("forged-token").has_value());
  sessions.revoke(token);
  EXPECT_FALSE(sessions.validate(token).has_value());
}

TEST(SessionManagerTest, ExpiryAndSlidingRefresh) {
  util::SimClock clock;
  SessionManager sessions(clock, /*ttl=*/1000);
  const std::string token = sessions.create("bob");
  clock.advance(900);
  EXPECT_EQ(sessions.validate(token), "bob");  // refreshes expiry
  clock.advance(900);
  EXPECT_EQ(sessions.validate(token), "bob");  // still alive thanks to refresh
  clock.advance(1001);
  EXPECT_FALSE(sessions.validate(token).has_value());
  EXPECT_EQ(sessions.live_sessions(), 0u);
}

TEST(SessionManagerTest, RevokeAllEndsEverySession) {
  util::SimClock clock;
  SessionManager sessions(clock, 1000);
  const auto t1 = sessions.create("bob");
  const auto t2 = sessions.create("bob");
  const auto t3 = sessions.create("amy");
  sessions.revoke_all("bob");
  EXPECT_FALSE(sessions.validate(t1).has_value());
  EXPECT_FALSE(sessions.validate(t2).has_value());
  EXPECT_EQ(sessions.validate(t3), "amy");
}

TEST(SessionManagerTest, AbandonedSessionsAreReclaimedByLaterCreates) {
  util::SimClock clock;
  SessionManager sessions(clock, /*ttl=*/1000);
  std::vector<std::string> abandoned;
  for (int i = 0; i < 1000; ++i) abandoned.push_back(sessions.create("bob"));
  clock.advance(100);  // `kept` expires after every abandoned session
  const std::string kept = sessions.create("keeper");
  EXPECT_EQ(sessions.live_sessions(), 1001u);
  // `kept` is refreshed every 600 µs; the others are never revisited.
  for (int step = 0; step < 3; ++step) {
    clock.advance(600);
    ASSERT_EQ(sessions.validate(kept), "keeper");
  }
  // One create reclaims a bounded batch, not every expired session.
  std::vector<std::string> fresh{sessions.create("amy")};
  EXPECT_EQ(sessions.live_sessions(),
            1001u + 1 - SessionManager::kReclaimPerCreate);
  // Later creates reclaim the rest; the kept session's stale index entry
  // is re-queued at its refreshed expiry rather than reclaimed.
  while (fresh.size() < 20) fresh.push_back(sessions.create("amy"));
  EXPECT_EQ(sessions.live_sessions(), fresh.size() + 1);
  EXPECT_EQ(sessions.validate(kept), "keeper");
  for (const auto& token : fresh) EXPECT_EQ(sessions.validate(token), "amy");
  for (const auto& token : abandoned)
    EXPECT_FALSE(sessions.validate(token).has_value());
}

TEST(SessionManagerTest, TokensAreUnique) {
  util::SimClock clock;
  SessionManager sessions(clock, 1000);
  std::set<std::string> tokens;
  for (int i = 0; i < 100; ++i) tokens.insert(sessions.create("bob"));
  EXPECT_EQ(tokens.size(), 100u);
}

TEST(PolicyTest, DefaultsAndPredicates) {
  UserPolicy policy;
  EXPECT_EQ(policy.secrecy_declassifier, "std/owner-only");
  EXPECT_FALSE(policy.grants_write("devA/crop"));
  policy.write_grants.push_back("devA/crop");
  policy.read_grants.push_back("devB/secrets");
  policy.private_collections.push_back("diary");
  EXPECT_TRUE(policy.grants_write("devA/crop"));
  EXPECT_FALSE(policy.grants_write("devA/other"));
  EXPECT_TRUE(policy.grants_read("devB/secrets"));
  EXPECT_TRUE(policy.is_private_collection("diary"));
  EXPECT_FALSE(policy.is_private_collection("photos"));
}

TEST(PolicyTest, JsonRoundTrip) {
  UserPolicy policy;
  policy.secrecy_declassifier = "std/friends";
  policy.write_grants = {"devA/crop", "devB/edit"};
  policy.read_grants = {"devC/vault"};
  policy.private_collections = {"diary"};
  policy.version_pins["devA/crop"] = "2.1";
  auto parsed = UserPolicy::from_json(policy.to_json());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().secrecy_declassifier, "std/friends");
  EXPECT_EQ(parsed.value().write_grants, policy.write_grants);
  EXPECT_EQ(parsed.value().read_grants, policy.read_grants);
  EXPECT_EQ(parsed.value().private_collections, policy.private_collections);
  EXPECT_EQ(parsed.value().version_pins.at("devA/crop"), "2.1");
}

TEST(PolicyTest, FromJsonRejectsMalformed) {
  EXPECT_FALSE(UserPolicy::from_json(util::Json("str")).ok());
  EXPECT_FALSE(
      UserPolicy::from_json(util::Json::parse(R"({"declassifier":7})").value())
          .ok());
  EXPECT_FALSE(UserPolicy::from_json(
                   util::Json::parse(R"({"write_grants":"x"})").value())
                   .ok());
  EXPECT_FALSE(UserPolicy::from_json(
                   util::Json::parse(R"({"write_grants":[3]})").value())
                   .ok());
  EXPECT_FALSE(UserPolicy::from_json(
                   util::Json::parse(R"({"version_pins":{"a":1}})").value())
                   .ok());
  // Unknown keys are tolerated (forward compatibility).
  EXPECT_TRUE(UserPolicy::from_json(
                  util::Json::parse(R"({"future_field":true})").value())
                  .ok());
}

TEST(PolicyStoreTest, GetReturnsDefaultUntilSet) {
  PolicyStore store;
  EXPECT_EQ(store.get("bob").secrecy_declassifier, "std/owner-only");
  UserPolicy policy;
  policy.secrecy_declassifier = "std/friends";
  store.set("bob", policy);
  EXPECT_EQ(store.get("bob").secrecy_declassifier, "std/friends");
  EXPECT_EQ(store.get("amy").secrecy_declassifier, "std/owner-only");
}

}  // namespace
}  // namespace w5::platform
