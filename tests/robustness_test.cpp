// Hostile-input and resource-exhaustion robustness: JSON nesting bombs,
// audit-log flooding, session-table growth.
#include <gtest/gtest.h>

#include "core/audit.h"
#include "core/auth.h"
#include "util/json.h"

namespace w5 {
namespace {

TEST(JsonRobustnessTest, DeepNestingIsRejectedNotCrashed) {
  // A classic parser bomb: 100k-deep array must fail cleanly.
  std::string bomb;
  for (int i = 0; i < 100000; ++i) bomb += "[";
  for (int i = 0; i < 100000; ++i) bomb += "]";
  auto result = util::Json::parse(bomb);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "json.parse");
  EXPECT_NE(result.error().detail.find("nesting"), std::string::npos);

  // Same for objects.
  std::string object_bomb;
  for (int i = 0; i < 100000; ++i) object_bomb += R"({"a":)";
  object_bomb += "1";
  for (int i = 0; i < 100000; ++i) object_bomb += "}";
  EXPECT_FALSE(util::Json::parse(object_bomb).ok());
}

TEST(JsonRobustnessTest, ReasonableNestingStillParses) {
  std::string nested;
  for (int i = 0; i < 100; ++i) nested += "[";
  nested += "1";
  for (int i = 0; i < 100; ++i) nested += "]";
  EXPECT_TRUE(util::Json::parse(nested).ok());
}

TEST(AuditRobustnessTest, FloodDropsOldestChunkNotTheProcess) {
  util::SimClock clock;
  platform::AuditLog audit(clock, /*max_events=*/100);
  for (int i = 0; i < 250; ++i) {
    audit.record(platform::AuditKind::kExportBlocked, "attacker",
                 "flood", std::to_string(i));
  }
  EXPECT_LE(audit.events().size(), 100u);
  EXPECT_GT(audit.dropped(), 0u);
  // The newest events survive.
  EXPECT_EQ(audit.events().back().detail, "249");
}

TEST(AuditRobustnessTest, OversizedFieldsAreCappedAndBytesBounded) {
  // A failed login stores the submitted user name as the actor; a 1 MiB
  // name must not pin 1 MiB per retained event.
  util::SimClock clock;
  platform::AuditLog audit(clock);
  const std::string huge(1 << 20, 'u');
  for (int i = 0; i < 64; ++i) {
    audit.record(platform::AuditKind::kAuthEvent, huge, "login",
                 "auth.bad_credentials");
    audit.record(platform::AuditKind::kAuthEvent, huge, "signup",
                 "user.exists");
  }
  EXPECT_EQ(audit.size(), 128u);
  EXPECT_LE(audit.bytes(), audit.byte_budget());
  EXPECT_LE(audit.bytes(), 128u * (platform::AuditLog::kFieldCap + 64));
  for (const auto& event : audit.events()) {
    EXPECT_LE(event.actor.size(), platform::AuditLog::kFieldCap);
    EXPECT_TRUE(event.actor.ends_with(platform::AuditLog::kTruncated));
  }
}

TEST(SessionRobustnessTest, AbandonedSessionsArePurged) {
  util::SimClock clock;
  platform::SessionManager sessions(clock, /*ttl=*/100);
  for (int i = 0; i < 50; ++i) sessions.create("bob");
  EXPECT_EQ(sessions.live_sessions(), 50u);
  clock.advance(101);  // all expired, none revisited
  (void)sessions.create("bob");  // housekeeping runs here
  EXPECT_EQ(sessions.live_sessions(), 1u);
}

}  // namespace
}  // namespace w5
