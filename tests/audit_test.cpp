// The audit log's ring of byte chunks (core/audit.h): seeded events
// against a plain reference list, eviction one chunk at a time, and the
// field cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/audit.h"
#include "core/provider.h"
#include "util/clock.h"

namespace w5::platform {
namespace {

using Log = AuditLog;

// The reference spelling of a stored field: the field itself up to the
// cap, else its head cut back to a UTF-8 boundary plus the marker.
std::string stored(const std::string& field) {
  if (field.size() <= Log::kFieldCap) return field;
  std::size_t keep = Log::kFieldCap - Log::kTruncated.size();
  for (int i = 0; i < 3 && (static_cast<unsigned char>(field[keep]) & 0xC0) ==
                               0x80;
       ++i)
    --keep;
  return field.substr(0, keep) + std::string(Log::kTruncated);
}

std::string random_field(std::mt19937_64& rng) {
  switch (rng() % 8) {
    case 0:
      return "";
    case 1:
      return std::string("nul\0byte", 8);
    case 2:
      return "caf\xC3\xA9 \xE2\x82\xAC";  // UTF-8
    case 3:
      return std::string(Log::kFieldCap, 'c');  // at the cap
    case 4: {
      // Over the cap, with a multi-byte character across the cut.
      std::string s(Log::kFieldCap - Log::kTruncated.size() - 1, 'o');
      for (int i = 0; i < 8; ++i) s += "\xE2\x82\xAC";
      return s;
    }
    default:
      return "f" + std::to_string(rng() % 100000);
  }
}

bool same(const AuditEvent& a, const AuditEvent& b) {
  return a.at == b.at && a.kind == b.kind && a.actor == b.actor &&
         a.subject == b.subject && a.detail == b.detail && a.trace == b.trace;
}

TEST(AuditRingTest, MatchesReferenceListThroughWraparounds) {
  for (const std::size_t max_events :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{100},
        std::size_t{1} << 17}) {
    util::SimClock clock;
    Log log(clock, max_events);
    std::mt19937_64 rng(max_events);
    std::vector<AuditEvent> all;  // every event recorded, as stored
    // At least four wraparounds of the count bound.
    const std::size_t total = 4 * max_events + 7;
    for (std::size_t i = 0; i < total; ++i) {
      clock.advance(static_cast<util::Micros>(rng() % 3));  // ties too
      const auto kind = static_cast<AuditKind>(rng() % 8);
      const std::string actor = random_field(rng);
      const std::string subject = random_field(rng);
      const std::string detail = random_field(rng);
      log.record(kind, actor, subject, detail);
      all.push_back(AuditEvent{clock.now(), kind, stored(actor),
                               stored(subject), stored(detail), ""});
      ASSERT_LE(log.size(), max_events);
      ASSERT_LE(log.bytes(), log.byte_budget());
      ASSERT_EQ(log.size() + log.dropped(), all.size());
      // The whole log against the reference, every so often and after
      // the last event.
      if (i % std::max<std::size_t>(97, max_events / 2) != 0 &&
          i + 1 != total)
        continue;
      const auto events = log.events();
      ASSERT_EQ(events.size(), log.size());
      for (std::size_t e = 0; e < events.size(); ++e)
        ASSERT_TRUE(same(events[e], all[all.size() - events.size() + e]))
            << "max_events " << max_events << " event " << e;
      // The tail query: newest `limit` at or after `since`.
      for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                      std::size_t{5}, events.size() + 1}) {
        const util::Micros since =
            events.empty() ? 0 : events[events.size() / 2].at;
        const auto first = std::lower_bound(
            events.begin(), events.end(), since,
            [](const AuditEvent& ev, util::Micros at) { return ev.at < at; });
        const std::size_t n = std::min(
            limit, static_cast<std::size_t>(events.end() - first));
        const auto tail = log.events(limit, since);
        ASSERT_EQ(tail.size(), n);
        for (std::size_t e = 0; e < n; ++e)
          ASSERT_TRUE(same(tail[e], events[events.size() - n + e]));
      }
    }
  }
}

TEST(AuditRingTest, EachWraparoundEvictsExactlyOneChunk) {
  util::SimClock clock;
  Log log(clock);  // default bounds
  const std::size_t max = std::size_t{1} << 17;
  const std::size_t chunk = log.chunk_events();
  EXPECT_EQ(chunk, max / 64);
  std::size_t wraparounds = 0;
  for (std::size_t i = 0; i < max + 6 * chunk; ++i) {
    const std::size_t before = log.dropped();
    log.record(AuditKind::kExportAllowed, "photoco/photos@1.0", "{t5,t6}",
               "viewer=owner07");
    const std::size_t evicted = log.dropped() - before;
    // Nothing, or exactly one chunk: never a fraction of the log.
    ASSERT_TRUE(evicted == 0 || evicted == chunk) << evicted;
    if (evicted != 0) ++wraparounds;
    if (i >= max) {
      ASSERT_GE(log.size(), max - chunk);
    }
    ASSERT_LE(log.size(), max);
  }
  EXPECT_GE(wraparounds, 4u);
  EXPECT_EQ(log.count(AuditKind::kExportAllowed), max + 6 * chunk);
}

TEST(AuditRingTest, ActorTotalsAreLifetimeAndSkipAuthEvents) {
  util::SimClock clock;
  Log log(clock, /*max_events=*/4);
  for (int i = 0; i < 10; ++i)
    log.record(AuditKind::kAppError, "dev/app@1.0", "/x",
               "err" + std::to_string(i));
  log.record(AuditKind::kQuotaKill, "dev/app@1.0", "cpu", "");
  log.record(AuditKind::kExportBlocked, "dev/app@1.0", "{t1}", "denied");
  log.record(AuditKind::kAuthEvent, "dev/app@1.0", "login", "bad");
  const Log::ActorTotals totals = log.totals("dev/app@1.0");
  EXPECT_EQ(totals.errors, 10u);  // more than the log retains
  EXPECT_EQ(totals.quota_kills, 1u);
  EXPECT_EQ(totals.exports_blocked, 1u);
  EXPECT_EQ(totals.last_error, "err9");
  EXPECT_EQ(log.totals("nobody").errors, 0u);
}

// For the TSan leg: writers wrap the ring while readers page its tail
// and ask /dev-stats.
TEST(AuditRingTest, ConcurrentRecordsAgainstTailAndDevStats) {
  util::WallClock clock;
  Provider provider(ProviderConfig{}, clock);
  AuditLog log(clock, /*max_events=*/256);
  constexpr int kWriters = 3;
  constexpr int kEach = 4000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kEach; ++i) {
        const std::string actor = "dev/app" + std::to_string(w) + "@1.0";
        log.record(AuditKind::kAppError, actor, "/x", "e");
        provider.audit().record(AuditKind::kAppError, actor, "/x", "e");
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 400; ++i) {
      const auto tail = log.events(20, 0);
      ASSERT_LE(tail.size(), 20u);
      const auto stats = provider.http(net::Method::kGet,
                                       "/dev-stats?app=dev/app0@1.0");
      ASSERT_EQ(stats.status, 200);
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.count(AuditKind::kAppError), std::size_t{kWriters * kEach});
  EXPECT_LE(log.size(), 256u);
  for (int w = 0; w < kWriters; ++w) {
    const std::string actor = "dev/app" + std::to_string(w) + "@1.0";
    EXPECT_EQ(log.totals(actor).errors, std::size_t{kEach});
    EXPECT_EQ(provider.audit().totals(actor).errors, std::size_t{kEach});
  }
}

}  // namespace
}  // namespace w5::platform
