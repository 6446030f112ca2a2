// Allocation budgets: heap allocations per request, counted exactly.
//
// Time per request wanders with the host; the number of heap allocations
// a request makes does not. This test replaces the global operator new
// with a counting one, counts on the calling thread around
// Provider::handle (in process, so the whole request runs on that
// thread), and holds each request kind to a ceiling pinned at the
// current count. A change that allocates more fails here; a change that
// allocates less lowers the ceiling with it (CHANGES.md says by how
// much).
//
// It is an executable of its own: linked into w5_tests, the replaced
// operator new would hide ASan's new/delete mismatch checks from the
// whole suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/auth.h"
#include "core/provider.h"
#include "net/http.h"
#include "util/clock.h"

namespace {

thread_local bool counting = false;
thread_local std::size_t allocations = 0;
thread_local std::size_t allocated_bytes = 0;

void* counted_malloc(std::size_t size) {
  if (counting) {
    ++allocations;
    allocated_bytes += size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  if (counting) {
    ++allocations;
    allocated_bytes += size;
  }
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

// The replacements below pair malloc with free by design; GCC cannot
// see that they replace the whole family and warns on each delete.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace w5::platform {
namespace {

using net::HttpRequest;
using net::Method;

struct Count {
  std::size_t allocations = 0;
  std::size_t bytes = 0;
};

// alice owns a note, 64 small photos and one 64 KiB photo; bob is her
// friend (std/friends declassifies to him), carol is a stranger.
class AllocBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    apps::register_standard_apps(provider_);
    for (const char* user : {"alice", "bob", "carol"}) {
      ASSERT_TRUE(provider_.signup(user, "pw-12345").ok());
      cookies_[user] = std::string(kSessionCookie) + "=" +
                       provider_.login(user, "pw-12345").value();
      UserPolicy policy;
      policy.secrecy_declassifier = "std/friends";
      provider_.policies().set(user, std::move(policy));
    }
    seed("/data/friends/alice", R"({"friends":["bob"]})");
    seed("/data/notes/n1", R"({"text":"a note of some forty bytes or so"})");
    for (int p = 0; p < 64; ++p) {
      char id[16];
      std::snprintf(id, sizeof id, "a-p%02d", p);
      seed(std::string("/data/photos/") + id,
           R"({"caption":"a caption between sixteen and sixty-four bytes","title":"photo"})");
    }
    seed("/data/photos/a-zbig", R"({"caption":"big","pixels":")" +
                                    std::string(64 * 1024, 'x') +
                                    R"(","title":"big"})");
  }

  void seed(const std::string& target, const std::string& body) {
    ASSERT_EQ(provider_.http(Method::kPost, target, body, session("alice"))
                  .status,
              201)
        << target;
  }

  std::string session(const std::string& user) {
    const std::string& cookie = cookies_.at(user);
    return cookie.substr(cookie.find('=') + 1);
  }

  HttpRequest request(Method method, const std::string& target,
                      const std::string& user, std::string body = {}) {
    HttpRequest out;
    out.method = method;
    out.target = target;
    out.parsed = *net::parse_request_target(target);
    out.body = std::move(body);
    if (!user.empty()) out.headers.set("Cookie", cookies_.at(user));
    out.headers.set("X-W5-Sampled", "0");
    return out;
  }

  // Warms the request up, then counts it nine times and takes the
  // median: amortized growth somewhere (a vector doubling) must not
  // decide the figure.
  Count count(const HttpRequest& req, int expect_status) {
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(target_->handle(req).status, expect_status) << req.target;
    std::vector<Count> runs;
    for (int i = 0; i < 9; ++i) {
      allocations = 0;
      allocated_bytes = 0;
      counting = true;
      const net::HttpResponse response = target_->handle(req);
      counting = false;
      runs.push_back(Count{allocations, allocated_bytes});
      EXPECT_EQ(response.status, expect_status) << req.target;
    }
    std::sort(runs.begin(), runs.end(), [](const Count& a, const Count& b) {
      return a.allocations < b.allocations;
    });
    return runs[runs.size() / 2];
  }

  // Counts one request kind, prints it, and holds it to `ceiling`.
  Count expect_within(const char* kind, const HttpRequest& req,
                      int expect_status, std::size_t ceiling) {
    const Count c = count(req, expect_status);
    std::printf("alloc_budget %-16s %5zu allocations %8zu bytes (ceiling %zu)\n",
                kind, c.allocations, c.bytes, ceiling);
    EXPECT_LE(c.allocations, ceiling) << kind;
    return c;
  }

  util::WallClock clock_;
  Provider provider_{ProviderConfig{}, clock_};
  Provider* target_ = &provider_;  // the provider count() sends to
  std::map<std::string, std::string> cookies_;
};

TEST_F(AllocBudgetTest, GatewayFloorAndNotes) {
  expect_within("unrouted_get", request(Method::kGet, "/nowhere", ""), 404, 2);
  expect_within("note_put",
                request(Method::kPost, "/data/notes/n1", "alice",
                        R"({"text":"a note of some forty bytes or so"})"),
                201, 28);
  expect_within("note_get", request(Method::kGet, "/data/notes/n1", "alice"),
                200, 20);
}

TEST_F(AllocBudgetTest, PhotoViews) {
  const std::string view = "/dev/photoco/photos/view?id=a-p00";
  expect_within("own_view", request(Method::kGet, view, "alice"), 200, 32);
  const Count friend_view =
      expect_within("friend_view", request(Method::kGet, view, "bob"), 200, 34);
  const Count stranger_view = expect_within(
      "stranger_view", request(Method::kGet, view, "carol"), 403, 34);
  // A blocked request costs no more than the same request allowed.
  EXPECT_LE(stranger_view.allocations, friend_view.allocations);

  const HttpRequest big = request(
      Method::kGet, "/dev/photoco/photos/view?id=a-zbig", "alice");
  const Count big_view = expect_within("big_view", big, 200, 32);
  // The 64 KiB body is serialized into one buffer, not grown by doubling.
  const std::size_t body = provider_.handle(big).body.size();
  EXPECT_LE(big_view.bytes, body + body / 2) << "body " << body;
}

TEST_F(AllocBudgetTest, FiftyRowListPages) {
  expect_within("app_list",
                request(Method::kGet, "/dev/photoco/photos/list?limit=50",
                        "alice"),
                200, 141);
  expect_within("data_list",
                request(Method::kGet, "/data/photos?limit=50", "alice"), 200,
                130);
}

TEST_F(AllocBudgetTest, DevStatsCostsTheSameWithAnEmptyAndAFullLog) {
  // A provider of its own, so its log starts empty.
  Provider fresh{ProviderConfig{}, clock_};
  target_ = &fresh;
  const HttpRequest stats =
      request(Method::kGet, "/dev-stats?app=photoco/photos@1.0", "");
  const Count empty = expect_within("dev_stats", stats, 200, 11);
  ASSERT_EQ(fresh.audit().size(), 0u);
  // Fill the log the way traffic does: the app's exports and decisions,
  // other modules' failures.
  for (std::size_t i = 0; i < (std::size_t{1} << 17); ++i) {
    fresh.audit().record(AuditKind::kExportAllowed, "photoco/photos@1.0",
                         "{t5,t6}", "viewer=owner07");
    fresh.audit().record(AuditKind::kAppError, "devF/flaky@1.0", "/dev/x",
                         "St13runtime_error");
  }
  const Count full = expect_within("dev_stats_full", stats, 200, 11);
  EXPECT_EQ(full.allocations, empty.allocations);

  // A full log records by reusing its oldest chunk: no allocation.
  allocations = 0;
  counting = true;
  for (int i = 0; i < 10000; ++i)
    fresh.audit().record(AuditKind::kExportAllowed, "photoco/photos@1.0",
                         "{t5,t6}", "viewer=owner07");
  counting = false;
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace w5::platform
