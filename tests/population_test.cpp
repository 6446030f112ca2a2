// Request cost that does not grow with the provider's population.
//
// W5 keeps everyone's data on one provider (§2), so a request's cost must
// follow its own data, not the number of users, tags or live sessions on
// the provider. This test builds two providers, one with 16 users and one
// with 4,096 users holding 65,536 live sessions, and times the same
// request kinds on both in process. Rounds alternate the two providers so
// that drift in the host's speed cancels out. The gate is a ratio of
// medians, so it holds on any host: each kind's median at 4,096 users is
// at most twice its median at 16 users. That leaves room for O(log n)
// lookups and cache misses; a check that walks every user or session
// blows through it at this size.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/auth.h"
#include "core/provider.h"
#include "net/http.h"
#include "util/clock.h"

namespace w5::platform {
namespace {

using net::HttpRequest;
using net::Method;

constexpr const char* kPassword = "pw-12345";

struct Site {
  explicit Site(std::string name) : label(std::move(name)) {}

  std::string label;
  util::WallClock clock;
  Provider provider{ProviderConfig{}, clock};
  std::map<std::string, std::string> cookies;  // user -> Cookie header
  int signups = 0;

  HttpRequest request(Method method, const std::string& target,
                      const std::string& user, std::string body = {}) const {
    HttpRequest out;
    out.method = method;
    out.target = target;
    out.parsed = *net::parse_request_target(target);
    out.body = std::move(body);
    if (!user.empty()) out.headers.set("Cookie", cookies.at(user));
    out.headers.set("X-W5-Sampled", "0");
    return out;
  }
};

// alice owns a note and a photo and shares with her friend bob; carol is
// a stranger. The rest of the population only exists.
void populate(Site& site, int users, int sessions) {
  apps::register_standard_apps(site.provider);
  for (const char* user : {"alice", "bob", "carol"}) {
    ASSERT_TRUE(site.provider.signup(user, kPassword).ok());
    site.cookies[user] = std::string(kSessionCookie) + "=" +
                         site.provider.login(user, kPassword).value();
  }
  UserPolicy policy;
  policy.secrecy_declassifier = "std/friends";
  site.provider.policies().set("alice", std::move(policy));
  const auto seed = [&](const std::string& target, const std::string& body) {
    ASSERT_EQ(site.provider.handle(site.request(Method::kPost, target, "alice",
                                                body))
                  .status,
              201)
        << target;
  };
  seed("/data/friends/alice", R"({"friends":["bob"]})");
  seed("/data/notes/n1", R"({"text":"a note of some forty bytes or so"})");
  seed("/data/photos/p1", R"({"caption":"a caption","title":"photo"})");
  for (int i = 3; i < users; ++i) {
    ASSERT_TRUE(
        site.provider.signup("p" + std::to_string(i), kPassword).ok());
  }
  for (int i = 0; i < sessions; ++i)
    (void)site.provider.sessions().create("bob");
}

struct Kind {
  const char* name;
  int batch;
  int status;
  std::function<HttpRequest(Site&)> make;
};

std::vector<Kind> kinds() {
  const std::string view = "/dev/photoco/photos/view?id=p1";
  return {
      {"owner GET /data/notes/:id", 20, 200,
       [](Site& s) {
         return s.request(Method::kGet, "/data/notes/n1", "alice");
       }},
      {"friend's photo view", 20, 200,
       [view](Site& s) { return s.request(Method::kGet, view, "bob"); }},
      {"stranger's 403", 20, 403,
       [view](Site& s) { return s.request(Method::kGet, view, "carol"); }},
      {"GET /data/notes list page", 20, 200,
       [](Site& s) {
         return s.request(Method::kGet, "/data/notes?limit=50", "alice");
       }},
      {"own photo view", 20, 200,
       [view](Site& s) { return s.request(Method::kGet, view, "alice"); }},
      {"POST /data/notes/:id", 20, 201,
       [](Site& s) {
         return s.request(Method::kPost, "/data/notes/n1", "alice",
                          R"({"text":"a note of some forty bytes or so"})");
       }},
      {"signup", 3, 201,
       [](Site& s) {
         return s.request(Method::kPost, "/signup", "",
                          "user=n" + std::to_string(s.signups++) +
                              "&password=" + kPassword);
       }},
      {"login", 3, 200,
       [](Site& s) {
         return s.request(Method::kPost, "/login", "",
                          std::string("user=bob&password=") + kPassword);
       }},
  };
}

// Mean µs per request over one batch; the requests are built first.
double time_batch(Site& site, const Kind& kind) {
  std::vector<HttpRequest> requests;
  for (int i = 0; i < kind.batch; ++i) requests.push_back(kind.make(site));
  const auto start = std::chrono::steady_clock::now();
  for (const HttpRequest& request : requests) {
    const int status = site.provider.handle(request).status;
    EXPECT_EQ(status, kind.status) << site.label << " " << kind.name;
  }
  const std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / kind.batch;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(PopulationTest, RequestCostDoesNotGrowWithUsersOrSessions) {
  auto small = std::make_unique<Site>("16 users");
  auto large = std::make_unique<Site>("4096 users");
  populate(*small, 16, 0);
  populate(*large, 4096, 65536);
  ASSERT_GE(large->provider.sessions().live_sessions(), 65536u);

  const std::vector<Kind> all = kinds();
  // samples[site][kind]: one mean per round.
  std::vector<std::vector<double>> samples[2] = {
      std::vector<std::vector<double>>(all.size()),
      std::vector<std::vector<double>>(all.size())};
  constexpr int kRounds = 21;
  for (int round = -1; round < kRounds; ++round) {  // round -1 warms up
    for (int turn = 0; turn < 2; ++turn) {
      const int which = (round + turn) % 2 == 0 ? 0 : 1;
      Site& site = which == 0 ? *small : *large;
      for (std::size_t k = 0; k < all.size(); ++k) {
        const double us = time_batch(site, all[k]);
        if (round >= 0) samples[which][k].push_back(us);
      }
    }
  }

  for (std::size_t k = 0; k < all.size(); ++k) {
    const double at_small = median(samples[0][k]);
    const double at_large = median(samples[1][k]);
    std::printf("population %-28s %9.1f us at 16 users %9.1f us at 4096 "
                "users  x%.2f\n",
                all[k].name, at_small, at_large, at_large / at_small);
    EXPECT_LE(at_large, 2 * at_small) << all[k].name;
  }
}

}  // namespace
}  // namespace w5::platform
