// E2 — end-to-end request path: W5 perimeter vs a no-IFC "silo" baseline.
//
// The silo baseline mirrors Figure 1: the same HTTP parse/route/serialize
// machinery over a plain unlabeled map — application code is trusted with
// access control (i.e., there is none the platform enforces). W5 (Figure
// 2) adds per-request process spawn, labeled store reads, and the
// declassifier-gated export. Shape expectation: a modest constant factor
// (Flume reported ~30-40% on web workloads).
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "apps/apps.h"
#include "core/gateway.h"
#include "core/provider.h"
#include "net/router.h"

namespace {

using w5::net::HttpRequest;
using w5::net::HttpResponse;
using w5::net::Method;

HttpRequest make_request(const std::string& target,
                         const std::string& session) {
  HttpRequest request;
  request.method = Method::kGet;
  request.target = target;
  request.parsed = *w5::net::parse_request_target(target);
  if (!session.empty())
    request.headers.set("Cookie", "w5session=" + session);
  return request;
}

// ---- Silo baseline ----------------------------------------------------------

struct Silo {
  w5::net::Router router;
  std::map<std::string, std::string> records;

  explicit Silo(std::size_t payload) {
    records["p1"] = std::string(payload, 'x');
    router.add(Method::kGet, "/photos/:id",
               [this](const HttpRequest&, const w5::net::RouteParams& params) {
                 const auto it = records.find(params.at("id"));
                 if (it == records.end())
                   return HttpResponse::text(404, "no");
                 return HttpResponse::text(200, it->second);
               });
  }
};

void BM_SiloRequest(benchmark::State& state) {
  Silo silo(static_cast<std::size_t>(state.range(0)));
  const HttpRequest request = make_request("/photos/p1", "");
  for (auto _ : state) {
    auto response = silo.router.dispatch(request);
    benchmark::DoNotOptimize(response.body.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SiloRequest)->Arg(256)->Arg(4096)->Arg(65536);

// ---- W5 path ----------------------------------------------------------------

struct W5Fixture {
  w5::util::WallClock clock;
  w5::platform::Provider provider;
  std::string session;

  explicit W5Fixture(std::size_t payload)
      : provider(w5::platform::ProviderConfig{}, clock) {
    w5::apps::register_standard_apps(provider);
    (void)provider.signup("bob", "password");
    session = provider.login("bob", "password").value();
    w5::util::Json data;
    data["title"] = "t";
    data["caption"] = std::string(payload, 'x');
    data["rating"] = 1;
    (void)provider.http(Method::kPost, "/data/photos/p1", data.dump(),
                        session);
  }
};

void BM_W5OwnerRequest(benchmark::State& state) {
  W5Fixture fx(static_cast<std::size_t>(state.range(0)));
  const HttpRequest request =
      make_request("/dev/photoco/photos/view?id=p1", fx.session);
  for (auto _ : state) {
    auto response = fx.provider.handle(request);
    if (response.status != 200) state.SkipWithError("unexpected status");
    benchmark::DoNotOptimize(response.body.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_W5OwnerRequest)->Arg(256)->Arg(4096)->Arg(65536);

// The clean-app floor: W5 request machinery with no data touched.
void BM_W5CleanRequest(benchmark::State& state) {
  W5Fixture fx(16);
  w5::platform::Module hello;
  hello.developer = "dev";
  hello.name = "hello";
  hello.version = "1.0";
  hello.handler = [](w5::platform::AppContext&) {
    return HttpResponse::text(200, "hello");
  };
  (void)fx.provider.modules().add(hello);
  const HttpRequest request = make_request("/dev/dev/hello", fx.session);
  for (auto _ : state) {
    auto response = fx.provider.handle(request);
    benchmark::DoNotOptimize(response.status);
  }
}
BENCHMARK(BM_W5CleanRequest);

// Blocked request (stranger hitting private data): denial cost.
void BM_W5BlockedRequest(benchmark::State& state) {
  W5Fixture fx(4096);
  (void)fx.provider.signup("eve", "password");
  const std::string eve = fx.provider.login("eve", "password").value();
  const HttpRequest request =
      make_request("/dev/photoco/photos/view?id=p1", eve);
  std::int64_t blocked = 0;
  for (auto _ : state) {
    auto response = fx.provider.handle(request);
    if (response.status == 403) ++blocked;
  }
  if (blocked != state.iterations()) state.SkipWithError("leak!");
}
BENCHMARK(BM_W5BlockedRequest);

// ---- Population -------------------------------------------------------------
// The same requests at 16 and 4,096 users: a request's cost should follow
// its own data, not the provider's size. Report-only here;
// population_test gates the ratio.
struct PopulationFixture {
  w5::util::WallClock clock;
  w5::platform::Provider provider{w5::platform::ProviderConfig{}, clock};
  std::string alice;
  std::string bob;

  explicit PopulationFixture(int users) {
    w5::apps::register_standard_apps(provider);
    (void)provider.signup("alice", "password");
    (void)provider.signup("bob", "password");
    alice = provider.login("alice", "password").value();
    bob = provider.login("bob", "password").value();
    w5::platform::UserPolicy policy;
    policy.secrecy_declassifier = "std/friends";
    provider.policies().set("alice", std::move(policy));
    (void)provider.http(Method::kPost, "/data/friends/alice",
                        R"({"friends":["bob"]})", alice);
    (void)provider.http(Method::kPost, "/data/photos/p1",
                        R"({"title":"t","caption":"a caption"})", alice);
    for (int i = 2; i < users; ++i)
      (void)provider.signup("p" + std::to_string(i), "password");
  }

  // Built once per population: 4,096 signups take about a second.
  static PopulationFixture& at(int users) {
    static std::map<int, std::unique_ptr<PopulationFixture>> built;
    auto& fixture = built[users];
    if (fixture == nullptr)
      fixture = std::make_unique<PopulationFixture>(users);
    return *fixture;
  }
};

void run_population(benchmark::State& state, bool as_friend) {
  PopulationFixture& fx =
      PopulationFixture::at(static_cast<int>(state.range(0)));
  const HttpRequest request = make_request("/dev/photoco/photos/view?id=p1",
                                           as_friend ? fx.bob : fx.alice);
  for (auto _ : state) {
    auto response = fx.provider.handle(request);
    if (response.status != 200) state.SkipWithError("unexpected status");
    benchmark::DoNotOptimize(response.body.size());
  }
}

void BM_W5OwnerRequestByUsers(benchmark::State& state) {
  run_population(state, /*as_friend=*/false);
}
BENCHMARK(BM_W5OwnerRequestByUsers)->Arg(16)->Arg(4096);

void BM_W5FriendViewByUsers(benchmark::State& state) {
  run_population(state, /*as_friend=*/true);
}
BENCHMARK(BM_W5FriendViewByUsers)->Arg(16)->Arg(4096);

// Platform auth overhead in isolation: whoami round trip.
void BM_W5SessionLookup(benchmark::State& state) {
  W5Fixture fx(16);
  const HttpRequest request = make_request("/whoami", fx.session);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.provider.handle(request).status);
  }
}
BENCHMARK(BM_W5SessionLookup);

}  // namespace
