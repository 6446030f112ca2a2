#include <gtest/gtest.h>

#include "core/declassifier.h"
#include "core/module_registry.h"
#include "core/sanitizer.h"

namespace w5::platform {
namespace {

ExportRequest request_for(std::string viewer, std::string owner,
                          std::size_t owners = 1) {
  ExportRequest request;
  request.viewer = std::move(viewer);
  request.data_owner = std::move(owner);
  request.tag = difc::Tag(1);
  request.module_id = "devA/app@1.0";
  request.destination = "browser";
  request.byte_count = 100;
  request.distinct_owner_count = owners;
  return request;
}

TEST(DeclassifierTest, OwnerOnlyBoilerplatePolicy) {
  auto declassifier = make_owner_only();
  EXPECT_TRUE(declassifier->decide(request_for("bob", "bob")).ok());
  EXPECT_FALSE(declassifier->decide(request_for("amy", "bob")).ok());
  EXPECT_FALSE(declassifier->decide(request_for("", "bob")).ok());
  EXPECT_EQ(declassifier->decide(request_for("amy", "bob")).error().code,
            "declassify.denied");
}

TEST(DeclassifierTest, FriendListConsultsLookup) {
  auto declassifier = make_friend_list(
      [](const std::string& owner, const std::string& viewer) {
        return owner == "bob" && viewer == "alice";
      });
  EXPECT_TRUE(declassifier->decide(request_for("bob", "bob")).ok());    // owner
  EXPECT_TRUE(declassifier->decide(request_for("alice", "bob")).ok());  // friend
  EXPECT_FALSE(declassifier->decide(request_for("charlie", "bob")).ok());
  EXPECT_FALSE(declassifier->decide(request_for("", "bob")).ok());
  EXPECT_EQ(declassifier->decide(request_for("charlie", "bob")).error().detail,
            "friend-list: 'charlie' is not a friend of 'bob'");
}

TEST(DeclassifierTest, GroupMembership) {
  auto declassifier = make_group(
      "roommates", [](const std::string& group, const std::string& viewer) {
        return group == "roommates" && (viewer == "amy" || viewer == "dan");
      });
  EXPECT_TRUE(declassifier->decide(request_for("amy", "bob")).ok());
  EXPECT_TRUE(declassifier->decide(request_for("dan", "bob")).ok());
  EXPECT_FALSE(declassifier->decide(request_for("eve", "bob")).ok());
  EXPECT_TRUE(declassifier->decide(request_for("bob", "bob")).ok());
}

TEST(DeclassifierTest, PublicAllowsEveryone) {
  auto declassifier = make_public();
  EXPECT_TRUE(declassifier->decide(request_for("", "bob")).ok());
  EXPECT_TRUE(declassifier->decide(request_for("stranger", "bob")).ok());
}

TEST(DeclassifierTest, RateLimitBoundsExportsPerViewerPerWindow) {
  util::SimClock clock;
  auto declassifier =
      make_rate_limited(make_public(), clock, /*max_exports=*/3,
                        /*window_micros=*/1000);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(declassifier->decide(request_for("scraper", "bob")).ok());
  const auto denied = declassifier->decide(request_for("scraper", "bob"));
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, "declassify.rate_limited");
  // Another viewer has an independent budget.
  EXPECT_TRUE(declassifier->decide(request_for("other", "bob")).ok());
  // The window slides.
  clock.advance(1001);
  EXPECT_TRUE(declassifier->decide(request_for("scraper", "bob")).ok());
}

TEST(DeclassifierTest, RateLimitStillAppliesInnerPolicy) {
  util::SimClock clock;
  auto declassifier =
      make_rate_limited(make_owner_only(), clock, 100, 1000);
  EXPECT_FALSE(declassifier->decide(request_for("amy", "bob")).ok());
  EXPECT_TRUE(declassifier->decide(request_for("bob", "bob")).ok());
}

TEST(DeclassifierTest, KAggregateRequiresEnoughOwners) {
  auto declassifier = make_k_aggregate(3);
  EXPECT_FALSE(declassifier->decide(request_for("amy", "bob", 1)).ok());
  EXPECT_FALSE(declassifier->decide(request_for("amy", "bob", 2)).ok());
  EXPECT_TRUE(declassifier->decide(request_for("amy", "bob", 3)).ok());
  EXPECT_TRUE(declassifier->decide(request_for("amy", "bob", 10)).ok());
  // The owner always reaches their own data.
  EXPECT_TRUE(declassifier->decide(request_for("bob", "bob", 1)).ok());
}

TEST(DeclassifierRegistryTest, AddFindList) {
  DeclassifierRegistry registry;
  registry.add("std/owner-only", make_owner_only());
  registry.add("std/public", make_public());
  ASSERT_NE(registry.find("std/owner-only"), nullptr);
  EXPECT_EQ(registry.find("std/owner-only")->name(), "owner-only");
  EXPECT_EQ(registry.find("missing"), nullptr);
  EXPECT_EQ(registry.ids(),
            (std::vector<std::string>{"std/owner-only", "std/public"}));
}

TEST(ModuleRegistryTest, AddResolveVersions) {
  ModuleRegistry registry;
  const auto handler = [](AppContext&) { return net::HttpResponse(); };
  Module module;
  module.developer = "devA";
  module.name = "crop";
  module.version = "1.0";
  module.handler = handler;
  ASSERT_TRUE(registry.add(module).ok());
  module.version = "2.0";
  ASSERT_TRUE(registry.add(module).ok());
  EXPECT_EQ(registry.add(module).error().code, "module.exists");

  EXPECT_EQ(registry.resolve("devA", "crop")->version, "2.0");  // latest
  EXPECT_EQ(registry.resolve("devA", "crop", "1.0")->version, "1.0");
  EXPECT_EQ(registry.resolve("devA", "crop", "9.9"), nullptr);
  EXPECT_EQ(registry.resolve("devB", "crop"), nullptr);
  EXPECT_EQ(registry.resolve_id("devA/crop@1.0")->version, "1.0");
  EXPECT_EQ(registry.resolve_id("devA/crop")->version, "2.0");
  EXPECT_EQ(registry.resolve_id("garbage"), nullptr);
  EXPECT_EQ(registry.versions_of("devA", "crop").size(), 2u);
  EXPECT_EQ(registry.all().size(), 2u);
}

TEST(ModuleRegistryTest, RejectsInvalidModules) {
  ModuleRegistry registry;
  Module module;  // everything empty
  EXPECT_EQ(registry.add(module).error().code, "module.invalid");
}

TEST(ModuleRegistryTest, ForkRequiresOpenSource) {
  ModuleRegistry registry;
  const auto handler = [](AppContext&) { return net::HttpResponse(); };
  Module closed;
  closed.developer = "devA";
  closed.name = "secret";
  closed.version = "1.0";
  closed.handler = handler;
  ASSERT_TRUE(registry.add(closed).ok());
  EXPECT_EQ(registry.fork("devA/secret@1.0", "devB", "copy").error().code,
            "module.closed");

  Module open;
  open.developer = "devA";
  open.name = "crop";
  open.version = "1.0";
  open.manifest.open_source = true;
  open.manifest.source = "fn crop() { ... }";
  open.handler = handler;
  ASSERT_TRUE(registry.add(open).ok());
  auto fork = registry.fork("devA/crop@1.0", "devB", "bettercrop");
  ASSERT_TRUE(fork.ok());
  EXPECT_EQ(fork.value()->developer, "devB");
  EXPECT_EQ(fork.value()->forked_from, "devA/crop@1.0");
  // Fork imports its source: the §3.2 dependency graph sees the edge.
  EXPECT_EQ(fork.value()->manifest.imports.back(), "devA/crop@1.0");
  EXPECT_EQ(registry.fork("devA/nothere", "devB", "x").error().code,
            "module.not_found");
}

TEST(ModuleRegistryTest, FingerprintsDistinguishSource) {
  ModuleRegistry registry;
  const auto handler = [](AppContext&) { return net::HttpResponse(); };
  Module a;
  a.developer = "devA";
  a.name = "m";
  a.version = "1.0";
  a.manifest.open_source = true;
  a.manifest.source = "source A";
  a.handler = handler;
  Module b = a;
  b.version = "1.1";
  b.manifest.source = "source B";
  ASSERT_TRUE(registry.add(a).ok());
  ASSERT_TRUE(registry.add(b).ok());
  // The platform can prove which code a user audits (§2: "the code with
  // which a user is interacting is exactly the code that the user has
  // audited").
  EXPECT_NE(registry.resolve("devA", "m", "1.0")->fingerprint,
            registry.resolve("devA", "m", "1.1")->fingerprint);
}

TEST(ModuleRegistryTest, ContainersAreSharedPerPath) {
  ModuleRegistry registry;
  os::ResourceVector limits{.cpu_ticks = 10};
  auto* c1 = registry.container_for("devA/crop", limits);
  auto* c2 = registry.container_for("devA/crop", limits);
  auto* c3 = registry.container_for("devB/other", limits);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(c1, c3);
  EXPECT_EQ(c1->name(), "app:devA/crop");
}

TEST(SanitizerTest, StripsScriptBlocks) {
  bool modified = false;
  EXPECT_EQ(strip_javascript("<p>hi</p><script>steal()</script><p>bye</p>",
                             &modified),
            "<p>hi</p><p>bye</p>");
  EXPECT_TRUE(modified);
  EXPECT_EQ(strip_javascript("<SCRIPT src='x.js'></SCRIPT>after"), "after");
  EXPECT_EQ(strip_javascript("<script>unterminated"), "");
}

TEST(SanitizerTest, StripsInlineHandlersAndJsUrls) {
  EXPECT_EQ(strip_javascript(R"html(<img src="x.png" onerror="steal()">)html"),
            R"html(<img src="x.png" >)html");
  EXPECT_EQ(strip_javascript(R"html(<a href="javascript:steal()">x</a>)html"),
            R"html(<a href="blocked:steal()">x</a>)html");
  EXPECT_EQ(
      strip_javascript(R"html(<div onclick=go onmouseover='hi'>t</div>)html"),
      R"html(<div  >t</div>)html");  // one space survives per stripped attr
}

TEST(SanitizerTest, LeavesCleanHtmlAlone) {
  bool modified = true;
  const std::string clean =
      R"(<html><body><p class="online">content</p></body></html>)";
  EXPECT_EQ(strip_javascript(clean, &modified), clean);
  EXPECT_FALSE(modified);
  // "online" inside an attribute *value* or text must not be eaten; only
  // attribute positions starting with "on" after whitespace are.
  EXPECT_EQ(strip_javascript("<p>only text</p>"), "<p>only text</p>");
}

}  // namespace
}  // namespace w5::platform
