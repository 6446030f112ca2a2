// Byte identity of the two list bodies (the photos app's list and the
// front-end's GET /data/:collection). Both append their JSON straight
// into one string; the reference here is the util::Json tree each route
// used to build and dump. Every page a seeded store yields — awkward
// strings, missing and non-string fields, empty and last pages, limits
// 1 to 100, cursor resumes — must come back byte for byte as the tree
// would have dumped it.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "core/provider.h"
#include "util/clock.h"
#include "util/rng.h"

namespace w5::platform {
namespace {

using net::Method;

// The photos app's list body as a util::Json tree.
std::string tree_photo_list(const std::string& subject,
                            const store::QueryPage& page) {
  util::Json out = util::Json::array();
  for (const auto& record : page.records) {
    util::Json item;
    item["id"] = record.id;
    item["title"] = record.data.at("title");
    item["caption"] = record.data.at("caption");
    out.push_back(std::move(item));
  }
  util::Json body;
  body["user"] = subject;
  body["photos"] = std::move(out);
  body["next_cursor"] = page.next_cursor;
  return body.dump();
}

// GET /data/:collection's body as a util::Json tree.
std::string tree_data_list(const store::QueryPage& page) {
  util::Json items = util::Json::array();
  for (const auto& record : page.records) {
    util::Json entry;
    entry["id"] = record.id;
    entry["data"] = record.data;
    items.push_back(std::move(entry));
  }
  util::Json body;
  body["items"] = std::move(items);
  body["next_cursor"] = page.next_cursor;
  return body.dump();
}

class ListBodyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    apps::register_standard_apps(provider_);
    for (const char* user : {"alice", "carol"}) {
      ASSERT_TRUE(provider_.signup(user, "pw-12345").ok());
      sessions_[user] = provider_.login(user, "pw-12345").value();
    }
    // Strings that exercise every escape: quotes, backslashes, each
    // control byte class, DEL, and one- to four-byte UTF-8.
    const std::vector<std::string> awkward{
        "plain caption",
        "say \"cheese\"",
        "back\\slash \\\" mix",
        std::string("ctl \x01\x02\x1f end", 11),
        "tab\there\nnewline\rreturn\bback\fform",
        "caf\xc3\xa9 \xe4\xb8\xad\xe6\x96\x87 \xf0\x9f\x93\xb7",
        "del \x7f and </script>",
        "",
    };
    // Field values that are not strings, or not there.
    const std::vector<std::string> odd{
        "", "3.25", "12", "-7", "true", "null", "[1,\"a\",{\"b\":[]}]",
        "{\"z\":1,\"a\":[false]}", "1e300", "-0.5"};
    util::Rng rng(1026);
    for (int p = 0; p < 130; ++p) {
      char id[8];
      std::snprintf(id, sizeof id, "p%03d", p);
      const auto field = [&](const char* name) -> std::string {
        const std::uint64_t roll = rng.next_below(4);
        if (roll == 0) {
          const std::string& value = odd[rng.next_below(odd.size())];
          if (value.empty()) return "";  // missing
          return "\"" + std::string(name) + "\":" + value;
        }
        util::Json text(awkward[rng.next_below(awkward.size())]);
        return "\"" + std::string(name) + "\":" + text.dump();
      };
      std::string body;
      if (p % 29 == 5) {
        body = "[1,2]";  // data that is not an object: both fields null
      } else {
        std::string fields;
        for (const char* name : {"caption", "title"}) {
          const std::string member = field(name);
          if (member.empty()) continue;
          if (!fields.empty()) fields += ",";
          fields += member;
        }
        body = "{" + fields + (fields.empty() ? "" : ",") + "\"n\":" +
               std::to_string(p) + "}";
      }
      ASSERT_EQ(provider_
                    .http(Method::kPost, std::string("/data/photos/") + id,
                          body, sessions_.at("alice"))
                    .status,
                201)
          << body;
    }
  }

  // Pages through `base` (a target with its query string) from `cursor`,
  // comparing each body with `reference`; returns the number of pages.
  template <typename Reference>
  int compare_pages(const std::string& base, const std::string& user,
                    std::size_t limit, std::string cursor,
                    const Reference& reference) {
    int pages = 0;
    while (true) {
      const std::string target = base + "limit=" + std::to_string(limit) +
                                 (cursor.empty() ? "" : "&cursor=" + cursor);
      const net::HttpResponse response =
          provider_.http(Method::kGet, target, "", sessions_.at(user));
      EXPECT_EQ(response.status, 200) << target;
      store::QueryOptions options;
      options.owner = user;
      options.limit = limit;
      options.cursor = cursor;
      auto page =
          provider_.store().query_page(os::kKernelPid, "photos", options);
      EXPECT_TRUE(page.ok()) << target;
      if (response.status != 200 || !page.ok()) return pages;
      ++pages;
      const std::string expected = reference(page.value());
      if (response.body != expected) {
        if (diffs_ == 0)
          ADD_FAILURE() << target << "\n got: " << response.body
                        << "\nwant: " << expected;
        ++diffs_;
      }
      ++bodies_;
      cursor = page.value().next_cursor;
      if (cursor.empty()) return pages;
    }
  }

  util::WallClock clock_;
  Provider provider_{ProviderConfig{}, clock_};
  std::map<std::string, std::string> sessions_;
  int diffs_ = 0;
  int bodies_ = 0;
};

TEST_F(ListBodyTest, PhotoListIsTheTreeBody) {
  const auto own = [](const store::QueryPage& page) {
    return tree_photo_list("alice", page);
  };
  for (const std::size_t limit : {1, 7, 50, 100}) {
    EXPECT_GT(compare_pages("/dev/photoco/photos/list?", "alice", limit, "",
                            own),
              1);
    // Resume from rows that are not page boundaries.
    compare_pages("/dev/photoco/photos/list?user=alice&", "alice", limit,
                  "photos/p064", own);
  }
  // A user with no photos: an empty page with no cursor.
  EXPECT_EQ(compare_pages("/dev/photoco/photos/list?", "carol", 20, "",
                          [](const store::QueryPage& page) {
                            EXPECT_TRUE(page.records.empty());
                            return tree_photo_list("carol", page);
                          }),
            1);
  // The subject comes from the query string, so it is escaped too.
  const net::HttpResponse odd_subject = provider_.http(
      Method::kGet, "/dev/photoco/photos/list?user=a%22b%5Cc%01", "",
      sessions_.at("carol"));
  EXPECT_EQ(odd_subject.status, 200);
  EXPECT_EQ(odd_subject.body, tree_photo_list("a\"b\\c\x01", {}));
  std::printf("list_body: photo list %d bodies, %d diffs\n", bodies_, diffs_);
  EXPECT_EQ(diffs_, 0);
}

TEST_F(ListBodyTest, DataListIsTheTreeBody) {
  for (const std::size_t limit : {1, 7, 50, 100, 200}) {
    EXPECT_GT(compare_pages("/data/photos?", "alice", limit, "",
                            tree_data_list),
              0);
    compare_pages("/data/photos?", "alice", limit, "photos/p064",
                  tree_data_list);
  }
  EXPECT_EQ(compare_pages("/data/photos?", "carol", 50, "", tree_data_list),
            1);
  std::printf("list_body: data list %d bodies, %d diffs\n", bodies_, diffs_);
  EXPECT_EQ(diffs_, 0);
}

}  // namespace
}  // namespace w5::platform
