// Query engine tests (DESIGN.md §17): planner access paths, secondary
// index maintenance across every mutation path, cursor pagination, range
// scans, label-group skipping, and the §3.5 governor (count quantization
// + per-principal budgets). The invariant under test throughout: a plan
// may change cost, never results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "store/labeled_store.h"
#include "store/query.h"
#include "util/rng.h"

namespace w5::store {
namespace {

using difc::Label;
using difc::LabelState;
using difc::ObjectLabels;
using difc::Tag;
using difc::TagPurpose;
using os::kKernelPid;
using os::Pid;

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : store_(kernel_, clock_) {}

  void SetUp() override {
    secret_ = kernel_.create_tag(kKernelPid, "sec(secret)",
                                 TagPurpose::kSecrecy)
                  .value();
  }

  static Record profile(const std::string& id, const std::string& owner,
                        const std::string& city, Label secrecy = {}) {
    Record record;
    record.collection = "profiles";
    record.id = id;
    record.owner = owner;
    record.labels = ObjectLabels{std::move(secrecy), {}};
    record.data["city"] = city;
    return record;
  }

  void put(Record record) {
    ASSERT_TRUE(store_.put(kKernelPid, std::move(record)).ok());
  }

  static std::vector<std::string> ids(const std::vector<Record>& records) {
    std::vector<std::string> out;
    for (const auto& record : records) out.push_back(record.id);
    return out;
  }

  os::Kernel kernel_;
  util::SimClock clock_;
  LabeledStore store_;
  Tag secret_{};
};

// ---- Planner + field index ---------------------------------------------------

TEST_F(QueryEngineTest, FieldIndexServesEqualityQueries) {
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "tokyo"));
  put(profile("u3", "cat", "paris"));

  QueryOptions options;
  options.eq_field = "city";
  options.eq_value = "paris";
  const auto before = store_.query_stats();
  auto result = store_.query(kKernelPid, "profiles", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ids(result.value()), (std::vector<std::string>{"u1", "u3"}));
  const auto after = store_.query_stats();
  EXPECT_GT(after.plans_field, before.plans_field);
  EXPECT_EQ(after.plans_scan, before.plans_scan);
}

TEST_F(QueryEngineTest, ScanOnlyModeForcesScanWithIdenticalResults) {
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "tokyo"));
  put(profile("u3", "cat", "paris"));

  QueryOptions indexed;
  indexed.eq_field = "city";
  indexed.eq_value = "paris";
  QueryOptions scanned = indexed;
  scanned.planner = PlannerMode::kScanOnly;

  const auto before = store_.query_stats();
  auto via_index = store_.query(kKernelPid, "profiles", indexed);
  auto via_scan = store_.query(kKernelPid, "profiles", scanned);
  ASSERT_TRUE(via_index.ok());
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(ids(via_index.value()), ids(via_scan.value()));
  const auto after = store_.query_stats();
  EXPECT_GT(after.plans_field, before.plans_field);
  EXPECT_GT(after.plans_scan, before.plans_scan);
}

TEST_F(QueryEngineTest, UnindexedEqualityDegradesToFilteredScan) {
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "tokyo"));

  QueryOptions options;
  options.eq_field = "city";
  options.eq_value = "tokyo";
  const auto before = store_.query_stats();
  auto result = store_.query(kKernelPid, "profiles", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ids(result.value()), (std::vector<std::string>{"u2"}));
  const auto after = store_.query_stats();
  EXPECT_EQ(after.plans_field, before.plans_field);
  EXPECT_GT(after.plans_scan, before.plans_scan);
}

TEST_F(QueryEngineTest, CreateIndexBackfillsExistingRecords) {
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "paris"));
  // Register after the data already exists; idempotent re-registration.
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  ASSERT_EQ(store_.index_specs().size(), 1u);

  QueryOptions options;
  options.eq_field = "city";
  options.eq_value = "paris";
  auto result = store_.query(kKernelPid, "profiles", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ids(result.value()), (std::vector<std::string>{"u1", "u2"}));
  EXPECT_GT(store_.query_stats().field_postings, 0u);
}

// ---- Index maintenance across every mutation path ---------------------------

TEST_F(QueryEngineTest, OverwriteRehomesFieldPostings) {
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  put(profile("u1", "amy", "paris"));
  put(profile("u1", "amy", "tokyo"));  // overwrite moves the posting

  QueryOptions paris;
  paris.eq_field = "city";
  paris.eq_value = "paris";
  QueryOptions tokyo = paris;
  tokyo.eq_value = "tokyo";
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", paris).value().empty());
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", tokyo).value()),
            (std::vector<std::string>{"u1"}));
}

TEST_F(QueryEngineTest, RemoveErasesAllPostings) {
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  put(profile("u1", "amy", "paris"));
  ASSERT_TRUE(store_.remove(kKernelPid, "profiles", "u1").ok());

  QueryOptions by_city;
  by_city.eq_field = "city";
  by_city.eq_value = "paris";
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", by_city).value().empty());
  QueryOptions by_owner;
  by_owner.owner = "amy";
  EXPECT_TRUE(
      store_.query(kKernelPid, "profiles", by_owner).value().empty());
  const auto stats = store_.query_stats();
  EXPECT_EQ(stats.field_postings, 0u);
  EXPECT_EQ(stats.owner_postings, 0u);
  EXPECT_EQ(stats.label_postings, 0u);
}

TEST_F(QueryEngineTest, ApplyWalOverwriteRehomesOwnerAndFieldPostings) {
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  put(profile("u1", "amy", "paris"));
  // Replay a put for the same key from an earlier remove+recreate life:
  // different owner AND different city.
  util::Json op;
  op["op"] = "store.put";
  op["record"] = profile("u1", "bob", "tokyo").to_json();
  ASSERT_TRUE(store_.apply_wal(op).ok());

  QueryOptions amy;
  amy.owner = "amy";
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", amy).value().empty());
  QueryOptions bob;
  bob.owner = "bob";
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", bob).value()),
            (std::vector<std::string>{"u1"}));
  QueryOptions tokyo;
  tokyo.eq_field = "city";
  tokyo.eq_value = "tokyo";
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", tokyo).value()),
            (std::vector<std::string>{"u1"}));
}

TEST_F(QueryEngineTest, LoadJsonRebuildsIndexesFromSnapshot) {
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "tokyo"));
  const util::Json snapshot = store_.to_json();

  LabeledStore restored(kernel_, clock_);
  ASSERT_TRUE(restored.create_index("profiles", "city").ok());
  ASSERT_TRUE(restored.load_json(snapshot).ok());

  QueryOptions paris;
  paris.eq_field = "city";
  paris.eq_value = "paris";
  EXPECT_EQ(ids(restored.query(kKernelPid, "profiles", paris).value()),
            (std::vector<std::string>{"u1"}));
  QueryOptions bob;
  bob.owner = "bob";
  EXPECT_EQ(ids(restored.query(kKernelPid, "profiles", bob).value()),
            (std::vector<std::string>{"u2"}));
  EXPECT_EQ(restored.export_owned_by("amy").size(), 1u);
}

// ---- Cursor pagination + ranges ----------------------------------------------

TEST_F(QueryEngineTest, CursorPaginationWalksEveryRecordInOrder) {
  for (int i = 0; i < 100; ++i) {
    const std::string id =
        "r" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    put(profile(id, "amy", "paris"));
  }
  std::vector<std::string> seen;
  QueryOptions options;
  options.owner = "amy";
  options.limit = 7;
  std::size_t pages = 0;
  const auto before = store_.query_stats();
  for (;;) {
    auto page = store_.query_page(kKernelPid, "profiles", options);
    ASSERT_TRUE(page.ok());
    for (const auto& record : page.value().records)
      seen.push_back(record.id);
    ++pages;
    ASSERT_LE(pages, 20u) << "cursor loop failed to terminate";
    if (page.value().next_cursor.empty()) break;
    options.cursor = page.value().next_cursor;
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(std::set<std::string>(seen.begin(), seen.end()).size(), 100u);
  // 100/7 → 15 pages (the 15th returns 2 rows + a cursor onto an empty
  // 16th page is avoided: 14 full pages + 1 short final page).
  EXPECT_EQ(pages, 15u);
  EXPECT_GT(store_.query_stats().cursor_resumes, before.cursor_resumes);
}

TEST_F(QueryEngineTest, MalformedCursorIsRejected) {
  put(profile("u1", "amy", "paris"));
  QueryOptions options;
  options.cursor = "posts/u1";  // wrong collection
  auto page = store_.query_page(kKernelPid, "profiles", options);
  ASSERT_FALSE(page.ok());
  EXPECT_EQ(page.error().code, "store.bad_cursor");
  options.cursor = "garbage";
  EXPECT_EQ(store_.query_page(kKernelPid, "profiles", options).error().code,
            "store.bad_cursor");
}

TEST_F(QueryEngineTest, CursorPaginationSkipsInvisibleRecordsCompletely) {
  // Interleave visible and secret records; a restricted caller's pages
  // must walk exactly the visible subset, never stalling on hidden rows.
  for (int i = 0; i < 30; ++i) {
    const std::string id =
        "r" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    put(profile(id, "amy", "paris", i % 3 == 0 ? Label{secret_} : Label{}));
  }
  const Pid app = kernel_.spawn_trusted("app", LabelState({}, {}, {}));
  std::vector<std::string> seen;
  QueryOptions options;
  options.limit = 4;
  for (;;) {
    auto page = store_.query_page(app, "profiles", options);
    ASSERT_TRUE(page.ok());
    for (const auto& record : page.value().records)
      seen.push_back(record.id);
    if (page.value().next_cursor.empty()) break;
    options.cursor = page.value().next_cursor;
  }
  EXPECT_EQ(seen.size(), 20u);  // 10 of 30 carry the secret tag
  for (const auto& id : seen) {
    const int n = std::stoi(id.substr(1));
    EXPECT_NE(n % 3, 0) << id;
  }
  // The caller was never contaminated: it saw only public rows.
  EXPECT_EQ(kernel_.find(app)->labels.secrecy(), Label{});
}

TEST_F(QueryEngineTest, IdRangeIsInclusiveOnBothEnds) {
  for (const char* id : {"a", "b", "c", "d", "e"})
    put(profile(id, "amy", "paris"));
  QueryOptions options;
  options.min_id = "b";
  options.max_id = "d";
  auto result = store_.query(kKernelPid, "profiles", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ids(result.value()), (std::vector<std::string>{"b", "c", "d"}));
}

// ---- Label-group scanning ----------------------------------------------------

TEST_F(QueryEngineTest, LabelGroupsAboveClearanceAreSkippedWholesale) {
  put(profile("u1", "amy", "paris"));
  put(profile("u2", "bob", "paris", Label{secret_}));
  put(profile("u3", "cat", "paris", Label{secret_}));

  const Pid app = kernel_.spawn_trusted("app", LabelState({}, {}, {}));
  const auto before = store_.query_stats();
  auto result = store_.query(app, "profiles", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(ids(result.value()), (std::vector<std::string>{"u1"}));
  const auto after = store_.query_stats();
  EXPECT_GT(after.label_groups_skipped, before.label_groups_skipped);
  EXPECT_GT(after.label_groups_checked, before.label_groups_checked);
}

TEST_F(QueryEngineTest, PlannerNeverChangesResults) {
  // Differential check across every access path: auto plan vs forced
  // scan over mixed owners/cities/labels must agree exactly.
  ASSERT_TRUE(store_.create_index("profiles", "city").ok());
  const char* cities[] = {"paris", "tokyo", "lima"};
  for (int i = 0; i < 60; ++i) {
    const std::string id =
        "r" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    put(profile(id, i % 2 == 0 ? "amy" : "bob", cities[i % 3],
                i % 5 == 0 ? Label{secret_} : Label{}));
  }
  std::vector<QueryOptions> cases;
  {
    QueryOptions by_owner;
    by_owner.owner = "amy";
    cases.push_back(by_owner);
    QueryOptions by_city;
    by_city.eq_field = "city";
    by_city.eq_value = "tokyo";
    cases.push_back(by_city);
    QueryOptions both = by_city;
    both.owner = "bob";
    cases.push_back(both);
    QueryOptions ranged = by_owner;
    ranged.min_id = "r10";
    ranged.max_id = "r44";
    cases.push_back(ranged);
    QueryOptions paged = by_city;
    paged.offset = 3;
    paged.limit = 5;
    cases.push_back(paged);
    QueryOptions filtered;
    filtered.predicate = field_equals("city", "lima");
    cases.push_back(filtered);
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    QueryOptions scanned = cases[i];
    scanned.planner = PlannerMode::kScanOnly;
    auto via_auto = store_.query(kKernelPid, "profiles", cases[i]);
    auto via_scan = store_.query(kKernelPid, "profiles", scanned);
    ASSERT_TRUE(via_auto.ok());
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(ids(via_auto.value()), ids(via_scan.value())) << "case " << i;
  }
}

TEST_F(QueryEngineTest, PostingsMatchTheScanThroughChurn) {
  // Postings point at their rows' map nodes (index.h), so every mutation
  // path must keep them in step with the map: create, overwrite, remove,
  // re-create of the same key, a WAL put that moves a key to another
  // owner and label, a WAL remove, snapshot restores and an index
  // registered mid-stream. After every op each posting walk (owner,
  // field, owner+field, label groups, export) must page exactly like the
  // scan that walks the record map itself — same rows, bytes and cursors.
  const Tag ta = kernel_.create_tag(kKernelPid, "sec(ta)",
                                    TagPurpose::kSecrecy).value();
  const Tag tb = kernel_.create_tag(kKernelPid, "sec(tb)",
                                    TagPurpose::kSecrecy).value();
  const std::vector<Label> labels{Label{}, Label{ta}, Label{tb},
                                  Label{ta, tb}, Label{secret_}};
  const std::vector<std::string> owners{"amy", "bob", "cat"};
  const std::vector<std::string> collections{"c1", "c2"};
  const std::vector<std::string> cities{"paris", "tokyo", "lima"};
  // Sees the groups labeled {} and {ta} at Raise::kNo, so its scans walk
  // the label-group merge rather than the record map.
  const Pid reader = kernel_.spawn_trusted("reader", LabelState({ta}, {}, {}));
  ASSERT_TRUE(store_.create_index("c1", "city").ok());

  util::Rng rng(2606);
  const auto pick = [&rng](const auto& from) {
    return from[rng.next_below(from.size())];
  };
  const auto random_record = [&](const std::string& collection,
                                 const std::string& id) {
    Record record;
    record.collection = collection;
    record.id = id;
    record.owner = pick(owners);
    record.labels = ObjectLabels{pick(labels), {}};
    switch (rng.next_below(4)) {
      case 0:
        break;  // no city: unindexed
      case 1:
        record.data["city"] = 7;  // non-string: unindexed
        break;
      default:
        record.data["city"] = pick(cities);
    }
    record.data["n"] = static_cast<std::int64_t>(rng.next_below(1000));
    return record;
  };

  // Every page of a query, flattened to the rows' bytes and each cursor.
  const auto pages = [&](Pid pid, const std::string& collection,
                         QueryOptions options, Raise raise) {
    std::vector<std::string> out;
    options.limit = 3;
    for (int guard = 0; guard < 100; ++guard) {
      auto page = store_.query_page(pid, collection, options, raise);
      EXPECT_TRUE(page.ok()) << page.error().code;
      if (!page.ok()) break;
      for (const Record& row : page.value().records)
        out.push_back(row.to_json().dump());
      out.push_back("cursor=" + page.value().next_cursor);
      if (page.value().next_cursor.empty()) break;
      options.cursor = page.value().next_cursor;
    }
    return out;
  };
  const auto scan_of = [](QueryOptions options) {
    options.planner = PlannerMode::kScanOnly;
    return options;
  };
  const auto check = [&](int step) {
    for (const std::string& collection : collections) {
      for (const std::string& owner : owners) {
        QueryOptions by_owner;
        by_owner.owner = owner;
        EXPECT_EQ(pages(kKernelPid, collection, by_owner, Raise::kYes),
                  pages(kKernelPid, collection, scan_of(by_owner),
                        Raise::kYes))
            << "owner " << owner << " in " << collection << " at " << step;
        // The reader's owner walk admits per row; the kernel's scan with
        // the same bound as a predicate walks the map.
        QueryOptions bounded = scan_of(by_owner);
        bounded.predicate = [ta](const Record& r) {
          return r.labels.secrecy.subset_of(Label{ta});
        };
        EXPECT_EQ(pages(reader, collection, by_owner, Raise::kNo),
                  pages(kKernelPid, collection, bounded, Raise::kYes))
            << "reader owner " << owner << " in " << collection << " at "
            << step;
      }
      for (const std::string& city : cities) {
        QueryOptions by_city;
        by_city.eq_field = "city";
        by_city.eq_value = city;
        EXPECT_EQ(pages(kKernelPid, collection, by_city, Raise::kYes),
                  pages(kKernelPid, collection, scan_of(by_city),
                        Raise::kYes))
            << "city " << city << " in " << collection << " at " << step;
        QueryOptions both = by_city;
        both.owner = pick(owners);
        EXPECT_EQ(pages(kKernelPid, collection, both, Raise::kYes),
                  pages(kKernelPid, collection, scan_of(both), Raise::kYes))
            << "city " << city << " owner " << both.owner << " in "
            << collection << " at " << step;
      }
      QueryOptions bounded = scan_of({});
      bounded.predicate = [ta](const Record& r) {
        return r.labels.secrecy.subset_of(Label{ta});
      };
      EXPECT_EQ(pages(reader, collection, scan_of({}), Raise::kNo),
                pages(kKernelPid, collection, bounded, Raise::kYes))
          << "label groups in " << collection << " at " << step;
    }
    for (const std::string& owner : owners) {
      std::vector<std::string> exported;
      for (const Record& row : store_.export_owned_by(owner))
        exported.push_back(row.to_json().dump());
      std::vector<std::string> scanned;
      for (const std::string& collection : collections) {
        QueryOptions by_owner;
        by_owner.owner = owner;
        const auto rows =
            store_.query(kKernelPid, collection, scan_of(by_owner));
        EXPECT_TRUE(rows.ok());
        if (!rows.ok()) continue;
        for (const Record& row : rows.value())
          scanned.push_back(row.to_json().dump());
      }
      EXPECT_EQ(exported, scanned) << "export " << owner << " at " << step;
    }
  };

  util::Json saved = store_.to_json();
  for (int step = 0; step < 240; ++step) {
    const std::string collection = pick(collections);
    char id[8];
    std::snprintf(id, sizeof id, "k%02d",
                  static_cast<int>(rng.next_below(24)));
    const bool exists = store_.get(kKernelPid, collection, id).ok();
    const std::uint64_t roll = rng.next_below(100);
    if (step == 120) {
      ASSERT_TRUE(store_.create_index("c2", "city").ok());
    } else if (roll < 40) {
      // Create, or overwrite (owner and labels stay, data moves).
      ASSERT_TRUE(store_.put(kKernelPid, random_record(collection, id)).ok());
    } else if (roll < 55) {
      if (exists) {
        ASSERT_TRUE(store_.remove(kKernelPid, collection, id).ok());
      }
    } else if (roll < 65) {
      // Re-create: the same key comes back in a new node, perhaps with
      // another owner and label.
      if (exists) {
        ASSERT_TRUE(store_.remove(kKernelPid, collection, id).ok());
      }
      ASSERT_TRUE(store_.put(kKernelPid, random_record(collection, id)).ok());
    } else if (roll < 80) {
      // A replayed put may re-home a live key to another owner and label.
      util::Json op;
      op["op"] = "store.put";
      op["record"] = random_record(collection, id).to_json();
      ASSERT_TRUE(store_.apply_wal(op).ok());
    } else if (roll < 88) {
      util::Json op;
      op["op"] = "store.remove";
      op["collection"] = collection;
      op["id"] = id;
      ASSERT_TRUE(store_.apply_wal(op).ok());
    } else if (roll < 94) {
      saved = store_.to_json();
    } else {
      // Restore a snapshot: the current state or an older one.
      ASSERT_TRUE(store_.load_json(saved).ok());
    }
    check(step);
    if (HasFailure()) return;
  }
}

// ---- §3.5 governor -----------------------------------------------------------

TEST_F(QueryEngineTest, QueryBudgetDeniesBeyondLimitAndWindowResets) {
  put(profile("u1", "amy", "paris"));
  store_.set_governor_config(QueryGovernorConfig{
      .count_quantum = 1, .budget_queries = 2,
      .budget_window_micros = 1'000'000});

  QueryOptions metered;
  metered.principal = "dev/app@1";
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", metered).ok());
  EXPECT_TRUE(store_.count(kKernelPid, "profiles", metered).ok());
  auto denied = store_.query(kKernelPid, "profiles", metered);
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, "store.query_budget");
  // Another principal is unaffected; anonymous scans are never metered.
  QueryOptions other;
  other.principal = "dev/other@1";
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", other).ok());
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", {}).ok());
  // The fixed window rolls over and the budget refills.
  clock_.advance(1'000'001);
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", metered).ok());
  const auto stats = store_.query_stats();
  EXPECT_EQ(stats.queries_denied, 1u);
  EXPECT_GE(stats.budget_principals, 2u);
}

TEST_F(QueryEngineTest, CountQuantizationMakesAdjacentCountsIndistinguishable) {
  store_.set_governor_config(QueryGovernorConfig{.count_quantum = 10});
  EXPECT_EQ(store_.count(kKernelPid, "profiles").value(), 0u);  // 0 stays 0
  for (int i = 0; i < 7; ++i)
    put(profile("r" + std::to_string(i), "amy", "paris"));
  EXPECT_EQ(store_.count(kKernelPid, "profiles").value(), 10u);
  put(profile("r7", "amy", "paris"));
  // n=7 and n=8 answer identically: the ±1 probe learns nothing.
  EXPECT_EQ(store_.count(kKernelPid, "profiles").value(), 10u);
  for (int i = 8; i < 11; ++i)
    put(profile("r" + std::to_string(i), "amy", "paris"));
  EXPECT_EQ(store_.count(kKernelPid, "profiles").value(), 20u);
}

TEST_F(QueryEngineTest, OwnerCountRunsThroughTheOwnerIndex) {
  for (int i = 0; i < 20; ++i)
    put(profile("r" + std::to_string(i), i % 2 == 0 ? "amy" : "bob",
                "paris"));
  const auto before = store_.query_stats();
  QueryOptions options;
  options.owner = "amy";
  auto counted = store_.count(kKernelPid, "profiles", options);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted.value(), 10u);
  const auto after = store_.query_stats();
  EXPECT_GT(after.plans_owner, before.plans_owner);
  EXPECT_EQ(after.plans_scan, before.plans_scan);
}

// ---- Predicate semantics (query.h missing-field contract) --------------------

TEST_F(QueryEngineTest, NegatedFieldPredicateMatchesRecordsMissingTheField) {
  put(profile("u1", "amy", "paris"));
  Record no_city;
  no_city.collection = "profiles";
  no_city.id = "u2";
  no_city.owner = "bob";
  no_city.data["age"] = 30;
  ASSERT_TRUE(store_.put(kKernelPid, std::move(no_city)).ok());

  // field_equals is false for a missing field...
  QueryOptions equals;
  equals.predicate = field_equals("city", "paris");
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", equals).value()),
            (std::vector<std::string>{"u1"}));
  // ...so its negation MATCHES the record lacking the field (boolean
  // complement, not SQL NULL logic — the documented contract).
  QueryOptions negated;
  negated.predicate = negate(field_equals("city", "paris"));
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", negated).value()),
            (std::vector<std::string>{"u2"}));
  // "Has the field with a different value" composes via field_exists.
  QueryOptions present_but_different;
  present_but_different.predicate = and_also(
      field_exists("city"), negate(field_equals("city", "paris")));
  EXPECT_TRUE(store_.query(kKernelPid, "profiles", present_but_different)
                  .value()
                  .empty());
}

TEST_F(QueryEngineTest, FieldExistsDistinguishesMissingFromPresent) {
  put(profile("u1", "amy", "paris"));
  Record no_city;
  no_city.collection = "profiles";
  no_city.id = "u2";
  no_city.owner = "bob";
  no_city.data["age"] = 30;
  ASSERT_TRUE(store_.put(kKernelPid, std::move(no_city)).ok());

  QueryOptions has_city;
  has_city.predicate = field_exists("city");
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", has_city).value()),
            (std::vector<std::string>{"u1"}));
  QueryOptions lacks_city;
  lacks_city.predicate = negate(field_exists("city"));
  EXPECT_EQ(ids(store_.query(kKernelPid, "profiles", lacks_city).value()),
            (std::vector<std::string>{"u2"}));
}

}  // namespace
}  // namespace w5::store
