// Concurrency: many worker threads hammering one Provider through the
// public HTTP surface, plus unit coverage of the flow-memo epoch
// invalidation that keeps the DIFC fast path sound (DESIGN.md
// "Concurrency model").
//
// The provider promises three things under concurrency, each asserted
// here: no lost updates (a record's version counts every successful
// put), no torn reads (a reader sees one put's fields, never a blend of
// two), and no cross-user leaks (the perimeter blocks bob from alice's
// secrets no matter how many threads are racing).
#include <gtest/gtest.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/gateway.h"
#include "core/provider.h"
#include "core/user.h"
#include "difc/flow.h"
#include "difc/label_table.h"
#include "difc/tag_registry.h"
#include "store/labeled_store.h"
#include "util/rng.h"

namespace w5 {
namespace {

using net::HttpResponse;
using net::Method;
using platform::AppContext;
using platform::Module;
using platform::Provider;
using platform::ProviderConfig;

constexpr char kSecretMarker[] = "alice-top-secret-payload";

class ProviderConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(provider_.signup("alice", "password1").ok());
    ASSERT_TRUE(provider_.signup("bob", "password2").ok());
    alice_ = provider_.login("alice", "password1").value();
    bob_ = provider_.login("bob", "password2").value();

    // Alice's secret — the thing that must never reach bob.
    ASSERT_EQ(provider_
                  .http(Method::kPost, "/data/secrets/s1",
                        std::string(R"({"secret":")") + kSecretMarker + "\"}",
                        alice_)
                  .status,
              201);

    // A third-party viewer app that reads the secret; when bob invokes
    // it the export check must stop the response at the perimeter.
    Module viewer;
    viewer.developer = "mallory";
    viewer.name = "viewer";
    viewer.version = "1.0";
    viewer.handler = [](AppContext& ctx) {
      auto secret = ctx.get_record("secrets", "s1");
      if (!secret.ok()) return HttpResponse::text(404, "none");
      return HttpResponse::text(200, secret.value().data.dump());
    };
    ASSERT_TRUE(provider_.modules().add(viewer).ok());
  }

  util::WallClock clock_;
  Provider provider_{ProviderConfig{}, clock_};
  std::string alice_;
  std::string bob_;
};

// 8 threads × mixed reads/writes/exports against one provider. Even
// alice threads share one contended record; odd bob threads repeatedly
// attempt to read alice's secret, directly and through the viewer app.
TEST_F(ProviderConcurrencyTest, MixedWorkloadNoLostUpdatesTornReadsOrLeaks) {
  constexpr int kThreads = 8;
  constexpr int kIters = 150;

  // The shared record everyone named "alice" fights over. Created once
  // here (version 1); each successful overwrite must bump the version
  // by exactly one — any lost update shows up as version < puts.
  ASSERT_EQ(provider_.http(Method::kPost, "/data/shared/counter",
                           R"({"n":0,"m":0})", alice_)
                .status,
            201);
  std::atomic<int> shared_puts{1};

  auto worker = [&](int thread_id) {
    const bool is_alice = thread_id % 2 == 0;
    const std::string& session = is_alice ? alice_ : bob_;
    const std::string my_record =
        "/data/notes/t" + std::to_string(thread_id);

    for (int i = 1; i <= kIters; ++i) {
      // Private record write: both fields carry the same value, so a
      // torn read (one field from put k, the other from put k') is
      // detectable as a != b.
      const std::string body = "{\"a\":" + std::to_string(i) +
                               ",\"b\":" + std::to_string(i) + "}";
      EXPECT_EQ(provider_.http(Method::kPost, my_record, body, session).status,
                201);

      const auto read = provider_.http(Method::kGet, my_record, "", session);
      EXPECT_EQ(read.status, 200);
      auto parsed = util::Json::parse(read.body);
      ASSERT_TRUE(parsed.ok()) << read.body;
      EXPECT_EQ(parsed.value().at("a").as_int(), parsed.value().at("b").as_int())
          << "torn read: " << read.body;

      if (is_alice) {
        // Contended write to the shared record.
        const std::string update = "{\"n\":" + std::to_string(i) +
                                   ",\"m\":" + std::to_string(thread_id) + "}";
        if (provider_
                .http(Method::kPost, "/data/shared/counter", update, alice_)
                .status == 201)
          shared_puts.fetch_add(1, std::memory_order_relaxed);
      } else {
        // Attack lane: bob tries the secret through the app and
        // directly. Both must fail, and the marker must never appear.
        const auto via_app =
            provider_.http(Method::kGet, "/dev/mallory/viewer", "", bob_);
        EXPECT_EQ(via_app.status, 403);
        EXPECT_EQ(via_app.body.find(kSecretMarker), std::string::npos);

        const auto direct =
            provider_.http(Method::kGet, "/data/secrets/s1", "", bob_);
        EXPECT_NE(direct.status, 200);
        EXPECT_EQ(direct.body.find(kSecretMarker), std::string::npos);
      }

      // Sprinkle registry/audit/search reads into the mix.
      if (i % 32 == 0) {
        EXPECT_EQ(provider_.http(Method::kGet, "/stats", "", session).status,
                  200);
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& thread : threads) thread.join();

  // Lost-update check: the version counts every successful put exactly
  // once, even though four threads raced on the same shard entry.
  const auto shared =
      provider_.store().get(os::kKernelPid, "shared", "counter");
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value().version,
            static_cast<std::uint64_t>(shared_puts.load()));

  // Every private record converged on its thread's final write.
  for (int t = 0; t < kThreads; ++t) {
    const auto record = provider_.store().get(os::kKernelPid, "notes",
                                              "t" + std::to_string(t));
    ASSERT_TRUE(record.ok());
    EXPECT_EQ(record.value().version, static_cast<std::uint64_t>(kIters));
    EXPECT_EQ(record.value().data.at("a").as_int(), kIters);
    EXPECT_EQ(record.value().data.at("b").as_int(), kIters);
  }

  // The attack lane ran ~kIters × 4 threads; none may have leaked into
  // the audit trail as an allowed export of alice's secret to bob.
  const auto events = provider_.audit().events();
  EXPECT_FALSE(events.empty());
}

// ---- Cursor paging against writers -------------------------------------------

// Readers page one owner's records by cursor through a cleared process
// while writers swap in new versions, remove keys and re-create them. The
// shards publish immutable versions, so a reader that copies a row after
// the shard lock drops still sees one put's fields, never a blend.
TEST(StoreConcurrencyTest, CursorPagesSeeWholeRowsWhileWritersSwapVersions) {
  constexpr int kKeys = 120;
  constexpr std::size_t kLimit = 7;
  constexpr int kWrites = 1500;
  os::Kernel kernel;
  util::WallClock clock;
  store::LabeledStore store(kernel, clock);
  const difc::Tag mine =
      kernel.create_tag(os::kKernelPid, "sec(owner)", difc::TagPurpose::kSecrecy)
          .value();
  const difc::Tag theirs =
      kernel.create_tag(os::kKernelPid, "sec(other)", difc::TagPurpose::kSecrecy)
          .value();
  const auto record = [](const std::string& id, const std::string& owner,
                         difc::Tag tag, int value) {
    store::Record r;
    r.collection = "photos";
    r.id = id;
    r.owner = owner;
    r.labels = difc::ObjectLabels{difc::Label{tag}, {}};
    r.data["a"] = value;
    r.data["b"] = value;
    return r;
  };
  const auto key = [](int i) {
    char id[8];
    std::snprintf(id, sizeof id, "k%03d", i);
    return std::string(id);
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store.put(os::kKernelPid, record(key(i), "owner", mine, 0)).ok());
    // Another owner's rows interleave in the same shards, above the
    // readers' clearance.
    ASSERT_TRUE(
        store.put(os::kKernelPid, record(key(i) + "x", "other", theirs, 0)).ok());
  }

  std::atomic<bool> writing{true};
  std::atomic<int> writers_left{2};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      util::Rng rng(static_cast<std::uint64_t>(70 + w));
      for (int n = 1; n <= kWrites; ++n) {
        const std::string id = key(static_cast<int>(rng.next_below(kKeys)));
        if (w == 0) {
          EXPECT_TRUE(store.put(os::kKernelPid, record(id, "owner", mine, n)).ok());
        } else {
          // Remove and re-create: the key vanishes, then returns at
          // version 1 with fresh fields.
          (void)store.remove(os::kKernelPid, "photos", id);
          EXPECT_TRUE(
              store.put(os::kKernelPid, record(id, "owner", mine, -n)).ok());
        }
      }
      if (writers_left.fetch_sub(1) == 1) writing.store(false);
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&] {
      const os::Pid reader = kernel.spawn_trusted(
          "reader", difc::LabelState({}, {},
                                     difc::CapabilitySet{difc::plus(mine)}));
      int traversals = 0;
      while (writing.load() || traversals < 2) {
        std::string cursor;
        std::string last;
        do {
          store::QueryOptions options;
          options.owner = "owner";
          options.limit = kLimit;
          options.cursor = cursor;
          auto page = store.query_page(reader, "photos", options);
          ASSERT_TRUE(page.ok()) << page.error().code;
          ASSERT_LE(page.value().records.size(), kLimit);
          for (const store::Record& row : page.value().records) {
            EXPECT_EQ(row.owner, "owner");
            EXPECT_EQ(row.data.at("a").as_int(), row.data.at("b").as_int())
                << "torn row " << row.id;
            EXPECT_LT(last, row.id) << "keys must strictly ascend";
            last = row.id;
          }
          cursor = page.value().next_cursor;
        } while (!cursor.empty());
        ++traversals;
      }
      (void)kernel.exit(reader);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every key survives its last re-create.
  store::QueryOptions all;
  all.owner = "owner";
  auto final_rows = store.query(os::kKernelPid, "photos", all);
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows.value().size(), static_cast<std::size_t>(kKeys));
}

// ---- Signup against lookups --------------------------------------------------

// Signup runs the 1,000-round password hash; every app request looks its
// viewer up in the same directory. One thread signs users up while
// another times lookups of an existing user: the worst lookup during a
// signup must not grow with the hash. Gated as a ratio to the hash time
// measured alone, so the host's speed cancels. A lookup is charged its
// wall time less the time the reader spent in its core's run queue, so
// other work on that core is not mistaken for a lock wait.
TEST(UserDirectoryConcurrencyTest, LookupsDoNotWaitForPasswordHashing) {
  constexpr int kSignups = 20;
  using Clock = std::chrono::steady_clock;
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  const auto involuntary_switches = [] {
    rusage usage{};
    getrusage(RUSAGE_THREAD, &usage);
    return usage.ru_nivcsw;
  };
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  os::Kernel kernel;
  platform::UserDirectory users(kernel);
  ASSERT_TRUE(users.create("alice", "", "password").ok());

  std::vector<double> hash_us;
  for (int i = 0; i < 9; ++i) {
    const auto start = Clock::now();
    const std::string digest = platform::hash_password("salt", "password");
    hash_us.push_back(micros(Clock::now() - start));
    ASSERT_FALSE(digest.empty());
  }
  const double hash_median = median(hash_us);

  // The threads are pinned to two cores: on one, a lookup would queue
  // behind the signup's CPU time whatever the locking.
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof allowed, &allowed), 0);
  std::vector<int> cores;
  for (int c = 0; c < CPU_SETSIZE && cores.size() < 2; ++c)
    if (CPU_ISSET(c, &allowed)) cores.push_back(c);
  if (cores.size() < 2) GTEST_SKIP() << "needs two cores";
  const auto pin = [](int core) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  };

  // One round: kSignups signups against a reader that charges each
  // lookup to every signup it overlapped (those that had begun before it
  // ended and had not finished before it began). Each signup waits for a
  // lookup that began after the last one ended, so a reader descheduled
  // for a while inflates one signup's figure, not a run of them. Returns
  // the worst lookup of each signup the reader saw.
  const auto round = [&](int n) {
    std::atomic<int> begun{0};
    std::atomic<int> finished{0};
    std::atomic<int> caught_up{0};
    std::atomic<bool> reading{false};
    std::atomic<bool> done{false};
    std::vector<double> worst(kSignups, 0.0);
    std::vector<int> samples(kSignups, 0);
    std::thread reader([&] {
      pin(cores[1]);
      // This thread's run-queue wait: the second field (ns) of its
      // schedstat. Waking from a lock into a busy core's run queue is not
      // an involuntary switch, so the filter below cannot see it.
      const int schedstat =
          ::open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC);
      const auto run_queue_micros = [schedstat] {
        char text[128];
        const ssize_t got = ::pread(schedstat, text, sizeof text - 1, 0);
        if (got <= 0) return 0.0;
        text[got] = '\0';
        unsigned long long on_cpu = 0, waiting = 0;
        if (std::sscanf(text, "%llu %llu", &on_cpu, &waiting) != 2) return 0.0;
        return static_cast<double>(waiting) / 1000.0;
      };
      reading.store(true);
      while (!done.load()) {
        const int first = finished.load();
        const long preempted = involuntary_switches();
        const double queued = run_queue_micros();
        const auto start = Clock::now();
        const platform::UserAccount* account = users.find("alice");
        const double wall = micros(Clock::now() - start);
        const double took =
            std::max(0.0, wall - (run_queue_micros() - queued));
        const int last = begun.load();
        EXPECT_NE(account, nullptr);
        // Waiting on a lock is a voluntary switch. A lookup the scheduler
        // preempted (the signup thread may share its core) timed the CPU
        // queue, not the directory, and is left out.
        if (involuntary_switches() == preempted) {
          for (int i = first; i < last; ++i) {
            worst[static_cast<std::size_t>(i)] =
                std::max(worst[static_cast<std::size_t>(i)], took);
            ++samples[static_cast<std::size_t>(i)];
          }
        }
        caught_up.store(first);
      }
      if (schedstat >= 0) ::close(schedstat);
    });
    while (!reading.load()) std::this_thread::yield();
    for (int i = 0; i < kSignups; ++i) {
      begun.store(i + 1);
      EXPECT_TRUE(users
                      .create("user" + std::to_string(n) + "-" +
                                  std::to_string(i),
                              "", "password")
                      .ok());
      finished.store(i + 1);
      while (caught_up.load() < i + 1) std::this_thread::yield();
    }
    done.store(true);
    reader.join();
    std::vector<double> seen;
    for (int i = 0; i < kSignups; ++i)
      if (samples[static_cast<std::size_t>(i)] > 0)
        seen.push_back(worst[static_cast<std::size_t>(i)]);
    return seen;
  };

  // A round in which the host preempted the reader throughout is run
  // again.
  std::vector<double> sampled;
  pin(cores[0]);
  for (int n = 0; n < 5 && sampled.size() < kSignups / 2; ++n)
    sampled = round(n);
  pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
  ASSERT_GE(sampled.size(), static_cast<std::size_t>(kSignups / 2))
      << "the reader ran during too few signups";
  const double worst_median = median(sampled);
  std::printf("user_directory: hash %.1f us alone, worst lookup per signup "
              "%.1f us (median of %zu)\n",
              hash_median, worst_median, sampled.size());
  EXPECT_LE(worst_median, 0.25 * hash_median)
      << "lookups wait behind the password hash";
}

// ---- Flow-memo epoch invalidation -------------------------------------------

TEST(FlowMemoTest, EpochBumpInvalidatesCachedVerdicts) {
  auto& table = difc::LabelTable::instance();
  auto& cache = difc::FlowCache::instance();

  const difc::Label src{difc::Tag(101), difc::Tag(102)};
  const difc::Label dst{difc::Tag(101), difc::Tag(102), difc::Tag(103)};
  const difc::LabelId src_id = table.intern(src);
  const difc::LabelId dst_id = table.intern(dst);

  cache.insert(src_id, dst_id, true);
  ASSERT_EQ(cache.lookup(src_id, dst_id), std::optional<bool>(true));

  // An epoch bump makes the entry a miss even though the key matches:
  // ids minted before the bump no longer mean anything.
  table.invalidate();
  EXPECT_EQ(cache.lookup(src_id, dst_id), std::nullopt);
}

TEST(FlowMemoTest, TagRegistryCreateBumpsEpoch) {
  const std::uint64_t before = difc::LabelTable::instance().epoch();
  difc::TagRegistry registry;
  (void)registry.create("epoch-test", difc::TagPurpose::kSecrecy);
  EXPECT_GT(difc::LabelTable::instance().epoch(), before);
}

TEST(FlowMemoTest, ExportVerdictTracksPrivilegeChanges) {
  // The memo must never freeze a privilege decision: check_export keys
  // on the *current* removable set, so granting or dropping t- flips
  // the verdict immediately with no explicit invalidation needed.
  const difc::Tag t(4242);
  const difc::Label secret{t};

  const difc::CapabilitySet with_minus{difc::minus(t)};
  const difc::CapabilitySet without{};

  EXPECT_TRUE(difc::check_export(secret, with_minus).ok());
  EXPECT_FALSE(difc::check_export(secret, without).ok());
  // And back again — repeated to push both pairs through the memo.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(difc::check_export(secret, with_minus).ok());
    EXPECT_FALSE(difc::check_export(secret, without).ok());
  }
}

TEST(FlowMemoTest, CachedSubsetVerdictsStayCorrectUnderRepetition) {
  // Same pair checked twice: second round is the memo hit path; the
  // answers must be identical to the cold path.
  const difc::Label low{difc::Tag(7)};
  const difc::Label high{difc::Tag(7), difc::Tag(8)};
  for (int round = 0; round < 2; ++round) {
    EXPECT_TRUE(difc::can_flow(low, {}, high, {}));
    EXPECT_FALSE(difc::can_flow(high, {}, low, {}));
    // Integrity side: I_dst ⊆ I_src.
    EXPECT_TRUE(difc::can_flow({}, high, {}, low));
    EXPECT_FALSE(difc::can_flow({}, low, {}, high));
  }
}

}  // namespace
}  // namespace w5
