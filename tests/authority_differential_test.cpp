// The caller view (difc::Authority) against the materialized checks it
// replaced.
//
// Checks used to merge the global capability set Ô into the caller's
// capabilities, give the kernel pid dual privilege over every registered
// tag, and turn the result into labels (clearance, widened S and I)
// before comparing. The view answers the same questions one tag of the
// object's label at a time. This file keeps the old code as the
// reference and compares verdicts over seeded random worlds: tag sets,
// some published to Ô, random process states and object labels, through
// the view itself, the labeled store (get at both raise settings, query
// at both bounds, create, overwrite, remove) and the kernel (label
// changes, spawn). Every tag is registered, as every tag in a provider
// is: the old kernel authority covered only registered tags.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/provider.h"
#include "difc/flow.h"
#include "os/kernel.h"
#include "store/labeled_store.h"
#include "util/clock.h"
#include "util/rng.h"

namespace w5 {
namespace {

using difc::CapabilitySet;
using difc::CapSign;
using difc::Label;
using difc::LabelState;
using difc::ObjectLabels;
using difc::Tag;
using os::Pid;

// ---- The reference: the materialized checks, as they were -------------------

// Kernel::effective_state: the kernel owned dual privilege over every
// registered tag; a process's own capabilities were merged with Ô.
LabelState ref_effective_state(const os::Kernel& kernel, Pid pid) {
  if (pid == os::kKernelPid) {
    CapabilitySet caps;
    for (const Tag tag : kernel.tags().all()) caps.add_dual(tag);
    return LabelState({}, {}, caps);
  }
  const os::Process* process = kernel.find(pid);
  CapabilitySet merged = process->labels.owned();
  merged.merge(kernel.global_caps());
  return LabelState(process->labels.secrecy(), process->labels.integrity(),
                    merged);
}

// widen_for, identical in the store and the filesystem.
LabelState ref_widen_for(const LabelState& state, const ObjectLabels& object) {
  const Label dual =
      state.owned().addable().intersect_with(state.owned().removable());
  const Label secrecy =
      state.secrecy().union_with(object.secrecy.intersect_with(dual));
  const Label integrity = state.integrity().union_with(
      object.integrity.intersect_with(state.owned().addable()));
  return LabelState(secrecy, integrity, state.owned());
}

bool ref_read(const LabelState& state, const ObjectLabels& object) {
  return difc::check_read(ref_widen_for(state, object), object).ok();
}

bool ref_write(const LabelState& state, const ObjectLabels& object) {
  return difc::check_write(ref_widen_for(state, object), object).ok();
}

// The store's create rule: no leak, no forged endorsement.
bool ref_create(const LabelState& state, const ObjectLabels& labels) {
  const Label endorsable =
      state.integrity().union_with(state.owned().addable());
  return state.secrecy().subset_of(labels.secrecy) &&
         labels.integrity.subset_of(endorsable);
}

bool ref_change_is_safe(const LabelState& state, const Label& from,
                        const Label& to) {
  return state.owned().covers(to.subtract(from), CapSign::kPlus) &&
         state.owned().covers(from.subtract(to), CapSign::kMinus);
}

// ---- Random worlds ---------------------------------------------------------

Label random_label(util::Rng& rng, const std::vector<Tag>& tags,
                   std::uint64_t per_mille) {
  std::vector<Tag> out;
  for (const Tag tag : tags)
    if (rng.next_below(1000) < per_mille) out.push_back(tag);
  return Label(std::move(out));
}

CapabilitySet random_caps(util::Rng& rng, const std::vector<Tag>& tags) {
  CapabilitySet out;
  for (const Tag tag : tags) {
    if (rng.next_below(1000) < 200) out.add(difc::plus(tag));
    if (rng.next_below(1000) < 200) out.add(difc::minus(tag));
  }
  return out;
}

struct World {
  os::Kernel kernel;
  util::SimClock clock;
  store::LabeledStore store{kernel, clock};
  std::vector<Tag> tags;
};

void build_world(World& world, util::Rng& rng) {
  const std::size_t n = 4 + rng.next_below(7);
  for (std::size_t i = 0; i < n; ++i) {
    world.tags.push_back(world.kernel.tags().create(
        "t" + std::to_string(i), i % 3 == 2 ? difc::TagPurpose::kIntegrity
                                            : difc::TagPurpose::kSecrecy));
  }
  // Ô: mostly t+, as the provider publishes, and now and then t-.
  for (const Tag tag : world.tags) {
    if (rng.next_below(1000) < 400)
      world.kernel.add_global_capability(difc::plus(tag));
    if (rng.next_below(1000) < 100)
      world.kernel.add_global_capability(difc::minus(tag));
  }
}

// Counts verdicts that differ, printing the first few.
struct Diffs {
  std::size_t checks = 0;
  std::size_t diffs = 0;

  void expect(bool actual, bool reference, const char* what,
              std::size_t case_no) {
    ++checks;
    if (actual == reference) return;
    if (++diffs <= 10) {
      std::printf("diff: case %zu %s: view %d reference %d\n", case_no, what,
                  actual ? 1 : 0, reference ? 1 : 0);
    }
  }
};

// Runs one case: a caller (the kernel pid one time in eight), an object,
// a target label pair and a child state, checked every way both sides
// can answer.
void run_case(World& world, util::Rng& rng, std::size_t case_no, Diffs& d) {
  const bool kernel_caller = rng.next_below(8) == 0;
  const LabelState initial(random_label(rng, world.tags, 300),
                           random_label(rng, world.tags, 200),
                           random_caps(rng, world.tags));
  const ObjectLabels object{random_label(rng, world.tags, 300),
                            random_label(rng, world.tags, 250)};
  const auto spawn = [&] {
    return kernel_caller ? os::kKernelPid
                         : world.kernel.spawn_trusted("case", initial);
  };
  const auto done = [&](Pid pid) {
    if (pid == os::kKernelPid) return;
    (void)world.kernel.exit(pid);
    world.kernel.reap(pid);
  };

  // The view itself.
  Pid pid = spawn();
  const LabelState ref = ref_effective_state(world.kernel, pid);
  const difc::Authority who = world.kernel.authority(pid).value();
  d.expect(who.can_see(object.secrecy),
           object.secrecy.subset_of(ref.secrecy_clearance()), "can_see",
           case_no);
  d.expect(who.check_read(object).ok(), ref_read(ref, object), "read",
           case_no);
  d.expect(who.check_write(object).ok(), ref_write(ref, object), "write",
           case_no);
  const Label to = random_label(rng, world.tags, 300);
  d.expect(who.change_is_safe(ref.secrecy(), to),
           ref_change_is_safe(ref, ref.secrecy(), to), "change_is_safe",
           case_no);

  // Label changes through the kernel (the kernel pid's are vacuous).
  d.expect(world.kernel.set_secrecy(pid, to).ok(),
           kernel_caller || ref_change_is_safe(ref, ref.secrecy(), to),
           "set_secrecy", case_no);
  done(pid);
  pid = spawn();
  const Label integrity_to = random_label(rng, world.tags, 200);
  d.expect(world.kernel.set_integrity(pid, integrity_to).ok(),
           kernel_caller ||
               ref_change_is_safe(ref, ref.integrity(), integrity_to),
           "set_integrity", case_no);
  done(pid);

  // spawn: reachable labels, and only capabilities the parent holds. The
  // kernel pid is not a process and cannot be a parent.
  pid = spawn();
  const LabelState child(random_label(rng, world.tags, 300),
                         random_label(rng, world.tags, 200),
                         random_caps(rng, world.tags));
  bool ref_spawn = !kernel_caller &&
                   ref_change_is_safe(ref, ref.secrecy(), child.secrecy()) &&
                   ref_change_is_safe(ref, ref.integrity(), child.integrity());
  for (const auto& cap : child.owned().capabilities())
    ref_spawn = ref_spawn && ref.owned().has(cap);
  auto spawned = world.kernel.spawn(pid, "child", child);
  d.expect(spawned.ok(), ref_spawn, "spawn", case_no);
  if (spawned.ok()) done(spawned.value());
  done(pid);

  // The store. Each case owns one collection holding one record.
  const std::string collection = "c" + std::to_string(case_no);
  store::Record record;
  record.collection = collection;
  record.id = "r";
  record.owner = "o";
  record.labels = object;
  record.data = util::Json(static_cast<std::int64_t>(case_no));

  pid = spawn();
  d.expect(world.store.put(pid, record).ok(), ref_create(ref, object),
           "create", case_no);
  done(pid);
  (void)world.store.put(os::kKernelPid, record);  // the kernel always can
  const bool visible = object.secrecy.subset_of(ref.secrecy_clearance());

  for (const store::Raise raise : {store::Raise::kNo, store::Raise::kYes}) {
    // get: invisible rows do not exist; kYes raises to admit, then reads.
    pid = spawn();
    bool ref_get = visible;
    if (visible) {
      LabelState after = ref;
      if (raise == store::Raise::kYes)
        after = LabelState(ref.secrecy().union_with(object.secrecy),
                           ref.integrity(), ref.owned());
      ref_get = ref_read(after, object);
    }
    d.expect(world.store.get(pid, collection, "r", raise).ok(), ref_get,
             raise == store::Raise::kYes ? "get kYes" : "get kNo", case_no);
    done(pid);

    // query: kYes scans at clearance, kNo at the caller's current S.
    pid = spawn();
    auto rows = world.store.query(pid, collection, {}, raise);
    const bool ref_row = raise == store::Raise::kYes
                             ? visible
                             : object.secrecy.subset_of(ref.secrecy());
    d.expect(rows.ok() && rows.value().size() == 1, ref_row,
             raise == store::Raise::kYes ? "query kYes" : "query kNo",
             case_no);
    done(pid);
  }

  pid = spawn();
  record.data = util::Json("overwritten");
  d.expect(world.store.put(pid, record).ok(), ref_write(ref, object),
           "overwrite", case_no);
  d.expect(world.store.remove(pid, collection, "r").ok(),
           visible && ref_write(ref, object), "remove", case_no);
  done(pid);
}

TEST(AuthorityDifferential, ViewMatchesMaterializedChecks) {
  util::Rng rng(20251019);
  Diffs d;
  std::size_t cases = 0;
  for (int w = 0; w < 64; ++w) {
    World world;
    build_world(world, rng);
    for (int c = 0; c < 160; ++c) run_case(world, rng, cases++, d);
  }
  std::printf("authority differential: %zu cases, %zu verdicts, %zu diffs\n",
              cases, d.checks, d.diffs);
  EXPECT_GE(cases, 10000u);
  EXPECT_EQ(d.diffs, 0u);
}

// App processes read, query and raise while signups publish to Ô. No
// race (the TSan leg runs every *Concurrency* test), and once the
// writers stop every verdict matches the reference.
TEST(AuthorityConcurrencyTest, ChecksStayExactWhileSignupsPublishToGlobalCaps) {
  util::WallClock clock;
  platform::Provider provider{platform::ProviderConfig{}, clock};
  const auto note_for = [&](const std::string& user) {
    const platform::UserAccount* account = provider.users().find(user);
    store::Record record;
    record.collection = "notes";
    record.id = user;
    record.owner = user;
    record.labels = ObjectLabels{Label{account->secrecy_tag},
                                 Label{account->write_tag}};
    record.data = util::Json(user);
    return provider.store().put(os::kKernelPid, std::move(record));
  };
  std::vector<std::string> seeded;
  for (int i = 0; i < 8; ++i) {
    seeded.push_back("s" + std::to_string(i));
    ASSERT_TRUE(provider.signup(seeded.back(), "pw-12345").ok());
    ASSERT_TRUE(note_for(seeded.back()).ok());
  }

  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 40; ++i) {
      const std::string user = "w" + std::to_string(i);
      if (!provider.signup(user, "pw-12345").ok() || !note_for(user).ok())
        failed = true;
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      util::Rng rng(static_cast<std::uint64_t>(r) + 1);
      for (int i = 0; i < 150; ++i) {
        const std::string& owner = seeded[rng.next_below(seeded.size())];
        const Pid pid = provider.kernel().spawn_trusted("app", LabelState());
        store::QueryOptions options;
        options.owner = owner;
        auto rows = provider.store().query(pid, "notes", options);
        auto row = provider.store().get(pid, "notes", owner,
                                        store::Raise::kYes);
        auto raised = provider.kernel().raise_secrecy(
            pid, Label{provider.users().find(owner)->secrecy_tag});
        if (!rows.ok() || rows.value().size() != 1 || !row.ok() ||
            !raised.ok())
          failed = true;
        (void)provider.kernel().exit(pid);
        provider.kernel().reap(pid);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());

  // Quiescent: every user's note, old and new, against the reference.
  Diffs d;
  std::size_t case_no = 0;
  for (const std::string& user : provider.users().user_ids()) {
    auto record = provider.store().get(os::kKernelPid, "notes", user);
    ASSERT_TRUE(record.ok()) << user;
    const ObjectLabels& labels = record.value().labels;
    const Pid pid = provider.kernel().spawn_trusted("app", LabelState());
    const LabelState ref = ref_effective_state(provider.kernel(), pid);
    const difc::Authority who = provider.kernel().authority(pid).value();
    d.expect(who.can_see(labels.secrecy),
             labels.secrecy.subset_of(ref.secrecy_clearance()), "can_see",
             case_no);
    d.expect(who.check_read(labels).ok(), ref_read(ref, labels), "read",
             case_no);
    d.expect(who.check_write(labels).ok(), ref_write(ref, labels), "write",
             case_no);
    const LabelState raised(ref.secrecy().union_with(labels.secrecy),
                            ref.integrity(), ref.owned());
    d.expect(
        provider.store().get(pid, "notes", user, store::Raise::kYes).ok(),
        labels.secrecy.subset_of(ref.secrecy_clearance()) &&
            ref_read(raised, labels),
        "get kYes", case_no++);
    (void)provider.kernel().exit(pid);
    provider.kernel().reap(pid);
  }
  EXPECT_EQ(case_no, 48u);
  EXPECT_EQ(d.diffs, 0u);
}

}  // namespace
}  // namespace w5
