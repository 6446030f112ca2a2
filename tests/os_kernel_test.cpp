#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "difc/flow.h"
#include "os/kernel.h"

namespace w5::os {
namespace {

using difc::CapabilitySet;
using difc::Label;
using difc::LabelState;
using difc::minus;
using difc::plus;
using difc::Tag;
using difc::TagPurpose;

TEST(KernelTest, SpawnTrustedCreatesLiveProcess) {
  Kernel kernel;
  const Pid pid = kernel.spawn_trusted("gateway", LabelState({}, {}, {}));
  ASSERT_NE(kernel.find(pid), nullptr);
  EXPECT_EQ(kernel.find(pid)->status, ProcessStatus::kRunning);
  EXPECT_EQ(kernel.live_process_count(), 1u);
}

TEST(KernelTest, CreateTagGrantsDualToCreator) {
  Kernel kernel;
  const Pid pid = kernel.spawn_trusted("alloc", LabelState({}, {}, {}));
  auto tag = kernel.create_tag(pid, "sec(bob)", TagPurpose::kSecrecy);
  ASSERT_TRUE(tag.ok());
  EXPECT_TRUE(kernel.find(pid)->labels.owned().has_dual(tag.value()));
  EXPECT_EQ(kernel.tags().describe(tag.value()), "sec(bob)");
}

TEST(KernelTest, GrantRequiresOwnership) {
  Kernel kernel;
  const Pid owner = kernel.spawn_trusted("owner", LabelState({}, {}, {}));
  const Pid other = kernel.spawn_trusted("other", LabelState({}, {}, {}));
  const Pid third = kernel.spawn_trusted("third", LabelState({}, {}, {}));
  auto tag = kernel.create_tag(owner, "t", TagPurpose::kSecrecy);
  ASSERT_TRUE(tag.ok());

  EXPECT_FALSE(kernel.grant(other, third, minus(tag.value())).ok());
  EXPECT_TRUE(kernel.grant(owner, other, minus(tag.value())).ok());
  EXPECT_TRUE(kernel.find(other)->labels.owned().has_minus(tag.value()));
  // Now `other` can re-grant.
  EXPECT_TRUE(kernel.grant(other, third, minus(tag.value())).ok());
  // Kernel can always grant.
  EXPECT_TRUE(kernel.grant(kKernelPid, third, plus(tag.value())).ok());
}

TEST(KernelTest, GlobalCapsAreUniversallyEffective) {
  Kernel kernel;
  auto tag = kernel.create_tag(kKernelPid, "sec(u)", TagPurpose::kSecrecy);
  ASSERT_TRUE(tag.ok());
  kernel.add_global_capability(plus(tag.value()));

  const Pid app = kernel.spawn_trusted("app", LabelState({}, {}, {}));
  // App owns nothing of its own, but Ô lets it raise.
  EXPECT_TRUE(kernel.raise_secrecy(app, Label{tag.value()}).ok());
  EXPECT_EQ(kernel.find(app)->labels.secrecy(), Label{tag.value()});
  // Lowering still needs t-, which is NOT global.
  EXPECT_FALSE(kernel.set_secrecy(app, Label{}).ok());
}

TEST(KernelTest, SecrecyChangesEnforceCapabilities) {
  Kernel kernel;
  auto tag = kernel.create_tag(kKernelPid, "s", TagPurpose::kSecrecy);
  const Pid app = kernel.spawn_trusted("app", LabelState({}, {}, {}));
  EXPECT_FALSE(kernel.raise_secrecy(app, Label{tag.value()}).ok());
  ASSERT_TRUE(kernel.grant(kKernelPid, app, plus(tag.value())).ok());
  EXPECT_TRUE(kernel.raise_secrecy(app, Label{tag.value()}).ok());
}

TEST(KernelTest, IntegrityChangesEnforceCapabilities) {
  Kernel kernel;
  auto wp = kernel.create_tag(kKernelPid, "wp(bob)", TagPurpose::kIntegrity);
  const Pid app = kernel.spawn_trusted("app", LabelState({}, {}, {}));
  EXPECT_FALSE(kernel.set_integrity(app, Label{wp.value()}).ok());
  ASSERT_TRUE(kernel.grant(kKernelPid, app, plus(wp.value())).ok());
  EXPECT_TRUE(kernel.set_integrity(app, Label{wp.value()}).ok());
  EXPECT_EQ(kernel.find(app)->labels.integrity(), Label{wp.value()});
}

TEST(KernelTest, SpawnChildCannotExceedParent) {
  Kernel kernel;
  auto tag = kernel.create_tag(kKernelPid, "s", TagPurpose::kSecrecy);
  const Pid parent = kernel.spawn_trusted("parent", LabelState({}, {}, {}));

  // Child with capabilities the parent lacks: denied.
  auto denied = kernel.spawn(
      parent, "child",
      LabelState({}, {}, CapabilitySet{minus(tag.value())}));
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, "cap.denied");

  // Child with secrecy the parent cannot reach: denied.
  auto denied2 =
      kernel.spawn(parent, "child", LabelState({tag.value()}, {}, {}));
  EXPECT_FALSE(denied2.ok());

  // Grant the parent t+ and the same spawn succeeds.
  ASSERT_TRUE(kernel.grant(kKernelPid, parent, plus(tag.value())).ok());
  auto allowed =
      kernel.spawn(parent, "child", LabelState({tag.value()}, {}, {}));
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(kernel.find(allowed.value())->labels.secrecy(),
            Label{tag.value()});
}

TEST(KernelTest, SpawnPassesOwnedCapabilitiesDown) {
  Kernel kernel;
  const Pid parent = kernel.spawn_trusted("parent", LabelState({}, {}, {}));
  auto tag = kernel.create_tag(parent, "t", TagPurpose::kSecrecy);
  auto child = kernel.spawn(
      parent, "child",
      LabelState({}, {}, CapabilitySet{plus(tag.value())}));
  ASSERT_TRUE(child.ok());
  EXPECT_TRUE(
      kernel.find(child.value())->labels.owned().has_plus(tag.value()));
}

TEST(KernelTest, KillAndExitStopProcesses) {
  Kernel kernel;
  const Pid pid = kernel.spawn_trusted("victim", LabelState({}, {}, {}));
  EXPECT_TRUE(kernel.kill(pid, "test kill").ok());
  EXPECT_EQ(kernel.find(pid)->status, ProcessStatus::kKilled);
  EXPECT_EQ(kernel.find(pid)->exit_reason, "test kill");
  // Dead processes reject further syscalls.
  EXPECT_FALSE(kernel.set_secrecy(pid, {}).ok());
  EXPECT_FALSE(kernel.kill(pid, "again").ok());
  EXPECT_EQ(kernel.live_process_count(), 0u);
}

TEST(KernelTest, DropCapabilityIsIrrevocable) {
  Kernel kernel;
  const Pid pid = kernel.spawn_trusted("d", LabelState({}, {}, {}));
  auto tag = kernel.create_tag(pid, "t", TagPurpose::kSecrecy);
  ASSERT_TRUE(kernel.drop_capability(pid, minus(tag.value())).ok());
  EXPECT_FALSE(kernel.find(pid)->labels.owned().has_minus(tag.value()));
  // After dropping t-, the process can contaminate itself but never
  // declassify again.
  ASSERT_TRUE(kernel.raise_secrecy(pid, Label{tag.value()}).ok());
  EXPECT_FALSE(kernel.set_secrecy(pid, Label{}).ok());
}

TEST(KernelTest, KernelAuthorityPassesEveryCheck) {
  Kernel kernel;
  const Tag a =
      kernel.create_tag(kKernelPid, "a", TagPurpose::kSecrecy).value();
  const Tag b =
      kernel.create_tag(kKernelPid, "b", TagPurpose::kIntegrity).value();
  auto who = kernel.authority(kKernelPid);
  ASSERT_TRUE(who.ok());
  const difc::Authority& kernel_view = who.value();
  EXPECT_TRUE(kernel_view.is_kernel());
  // Its labels are pinned at {}; its authority covers every tag.
  EXPECT_EQ(kernel_view.secrecy(), Label{});
  EXPECT_EQ(kernel_view.integrity(), Label{});
  const difc::ObjectLabels object{Label{a}, Label{b}};
  EXPECT_TRUE(kernel_view.can_see(object.secrecy));
  EXPECT_TRUE(kernel_view.check_read(object).ok());
  EXPECT_TRUE(kernel_view.check_write(object).ok());
  EXPECT_TRUE(kernel_view.change_is_safe(Label{a, b}, Label{}));
  EXPECT_TRUE(kernel_view.holds(minus(a)));
  EXPECT_TRUE(kernel_view.holds(plus(b)));
}

TEST(KernelTest, ProcessAuthorityLooksUpGlobalCapsPerTag) {
  // Ô is consulted at each check, not copied into the view: a tag
  // published after the view was taken counts, and a process's own
  // capabilities never grow by it.
  Kernel kernel;
  std::vector<Tag> tags;
  for (int i = 0; i < 300; ++i) {
    tags.push_back(kernel.tags().create("t" + std::to_string(i),
                                        TagPurpose::kSecrecy));
  }
  const Pid app = kernel.spawn_trusted("app", LabelState({}, {}, {}));
  auto who = kernel.authority(app);
  ASSERT_TRUE(who.ok());
  const Label secret{tags[17]};
  EXPECT_FALSE(who.value().can_see(secret));
  kernel.add_global_capability(plus(tags[17]));
  EXPECT_TRUE(who.value().can_see(secret));
  EXPECT_TRUE(who.value().holds(plus(tags[17])));
  // t+ alone admits the row but does not read it: reading needs t in S
  // or dual privilege, and t- is not global.
  EXPECT_FALSE(who.value().check_read({secret, {}}).ok());
  EXPECT_FALSE(who.value().can_see(Label{tags[18]}));
  EXPECT_TRUE(kernel.find(app)->labels.owned().empty());
  // Publishing t- too makes the tag dual for every process.
  kernel.add_global_capability(minus(tags[17]));
  EXPECT_TRUE(who.value().check_read({secret, {}}).ok());
}

TEST(KernelTest, ChargeKillsOverQuotaProcess) {
  Kernel kernel;
  ResourceContainer container("app", {.cpu_ticks = 10});
  const Pid pid =
      kernel.spawn_trusted("hog", LabelState({}, {}, {}), &container);
  EXPECT_TRUE(kernel.charge(pid, Resource::kCpu, 10).ok());
  const auto status = kernel.charge(pid, Resource::kCpu, 1);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "quota.exceeded");
  EXPECT_EQ(kernel.find(pid)->status, ProcessStatus::kKilled);
}

}  // namespace
}  // namespace w5::os
