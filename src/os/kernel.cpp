#include "os/kernel.h"

#include <mutex>

namespace w5::os {

namespace {

util::Error no_such_process(Pid pid) {
  return util::make_error("kernel.no_process",
                          "pid " + std::to_string(pid) + " not running");
}

}  // namespace

util::Result<Process*> Kernel::live_process(Pid pid) {
  const auto it = processes_.find(pid);
  if (it == processes_.end() || it->second.status != ProcessStatus::kRunning)
    return no_such_process(pid);
  return &it->second;
}

util::Result<const Process*> Kernel::live_process(Pid pid) const {
  const auto it = processes_.find(pid);
  if (it == processes_.end() || it->second.status != ProcessStatus::kRunning)
    return no_such_process(pid);
  return &it->second;
}

void Kernel::add_global_capability(difc::Capability cap) {
  global_caps_.add(cap);
}

void Kernel::clear_global_capabilities() { global_caps_.clear(); }

Pid Kernel::spawn_trusted(std::string name, difc::LabelState initial,
                          ResourceContainer* container) {
  const util::WriteLock lock(mutex_);
  const Pid pid = next_pid_++;
  processes_[pid] = Process{pid,
                            kKernelPid,
                            std::move(name),
                            std::move(initial),
                            ProcessStatus::kRunning,
                            {},
                            container};
  return pid;
}

util::Result<Pid> Kernel::spawn(Pid parent, std::string name,
                                const difc::LabelState& initial,
                                ResourceContainer* container) {
  const util::WriteLock lock(mutex_);
  auto parent_proc = live_process(parent);
  if (!parent_proc.ok()) return parent_proc.error();
  const difc::LabelState& parent_state = parent_proc.value()->labels;

  // The child's labels must be reachable from the parent's under the
  // parent's authority (otherwise spawn launders labels).
  if (!parent_state.change_is_safe(parent_state.secrecy(), initial.secrecy(),
                                   &global_caps_)) {
    return util::make_error("flow.denied",
                            "spawn: child secrecy " +
                                initial.secrecy().to_string() +
                                " unreachable from parent " +
                                parent_state.secrecy().to_string());
  }
  if (!parent_state.change_is_safe(parent_state.integrity(),
                                   initial.integrity(), &global_caps_)) {
    return util::make_error("flow.denied",
                            "spawn: child integrity unreachable from parent");
  }
  // Capabilities: the child may hold only what the parent owns or Ô holds.
  for (const auto& cap : initial.owned().capabilities()) {
    if (!parent_state.holds(cap, &global_caps_)) {
      return util::make_error(
          "cap.denied", "spawn: parent lacks " + difc::to_string(cap));
    }
  }

  const Pid pid = next_pid_++;
  processes_[pid] =
      Process{pid,    parent, std::move(name),
              initial, ProcessStatus::kRunning,
              {},      container != nullptr ? container
                                            : parent_proc.value()->container};
  return pid;
}

Process* Kernel::find(Pid pid) {
  const util::ReadLock lock(mutex_);
  const auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : &it->second;
}

const Process* Kernel::find(Pid pid) const {
  const util::ReadLock lock(mutex_);
  const auto it = processes_.find(pid);
  return it == processes_.end() ? nullptr : &it->second;
}

util::Status Kernel::kill(Pid pid, std::string reason) {
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  proc.value()->status = ProcessStatus::kKilled;
  proc.value()->exit_reason = std::move(reason);
  return util::ok_status();
}

util::Status Kernel::exit(Pid pid) {
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  proc.value()->status = ProcessStatus::kExited;
  return util::ok_status();
}

void Kernel::reap(Pid pid) {
  const util::WriteLock lock(mutex_);
  const auto it = processes_.find(pid);
  if (it != processes_.end() && it->second.status != ProcessStatus::kRunning)
    processes_.erase(it);
}

std::size_t Kernel::live_process_count() const {
  const util::ReadLock lock(mutex_);
  std::size_t n = 0;
  for (const auto& [pid, proc] : processes_)
    if (proc.status == ProcessStatus::kRunning) ++n;
  return n;
}

std::size_t Kernel::process_table_size() const {
  const util::ReadLock lock(mutex_);
  return processes_.size();
}

util::Result<difc::Authority> Kernel::authority(Pid pid) const {
  if (pid == kKernelPid) return difc::Authority::kernel();
  const util::ReadLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  return difc::Authority(proc.value()->labels, &global_caps_);
}

util::Status Kernel::set_secrecy(Pid pid, const difc::Label& to) {
  // The kernel passes every label-change check; its label is pinned at
  // {} and label changes are vacuous.
  if (pid == kKernelPid) return util::ok_status();
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  return proc.value()->labels.set_secrecy(to, &global_caps_);
}

util::Status Kernel::raise_secrecy(Pid pid, const difc::Label& tags) {
  if (pid == kKernelPid) return util::ok_status();
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  return proc.value()->labels.raise_secrecy(tags, &global_caps_);
}

util::Status Kernel::set_integrity(Pid pid, const difc::Label& to) {
  if (pid == kKernelPid) return util::ok_status();
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  return proc.value()->labels.set_integrity(to, &global_caps_);
}

util::Result<difc::Tag> Kernel::create_tag(Pid creator, std::string name,
                                           difc::TagPurpose purpose) {
  const util::WriteLock lock(mutex_);
  std::string owner = "kernel";
  Process* proc = nullptr;
  if (creator != kKernelPid) {
    auto live = live_process(creator);
    if (!live.ok()) return live.error();
    proc = live.value();
    owner = proc->name;
  }
  const difc::Tag tag = tags_.create(std::move(name), purpose,
                                     std::move(owner));
  if (proc != nullptr) proc->labels.owned().add_dual(tag);
  return tag;
}

util::Status Kernel::grant(Pid from, Pid to, difc::Capability cap) {
  const util::WriteLock lock(mutex_);
  auto target = live_process(to);
  if (!target.ok()) return target.error();
  if (from != kKernelPid) {
    auto source = live_process(from);
    if (!source.ok()) return source.error();
    if (!source.value()->labels.owned().has(cap)) {
      return util::make_error(
          "cap.denied", "grant: pid " + std::to_string(from) +
                            " does not own " + difc::to_string(cap));
    }
  }
  target.value()->labels.owned().add(cap);
  return util::ok_status();
}

util::Status Kernel::drop_capability(Pid pid, difc::Capability cap) {
  const util::WriteLock lock(mutex_);
  auto proc = live_process(pid);
  if (!proc.ok()) return proc.error();
  proc.value()->labels.owned().remove(cap);
  return util::ok_status();
}

util::Status Kernel::charge(Pid pid, Resource r, std::int64_t amount) {
  if (pid == kKernelPid) return util::ok_status();  // provider code is unmetered
  ResourceContainer* container = nullptr;
  {
    const util::ReadLock lock(mutex_);
    auto proc = live_process(pid);
    if (!proc.ok()) return proc.error();
    container = proc.value()->container;  // written only at spawn
  }
  if (container == nullptr) return util::ok_status();
  auto status = container->charge(r, amount);  // internally synchronized
  if (!status.ok()) {
    // Over-quota processes are killed, matching §3.5's requirement that
    // rogue applications cannot degrade the cluster.
    const util::WriteLock lock(mutex_);
    if (auto proc = live_process(pid); proc.ok()) {
      proc.value()->status = ProcessStatus::kKilled;
      proc.value()->exit_reason = status.error().detail;
    }
  }
  return status;
}

}  // namespace w5::os
