// The W5 kernel: trusted reference monitor for tags, processes, and
// capability movement (DESIGN.md §3.1, after Flume's reference monitor).
//
// Everything developer code can do flows through a Kernel method taking
// the caller's Pid; the kernel checks the process's own label state and
// looks up the global capability set Ô per tag (capabilities every
// process holds — e.g. t+ for user secrecy tags, so any app may
// *contaminate itself* to read user data, while t- stays with
// declassifiers). The kernel pid's authority is a flag, not a set.
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "difc/capability.h"
#include "difc/label_state.h"
#include "difc/tag_registry.h"
#include "os/process.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::os {

class Kernel {
 public:
  Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  difc::TagRegistry& tags() noexcept { return tags_; }
  const difc::TagRegistry& tags() const noexcept { return tags_; }

  // --- Global capability set Ô -------------------------------------------
  difc::CapabilitySet global_caps() const { return global_caps_.snapshot(); }
  void add_global_capability(difc::Capability cap);
  // Snapshot restore only: tag ids are reused across restores, so stale
  // global capabilities from the pre-restore world could silently grant
  // t+ for a *different* tag that now wears the same id. Restore clears
  // the set, then re-publishes from the restored accounts.
  void clear_global_capabilities();

  // --- Process lifecycle ---------------------------------------------------
  // Trusted spawn: only callable with parent == kKernelPid semantics (the
  // provider's own code); no capability checks on the initial state.
  // Thread-safety: the kernel is shared by every request worker. The
  // process table takes a shared_mutex — exclusive for any mutation
  // (spawn/kill/exit/reap, label changes, capability moves), shared for
  // lookups. Ô has a leaf lock of its own (GlobalCapabilities), so its
  // lookups never wait on the table. Process* returned by find() stays
  // valid until reap() (the table is node-based); a process's fields are
  // only ever written under the exclusive lock, so cross-thread readers
  // holding the shared lock are safe. Lock order: callers may hold a
  // store-shard or filesystem lock when entering the kernel; the kernel
  // itself only acquires container, tag-registry and Ô locks — never a
  // caller's.
  Pid spawn_trusted(std::string name, difc::LabelState initial,
                    ResourceContainer* container = nullptr);

  // App-initiated spawn (paper: apps may invoke other modules). The child
  // may receive only capabilities the parent owns or Ô holds, and its
  // initial labels must be reachable from the parent's labels under the
  // parent's authority — otherwise spawn would be a label-laundering
  // primitive.
  util::Result<Pid> spawn(Pid parent, std::string name,
                          const difc::LabelState& initial,
                          ResourceContainer* container = nullptr);

  Process* find(Pid pid);
  const Process* find(Pid pid) const;
  util::Status kill(Pid pid, std::string reason);
  util::Status exit(Pid pid);
  // Removes a process-table entry once the process is no longer running
  // (per-request processes would otherwise accumulate without bound).
  void reap(Pid pid);
  std::size_t live_process_count() const;
  std::size_t process_table_size() const;

  // --- Labels and capabilities --------------------------------------------
  // The view every check runs against: the kernel pid's flag, or a copy
  // of the live process's own (S, I, O) with Ô looked up per tag. O(|O|),
  // never O(users) or O(tags).
  util::Result<difc::Authority> authority(Pid pid) const;

  // Label changes under the process's own capabilities and Ô; each is
  // one check-and-set under the exclusive lock.
  util::Status set_secrecy(Pid pid, const difc::Label& to);
  util::Status raise_secrecy(Pid pid, const difc::Label& tags);
  util::Status set_integrity(Pid pid, const difc::Label& to);

  // Mints a fresh tag; the creating process receives dual privilege
  // (Flume: create_tag grants t+ and t- to the creator).
  util::Result<difc::Tag> create_tag(Pid creator, std::string name,
                                     difc::TagPurpose purpose);

  // Capability transfer from → to; `from` must hold the capability
  // (globals cannot be re-granted — they are already universal).
  util::Status grant(Pid from, Pid to, difc::Capability cap);

  // Irrevocably drop a capability (a declassifier shedding privilege).
  util::Status drop_capability(Pid pid, difc::Capability cap);

  // Charge the process's resource container (no-op without a container).
  util::Status charge(Pid pid, Resource r, std::int64_t amount);

 private:
  // Callers must hold mutex_ (shared suffices for lookup).
  util::Result<Process*> live_process(Pid pid) W5_REQUIRES_SHARED(mutex_);
  util::Result<const Process*> live_process(Pid pid) const
      W5_REQUIRES_SHARED(mutex_);

  mutable util::SharedMutex mutex_{util::lockrank::kKernel, "Kernel::mutex_"};
  difc::TagRegistry tags_;  // internally synchronized
  difc::GlobalCapabilities global_caps_;  // internally synchronized
  std::unordered_map<Pid, Process> processes_ W5_GUARDED_BY(mutex_);
  Pid next_pid_ W5_GUARDED_BY(mutex_) = 1;
};

}  // namespace w5::os
