// Resource containers (paper §3.5, after Banga/Druschel/Mogul [2]).
//
// Every application on a W5 cluster runs inside a container that caps its
// CPU, memory, disk, and network consumption so a rogue application
// cannot degrade the cluster for everyone else. Containers form a tree:
// charging a request-scoped child also charges the application-scoped
// parent, so per-request *and* aggregate limits both bind.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::os {

enum class Resource : std::uint8_t { kCpu, kMemory, kDisk, kNetwork };

std::string to_string(Resource r);

struct ResourceVector {
  std::int64_t cpu_ticks = 0;
  std::int64_t memory_bytes = 0;
  std::int64_t disk_bytes = 0;
  std::int64_t network_bytes = 0;

  std::int64_t& operator[](Resource r);
  std::int64_t operator[](Resource r) const;

  friend bool operator==(const ResourceVector&,
                         const ResourceVector&) = default;
};

// kUnlimited disables a dimension's cap.
inline constexpr std::int64_t kUnlimited = -1;

// Thread-safe: a charge must validate the whole ancestor chain and then
// mutate it atomically, so the entire tree serializes on one mutex owned
// by the root container (contention is fine: the critical sections are a
// handful of integer compares). Structure (name, limits, parent links) is
// immutable after construction and needs no lock.
class ResourceContainer {
 public:
  ResourceContainer(std::string name, ResourceVector limits,
                    ResourceContainer* parent = nullptr);

  const std::string& name() const noexcept { return name_; }
  ResourceVector usage() const;
  const ResourceVector& limits() const noexcept { return limits_; }

  // Charges this container and every ancestor; fails atomically (no
  // partial charge) with quota.exceeded naming the container that binds.
  util::Status charge(Resource r, std::int64_t amount);

  // Memory is the one dimension that releases (free after a request).
  void release(Resource r, std::int64_t amount);

  bool exhausted(Resource r) const;

  // Headroom before the tightest limit on this container's ancestor
  // chain; kUnlimited when nothing binds.
  std::int64_t remaining(Resource r) const;

 private:
  bool would_exceed(Resource r, std::int64_t amount) const;
  // The root container's mutex. The capability is dynamic (whichever
  // container is the root), so usage_ cannot carry W5_GUARDED_BY — the
  // analysis needs a lexically fixed lock expression. The util::MutexLock
  // guards in resources.cpp still give clang the acquire/release pairing.
  util::Mutex& tree_mutex() const;

  std::string name_;
  ResourceVector limits_;
  ResourceVector usage_;             // guarded by tree_mutex(), dynamically
  ResourceContainer* parent_;  // not owned; parent outlives children
  // Used only on the root container.
  mutable util::Mutex mutex_{util::lockrank::kResourceTree,
                             "ResourceContainer::mutex_"};
};

}  // namespace w5::os
