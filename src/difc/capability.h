// Capabilities (Flume's ownership sets).
//
// t+ lets a process ADD t to its labels (receive t-tagged secrets / drop an
// integrity endorsement); t- lets it REMOVE t (declassify secrecy /
// endorse integrity). Owning both is "dual privilege" — full authority
// over t. The W5 perimeter hands a user's sec(u)- capability only to
// declassifiers the user authorized (paper §3.1).
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "difc/label.h"
#include "difc/tag.h"
#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace w5::difc {

enum class CapSign : std::uint8_t { kPlus, kMinus };

struct Capability {
  Tag tag;
  CapSign sign = CapSign::kPlus;

  friend constexpr auto operator<=>(const Capability&,
                                    const Capability&) = default;
};

constexpr Capability plus(Tag tag) { return {tag, CapSign::kPlus}; }
constexpr Capability minus(Tag tag) { return {tag, CapSign::kMinus}; }

std::string to_string(const Capability& cap);

class CapabilitySet {
 public:
  CapabilitySet() = default;
  CapabilitySet(std::initializer_list<Capability> caps);
  explicit CapabilitySet(std::vector<Capability> caps);

  bool empty() const noexcept { return caps_.empty(); }
  std::size_t size() const noexcept { return caps_.size(); }

  bool has(Capability cap) const;
  bool has_plus(Tag tag) const { return has(plus(tag)); }
  bool has_minus(Tag tag) const { return has(minus(tag)); }
  bool has_dual(Tag tag) const { return has_plus(tag) && has_minus(tag); }

  void add(Capability cap);
  void add_dual(Tag tag);
  void remove(Capability cap);
  void merge(const CapabilitySet& other);

  // True iff every tag in `tags` has the given sign in this set.
  bool covers(const Label& tags, CapSign sign) const;

  // Tags this set can add / remove.
  Label addable() const;
  Label removable() const;

  const std::vector<Capability>& capabilities() const noexcept {
    return caps_;
  }

  std::string to_string() const;

  friend bool operator==(const CapabilitySet&, const CapabilitySet&) = default;

 private:
  std::vector<Capability> caps_;  // sorted, unique
};

// Ô, Flume's global capability set: capabilities every process holds
// without owning them. W5 publishes sec(u)+ for every user, so any app
// may contaminate itself to read user data (DESIGN.md §3.1). Checks look
// it up one tag at a time; nothing merges it into a process's own set.
// Thread-safe: a shared lock of its own, a leaf, so a lookup never waits
// on the kernel's process table; only publishing takes it exclusively.
class GlobalCapabilities {
 public:
  // Which signs of one tag Ô holds: both answered by one lookup.
  struct Held {
    bool plus = false;
    bool minus = false;
  };
  Held held(Tag tag) const;
  bool has(Capability cap) const;

  void add(Capability cap);
  void clear();
  CapabilitySet snapshot() const;

 private:
  mutable util::SharedMutex mutex_{util::lockrank::kGlobalCapabilities,
                                   "GlobalCapabilities::mutex_"};
  CapabilitySet caps_ W5_GUARDED_BY(mutex_);
};

}  // namespace w5::difc
