#include "difc/capability.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

namespace w5::difc {

std::string to_string(const Capability& cap) {
  return difc::to_string(cap.tag) + (cap.sign == CapSign::kPlus ? "+" : "-");
}

CapabilitySet::CapabilitySet(std::initializer_list<Capability> caps)
    : CapabilitySet(std::vector<Capability>(caps)) {}

CapabilitySet::CapabilitySet(std::vector<Capability> caps)
    : caps_(std::move(caps)) {
  std::sort(caps_.begin(), caps_.end());
  caps_.erase(std::unique(caps_.begin(), caps_.end()), caps_.end());
}

bool CapabilitySet::has(Capability cap) const {
  return std::binary_search(caps_.begin(), caps_.end(), cap);
}

void CapabilitySet::add(Capability cap) {
  const auto it = std::lower_bound(caps_.begin(), caps_.end(), cap);
  if (it == caps_.end() || *it != cap) caps_.insert(it, cap);
}

void CapabilitySet::add_dual(Tag tag) {
  add(plus(tag));
  add(minus(tag));
}

void CapabilitySet::remove(Capability cap) {
  const auto it = std::lower_bound(caps_.begin(), caps_.end(), cap);
  if (it != caps_.end() && *it == cap) caps_.erase(it);
}

void CapabilitySet::merge(const CapabilitySet& other) {
  std::vector<Capability> merged;
  merged.reserve(caps_.size() + other.caps_.size());
  std::set_union(caps_.begin(), caps_.end(), other.caps_.begin(),
                 other.caps_.end(), std::back_inserter(merged));
  caps_ = std::move(merged);
}

bool CapabilitySet::covers(const Label& tags, CapSign sign) const {
  return std::all_of(tags.tags().begin(), tags.tags().end(),
                     [&](Tag t) { return has({t, sign}); });
}

Label CapabilitySet::addable() const {
  std::vector<Tag> tags;
  for (const auto& cap : caps_)
    if (cap.sign == CapSign::kPlus) tags.push_back(cap.tag);
  return Label(std::move(tags));
}

Label CapabilitySet::removable() const {
  std::vector<Tag> tags;
  for (const auto& cap : caps_)
    if (cap.sign == CapSign::kMinus) tags.push_back(cap.tag);
  return Label(std::move(tags));
}

GlobalCapabilities::Held GlobalCapabilities::held(Tag tag) const {
  const util::ReadLock lock(mutex_);
  // Capabilities sort by (tag, sign) with + first, so t+ and t- sit side
  // by side: one search finds both.
  const std::vector<Capability>& caps = caps_.capabilities();
  auto it = std::lower_bound(caps.begin(), caps.end(), plus(tag));
  Held out;
  if (it != caps.end() && *it == plus(tag)) {
    out.plus = true;
    ++it;
  }
  out.minus = it != caps.end() && *it == minus(tag);
  return out;
}

bool GlobalCapabilities::has(Capability cap) const {
  const util::ReadLock lock(mutex_);
  return caps_.has(cap);
}

void GlobalCapabilities::add(Capability cap) {
  const util::WriteLock lock(mutex_);
  caps_.add(cap);
}

void GlobalCapabilities::clear() {
  const util::WriteLock lock(mutex_);
  caps_ = CapabilitySet();
}

CapabilitySet GlobalCapabilities::snapshot() const {
  const util::ReadLock lock(mutex_);
  return caps_;
}

std::string CapabilitySet::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < caps_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += difc::to_string(caps_[i]);
  }
  out.push_back('}');
  return out;
}

}  // namespace w5::difc
