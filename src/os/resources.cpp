#include "os/resources.h"

namespace w5::os {

std::string to_string(Resource r) {
  switch (r) {
    case Resource::kCpu:
      return "cpu";
    case Resource::kMemory:
      return "memory";
    case Resource::kDisk:
      return "disk";
    case Resource::kNetwork:
      return "network";
  }
  return "unknown";
}

std::int64_t& ResourceVector::operator[](Resource r) {
  switch (r) {
    case Resource::kCpu:
      return cpu_ticks;
    case Resource::kMemory:
      return memory_bytes;
    case Resource::kDisk:
      return disk_bytes;
    case Resource::kNetwork:
      return network_bytes;
  }
  return cpu_ticks;
}

std::int64_t ResourceVector::operator[](Resource r) const {
  return const_cast<ResourceVector&>(*this)[r];
}

ResourceContainer::ResourceContainer(std::string name, ResourceVector limits,
                                     ResourceContainer* parent)
    : name_(std::move(name)), limits_(limits), parent_(parent) {}

util::Mutex& ResourceContainer::tree_mutex() const {
  const ResourceContainer* root = this;
  while (root->parent_ != nullptr) root = root->parent_;
  return root->mutex_;
}

ResourceVector ResourceContainer::usage() const {
  const util::MutexLock lock(tree_mutex());
  return usage_;
}

bool ResourceContainer::would_exceed(Resource r, std::int64_t amount) const {
  const std::int64_t limit = limits_[r];
  return limit != kUnlimited && usage_[r] + amount > limit;
}

util::Status ResourceContainer::charge(Resource r, std::int64_t amount) {
  const util::MutexLock lock(tree_mutex());
  // Validate the whole ancestor chain before mutating any usage counter.
  for (const ResourceContainer* c = this; c != nullptr; c = c->parent_) {
    if (c->would_exceed(r, amount)) {
      return util::make_error(
          "quota.exceeded", to_string(r) + " quota exhausted in container '" +
                                c->name_ + "' (limit " +
                                std::to_string(c->limits_[r]) + ")");
    }
  }
  for (ResourceContainer* c = this; c != nullptr; c = c->parent_)
    c->usage_[r] += amount;
  return util::ok_status();
}

void ResourceContainer::release(Resource r, std::int64_t amount) {
  const util::MutexLock lock(tree_mutex());
  for (ResourceContainer* c = this; c != nullptr; c = c->parent_) {
    c->usage_[r] -= amount;
    if (c->usage_[r] < 0) c->usage_[r] = 0;
  }
}

bool ResourceContainer::exhausted(Resource r) const {
  const util::MutexLock lock(tree_mutex());
  for (const ResourceContainer* c = this; c != nullptr; c = c->parent_) {
    if (c->limits_[r] != kUnlimited && c->usage_[r] >= c->limits_[r])
      return true;
  }
  return false;
}

std::int64_t ResourceContainer::remaining(Resource r) const {
  const util::MutexLock lock(tree_mutex());
  std::int64_t best = kUnlimited;
  for (const ResourceContainer* c = this; c != nullptr; c = c->parent_) {
    if (c->limits_[r] == kUnlimited) continue;
    const std::int64_t headroom = c->limits_[r] - c->usage_[r];
    if (best == kUnlimited || headroom < best)
      best = headroom < 0 ? 0 : headroom;
  }
  return best;
}

}  // namespace w5::os
