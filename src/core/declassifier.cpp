#include "core/declassifier.h"
#include "util/lock_ranks.h"

#include <deque>
#include <mutex>
#include <shared_mutex>

namespace w5::platform {

namespace {

class OwnerOnly final : public Declassifier {
 public:
  std::string name() const override { return "owner-only"; }

  util::Status decide(const ExportRequest& request) override {
    if (!request.viewer.empty() && request.viewer == request.data_owner)
      return util::ok_status();
    return util::make_error("declassify.denied",
                            "owner-only: viewer '" + request.viewer +
                                "' is not owner '" + request.data_owner + "'");
  }
};

class FriendList final : public Declassifier {
 public:
  explicit FriendList(FriendLookup is_friend)
      : is_friend_(std::move(is_friend)) {}

  std::string name() const override { return "friend-list"; }

  util::Status decide(const ExportRequest& request) override {
    if (!request.viewer.empty() && request.viewer == request.data_owner)
      return util::ok_status();
    if (!request.viewer.empty() &&
        is_friend_(request.data_owner, request.viewer)) {
      return util::ok_status();
    }
    // One buffer: a denial should cost no more than an allow.
    std::string detail;
    detail.reserve(40 + request.viewer.size() + request.data_owner.size());
    detail.append("friend-list: '")
        .append(request.viewer)
        .append("' is not a friend of '")
        .append(request.data_owner)
        .append("'");
    return util::make_error("declassify.denied", std::move(detail));
  }

 private:
  FriendLookup is_friend_;
};

class Group final : public Declassifier {
 public:
  Group(std::string group, GroupLookup is_member)
      : group_(std::move(group)), is_member_(std::move(is_member)) {}

  std::string name() const override { return "group:" + group_; }

  util::Status decide(const ExportRequest& request) override {
    if (!request.viewer.empty() && request.viewer == request.data_owner)
      return util::ok_status();
    if (!request.viewer.empty() && is_member_(group_, request.viewer))
      return util::ok_status();
    return util::make_error("declassify.denied",
                            "group: '" + request.viewer + "' not in '" +
                                group_ + "'");
  }

 private:
  std::string group_;
  GroupLookup is_member_;
};

class Public final : public Declassifier {
 public:
  std::string name() const override { return "public"; }
  util::Status decide(const ExportRequest&) override {
    return util::ok_status();
  }
};

class RateLimited final : public Declassifier {
 public:
  RateLimited(std::unique_ptr<Declassifier> inner, const util::Clock& clock,
              std::size_t max_exports, util::Micros window)
      : inner_(std::move(inner)),
        clock_(clock),
        max_exports_(max_exports),
        window_(window) {}

  std::string name() const override {
    return "rate-limited(" + inner_->name() + ")";
  }

  util::Status decide(const ExportRequest& request) override {
    if (auto verdict = inner_->decide(request); !verdict.ok()) return verdict;
    // The sliding window is shared mutable state across request workers.
    const util::MutexLock lock(mutex_);
    auto& history = history_[request.viewer];
    const util::Micros now = clock_.now();
    while (!history.empty() && history.front() + window_ <= now)
      history.pop_front();
    if (history.size() >= max_exports_) {
      return util::make_error(
          "declassify.rate_limited",
          "viewer '" + request.viewer + "' exceeded " +
              std::to_string(max_exports_) + " exports per window");
    }
    history.push_back(now);
    return util::ok_status();
  }

 private:
  std::unique_ptr<Declassifier> inner_;
  const util::Clock& clock_;
  std::size_t max_exports_;
  util::Micros window_;
  util::Mutex mutex_{util::lockrank::kDeclassifierRateWindow,
                     "RateLimited::mutex_"};
  std::map<std::string, std::deque<util::Micros>> history_
      W5_GUARDED_BY(mutex_);
};

class KAggregate final : public Declassifier {
 public:
  explicit KAggregate(std::size_t k) : k_(k) {}

  std::string name() const override {
    return "k-aggregate(" + std::to_string(k_) + ")";
  }

  util::Status decide(const ExportRequest& request) override {
    if (!request.viewer.empty() && request.viewer == request.data_owner)
      return util::ok_status();
    if (request.distinct_owner_count >= k_) return util::ok_status();
    return util::make_error(
        "declassify.denied",
        "k-aggregate: " + std::to_string(request.distinct_owner_count) +
            " owners < k=" + std::to_string(k_));
  }

 private:
  std::size_t k_;
};

}  // namespace

std::unique_ptr<Declassifier> make_owner_only() {
  return std::make_unique<OwnerOnly>();
}

std::unique_ptr<Declassifier> make_friend_list(FriendLookup is_friend) {
  return std::make_unique<FriendList>(std::move(is_friend));
}

std::unique_ptr<Declassifier> make_group(std::string group,
                                         GroupLookup is_member) {
  return std::make_unique<Group>(std::move(group), std::move(is_member));
}

std::unique_ptr<Declassifier> make_public() {
  return std::make_unique<Public>();
}

std::unique_ptr<Declassifier> make_rate_limited(
    std::unique_ptr<Declassifier> inner, const util::Clock& clock,
    std::size_t max_exports, util::Micros window_micros) {
  return std::make_unique<RateLimited>(std::move(inner), clock, max_exports,
                                       window_micros);
}

std::unique_ptr<Declassifier> make_k_aggregate(std::size_t k) {
  return std::make_unique<KAggregate>(k);
}

std::string DeclassifierRegistry::add(
    std::string id, std::unique_ptr<Declassifier> declassifier) {
  const util::WriteLock lock(mutex_);
  declassifiers_[id] = std::move(declassifier);
  return id;
}

Declassifier* DeclassifierRegistry::find(const std::string& id) const {
  const util::ReadLock lock(mutex_);
  const auto it = declassifiers_.find(id);
  return it == declassifiers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> DeclassifierRegistry::ids() const {
  const util::ReadLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [id, declassifier] : declassifiers_) out.push_back(id);
  return out;
}

}  // namespace w5::platform
