#include "core/auth.h"

#include <algorithm>
#include <functional>

#include "util/bytes.h"
#include "util/sha256.h"

namespace w5::platform {

void SessionManager::reclaim_expired_locked(util::Micros now, int limit) {
  while (limit-- > 0 && !expiry_.empty() && expiry_.front().first <= now) {
    std::pop_heap(expiry_.begin(), expiry_.end(), std::greater<>());
    Expiry& entry = expiry_.back();
    const auto it = sessions_.find(entry.second);
    if (it != sessions_.end() && it->second.expires > now) {
      // Refreshed by validate() since this entry was pushed.
      entry.first = it->second.expires;
      std::push_heap(expiry_.begin(), expiry_.end(), std::greater<>());
      continue;
    }
    if (it != sessions_.end()) sessions_.erase(it);
    expiry_.pop_back();  // else revoked, or expired on access
  }
}

std::string SessionManager::create(const std::string& user_id) {
  const util::MutexLock lock(mutex_);
  // Housekeeping: drop tokens that expired without ever being revisited,
  // so abandoned sessions cannot accumulate.
  const util::Micros now = clock_.now();
  reclaim_expired_locked(now, kReclaimPerCreate);
  // 32 random bytes, hashed so the RNG stream is not directly exposed,
  // base64url for cookie safety.
  const std::string raw = rng_.next_bytes(32);
  std::string token = util::base64url_encode(util::sha256_raw(raw + user_id));
  const util::Micros expires = now + ttl_micros_;
  sessions_[token] = Session{user_id, expires};
  expiry_.emplace_back(expires, token);
  std::push_heap(expiry_.begin(), expiry_.end(), std::greater<>());
  return token;
}

std::optional<std::string> SessionManager::validate(const std::string& token) {
  const util::MutexLock lock(mutex_);
  const auto it = sessions_.find(token);
  if (it == sessions_.end()) return std::nullopt;
  if (clock_.now() >= it->second.expires) {
    sessions_.erase(it);
    return std::nullopt;
  }
  it->second.expires = clock_.now() + ttl_micros_;  // sliding expiry
  return it->second.user_id;
}

void SessionManager::revoke(const std::string& token) {
  const util::MutexLock lock(mutex_);
  sessions_.erase(token);
}

void SessionManager::revoke_all(const std::string& user_id) {
  const util::MutexLock lock(mutex_);
  std::erase_if(sessions_, [&](const auto& entry) {
    return entry.second.user_id == user_id;
  });
}

void SessionManager::revoke_all_everything() {
  const util::MutexLock lock(mutex_);
  sessions_.clear();
  expiry_.clear();
}

std::size_t SessionManager::live_sessions() const {
  const util::MutexLock lock(mutex_);
  return sessions_.size();
}

}  // namespace w5::platform
