// Session management: cookie-token authentication at the front door
// (paper §2: "the provider would read incoming cookies or HTTP data
// fields to authenticate the user").
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::platform {

inline constexpr const char* kSessionCookie = "w5session";

// Thread-safe: one mutex guards the token map, the expiry index and the
// RNG (even validate() writes — it refreshes the sliding expiry — so
// there is no useful read-mostly split). Nothing under the mutex is
// O(sessions): lookups hash, and expired sessions are reclaimed from an
// expiry-ordered index a bounded number at a time.
class SessionManager {
 public:
  SessionManager(const util::Clock& clock, util::Micros ttl_micros,
                 std::uint64_t token_seed = 0x77355735u)
      : clock_(clock), ttl_micros_(ttl_micros), rng_(token_seed) {}

  // Issues a fresh opaque token bound to the user, after reclaiming at
  // most kReclaimPerCreate sessions that expired unvisited.
  std::string create(const std::string& user_id);

  // Returns the user id when the token is live; refreshes the expiry.
  std::optional<std::string> validate(const std::string& token);

  void revoke(const std::string& token);
  void revoke_all(const std::string& user_id);
  // Drops every session (used after a state restore).
  void revoke_all_everything();

  // Sessions held, including ones expired but not yet reclaimed.
  std::size_t live_sessions() const;

  // Each create pops at most this many expired entries off the index, so
  // a burst of sessions expiring together is reclaimed over later
  // creates (a few µs each) rather than in one stall under the mutex.
  // Above one, creates reclaim faster than they add.
  static constexpr int kReclaimPerCreate = 64;

 private:
  struct Session {
    std::string user_id;
    util::Micros expires;
  };
  // (expiry, token) in a min-heap, soonest first. An entry goes stale
  // when its session is revoked (dropped when popped) or refreshed
  // (re-pushed at the new expiry when popped), so validate() never
  // touches the index.
  using Expiry = std::pair<util::Micros, std::string>;

  // Pops up to `limit` expired index entries, reclaiming the sessions
  // that are still expired.
  void reclaim_expired_locked(util::Micros now, int limit)
      W5_REQUIRES(mutex_);

  const util::Clock& clock_;
  util::Micros ttl_micros_;
  mutable util::Mutex mutex_{util::lockrank::kSessionManager,
                              "SessionManager::mutex_"};
  util::Rng rng_ W5_GUARDED_BY(mutex_);
  std::unordered_map<std::string, Session> sessions_ W5_GUARDED_BY(mutex_);
  std::vector<Expiry> expiry_ W5_GUARDED_BY(mutex_);
};

}  // namespace w5::platform
