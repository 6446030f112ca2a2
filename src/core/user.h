// User accounts and per-user protection state (DESIGN.md §3.2).
//
// On signup the provider mints three tags for the user:
//   sec(u) — secrecy: stamped on all of u's data; t+ is global (any app
//            may contaminate itself to read), t- is escrowed by the
//            perimeter and exercised only through u's declassifiers.
//   wp(u)  — write-protect integrity: u's records demand it; granted to
//            an app only when u delegates write privilege (§3.1).
//   rp(u)  — read-protect: NOT globally raisable; only explicitly
//            granted software can even see rp-labeled data (§3.1
//            "read protection").
#pragma once

#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "difc/tag.h"
#include "util/json.h"
#include "os/kernel.h"
#include "util/mutation_log.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::platform {

struct UserAccount {
  std::string id;            // login name, e.g. "bob"
  std::string display_name;
  difc::Tag secrecy_tag;     // sec(u)
  difc::Tag write_tag;       // wp(u)
  difc::Tag read_tag;        // rp(u)
  std::string password_salt;
  std::string password_hash;  // sha256(salt || password), iterated
};

// The one way trusted front-end code acts for a user (DESIGN.md §3.3): a
// process labeled S = {sec(u)}, I = {wp(u)}, holding rp(u)+. It may
// create u's records, overwrite and delete them, private ones included,
// and write nobody else's. The destructor exits and reaps it.
class ActingUser {
 public:
  ActingUser(os::Kernel& kernel, const UserAccount& account);
  ~ActingUser();

  ActingUser(const ActingUser&) = delete;
  ActingUser& operator=(const ActingUser&) = delete;

  os::Pid pid() const noexcept { return pid_; }

 private:
  os::Kernel& kernel_;
  os::Pid pid_;
};

// Thread-safe: shared_mutex over both maps (signup is rare, lookups are
// per-request). UserAccount* from find()/create() stays valid until
// remove(id) — the map is node-based and account fields are never
// mutated after creation. Lock order: user-directory → kernel (create
// mints tags while holding the directory lock).
class UserDirectory {
 public:
  explicit UserDirectory(os::Kernel& kernel) : kernel_(kernel) {}

  UserDirectory(const UserDirectory&) = delete;
  UserDirectory& operator=(const UserDirectory&) = delete;

  // Creates the account, mints its tags, and publishes the global
  // sec(u)+ capability. Fails on duplicate id or empty credentials.
  util::Result<const UserAccount*> create(const std::string& id,
                                          const std::string& display_name,
                                          const std::string& password);

  const UserAccount* find(const std::string& id) const;

  // Deletes the account; its tags remain registered (data labeled with
  // them may still exist transiently) but no longer resolve to an owner.
  bool remove(const std::string& id);

  // Constant-shape password check (hash always computed).
  bool verify_password(const std::string& id,
                       const std::string& password) const;

  // Reverse lookup: which user owns this secrecy/write/read tag?
  const UserAccount* owner_of_tag(difc::Tag tag) const;

  std::vector<std::string> user_ids() const;
  std::size_t size() const;

  // Persistence: accounts reference tag ids, so restore the TagRegistry
  // (kernel) first.
  util::Json to_json() const;
  util::Status load_json(const util::Json& snapshot);

  // ---- Durability (DESIGN.md §13) -------------------------------------------
  // create()/remove() publish user.create / user.remove ops. The three
  // tag.create ops the kernel mints during create() are logged first (by
  // the registry), so replay re-mints tags before the account references
  // them — same order as the original execution.
  void set_mutation_log(util::MutationLog* log) { mutation_log_ = log; }
  util::Status apply_wal(const util::Json& op);  // TRUSTED replay apply

 private:
  os::Kernel& kernel_;
  mutable util::SharedMutex mutex_{util::lockrank::kUserDirectory,
                                    "UserDirectory::mutex_"};
  // Ordered for determinism.
  std::map<std::string, UserAccount> users_ W5_GUARDED_BY(mutex_);
  std::map<difc::Tag, std::string> tag_owner_ W5_GUARDED_BY(mutex_);
  util::MutationLog* mutation_log_ = nullptr;  // set once at wiring time
};

// Password hashing: salted, iterated SHA-256. (A production provider
// would use a memory-hard KDF; the shape — salt, iteration, constant-time
// compare — is what matters here.)
std::string hash_password(const std::string& salt,
                          const std::string& password);

}  // namespace w5::platform
