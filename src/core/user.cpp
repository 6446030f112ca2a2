#include "core/user.h"

#include <mutex>

#include "util/bytes.h"
#include "util/log.h"
#include "util/sha256.h"

namespace w5::platform {

std::string hash_password(const std::string& salt,
                          const std::string& password) {
  std::string digest = util::sha256_raw(salt + "\x00" + password);
  // Iterated to make brute force costlier; fixed small count keeps tests
  // fast while preserving the structure.
  for (int i = 0; i < 1000; ++i) digest = util::sha256_raw(digest);
  return util::hex_encode(digest);
}

// Nothing reads a front-end process's name (it would only own a tag the
// process minted, and these mint none), so every one shares a constant.
ActingUser::ActingUser(os::Kernel& kernel, const UserAccount& account)
    : kernel_(kernel),
      pid_(kernel.spawn_trusted(
          "frontend",
          difc::LabelState({account.secrecy_tag}, {account.write_tag},
                           difc::CapabilitySet{
                               difc::plus(account.read_tag)}))) {}

ActingUser::~ActingUser() {
  (void)kernel_.exit(pid_);
  kernel_.reap(pid_);
}

namespace {

bool valid_user_id(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

util::Result<const UserAccount*> UserDirectory::create(
    const std::string& id, const std::string& display_name,
    const std::string& password) {
  if (!valid_user_id(id)) {
    return util::make_error("user.invalid",
                            "user id must be [a-z0-9_-]{1,64}: '" + id + "'");
  }
  if (password.size() < 3)
    return util::make_error("user.invalid", "password too short");
  UserAccount account;
  // Deterministic salt derivation keeps tests reproducible while still
  // yielding a distinct salt per user. Neither reads the directory, so the
  // iterated hash runs before the lock that every lookup shares.
  account.password_salt = util::sha256_hex("salt:" + id).substr(0, 16);
  account.password_hash = hash_password(account.password_salt, password);

  util::WriteLock lock(mutex_);
  if (users_.contains(id))
    return util::make_error("user.exists", "user '" + id + "' already exists");

  account.id = id;
  account.display_name = display_name.empty() ? id : display_name;
  account.secrecy_tag =
      kernel_.create_tag(os::kKernelPid, "sec(" + id + ")",
                         difc::TagPurpose::kSecrecy).value();
  account.write_tag =
      kernel_.create_tag(os::kKernelPid, "wp(" + id + ")",
                         difc::TagPurpose::kIntegrity).value();
  account.read_tag =
      kernel_.create_tag(os::kKernelPid, "rp(" + id + ")",
                         difc::TagPurpose::kReadProtect).value();

  // Boilerplate policy plumbing: anyone may raise to sec(u) (and thus
  // read-and-be-contaminated); nobody may lower without a declassifier.
  // rp(u)+ is deliberately NOT global.
  kernel_.add_global_capability(difc::plus(account.secrecy_tag));

  tag_owner_[account.secrecy_tag] = id;
  tag_owner_[account.write_tag] = id;
  tag_owner_[account.read_tag] = id;
  const auto [it, inserted] = users_.emplace(id, std::move(account));
  (void)inserted;
  std::uint64_t seq = 0;
  if (mutation_log_ != nullptr) {
    const UserAccount& placed = it->second;
    util::Json op;
    op["op"] = "user.create";
    op["id"] = placed.id;
    op["display_name"] = placed.display_name;
    op["sec"] = placed.secrecy_tag.id();
    op["wp"] = placed.write_tag.id();
    op["rp"] = placed.read_tag.id();
    op["salt"] = placed.password_salt;
    op["hash"] = placed.password_hash;
    seq = mutation_log_->log(op);
  }
  lock.unlock();
  if (mutation_log_ != nullptr) {
    if (auto durable = mutation_log_->wait_durable(seq); !durable.ok())
      util::log_warn("user directory: create not durable: ",
                     durable.error().detail);
  }
  return &it->second;
}

const UserAccount* UserDirectory::find(const std::string& id) const {
  const util::ReadLock lock(mutex_);
  const auto it = users_.find(id);
  return it == users_.end() ? nullptr : &it->second;
}

bool UserDirectory::remove(const std::string& id) {
  util::WriteLock lock(mutex_);
  const auto it = users_.find(id);
  if (it == users_.end()) return false;
  tag_owner_.erase(it->second.secrecy_tag);
  tag_owner_.erase(it->second.write_tag);
  tag_owner_.erase(it->second.read_tag);
  users_.erase(it);
  std::uint64_t seq = 0;
  if (mutation_log_ != nullptr) {
    util::Json op;
    op["op"] = "user.remove";
    op["id"] = id;
    seq = mutation_log_->log(op);
  }
  lock.unlock();
  if (mutation_log_ != nullptr) {
    if (auto durable = mutation_log_->wait_durable(seq); !durable.ok())
      util::log_warn("user directory: remove not durable: ",
                     durable.error().detail);
  }
  return true;
}

bool UserDirectory::verify_password(const std::string& id,
                                    const std::string& password) const {
  const UserAccount* account = find(id);
  // Hash regardless, so absent users cost the same as wrong passwords.
  const std::string computed = hash_password(
      account != nullptr ? account->password_salt : "missing", password);
  if (account == nullptr) return false;
  // Constant-time comparison.
  if (computed.size() != account->password_hash.size()) return false;
  unsigned char diff = 0;
  for (std::size_t i = 0; i < computed.size(); ++i)
    diff |= static_cast<unsigned char>(computed[i] ^
                                       account->password_hash[i]);
  return diff == 0;
}

const UserAccount* UserDirectory::owner_of_tag(difc::Tag tag) const {
  const util::ReadLock lock(mutex_);
  const auto tag_it = tag_owner_.find(tag);
  if (tag_it == tag_owner_.end()) return nullptr;
  const auto it = users_.find(tag_it->second);
  return it == users_.end() ? nullptr : &it->second;
}

util::Json UserDirectory::to_json() const {
  const util::ReadLock lock(mutex_);
  util::Json accounts = util::Json::array();
  for (const auto& [id, account] : users_) {
    util::Json entry;
    entry["id"] = account.id;
    entry["display_name"] = account.display_name;
    entry["sec"] = account.secrecy_tag.id();
    entry["wp"] = account.write_tag.id();
    entry["rp"] = account.read_tag.id();
    entry["salt"] = account.password_salt;
    entry["hash"] = account.password_hash;
    accounts.push_back(std::move(entry));
  }
  util::Json out;
  out["accounts"] = std::move(accounts);
  return out;
}

util::Status UserDirectory::load_json(const util::Json& snapshot) {
  if (!snapshot.at("accounts").is_array())
    return util::make_error("user.parse", "missing accounts array");
  std::map<std::string, UserAccount> users;
  std::map<difc::Tag, std::string> tag_owner;
  for (const auto& entry : snapshot.at("accounts").as_array()) {
    UserAccount account;
    account.id = entry.at("id").as_string();
    account.display_name = entry.at("display_name").as_string();
    account.secrecy_tag =
        difc::Tag(static_cast<std::uint64_t>(entry.at("sec").as_int()));
    account.write_tag =
        difc::Tag(static_cast<std::uint64_t>(entry.at("wp").as_int()));
    account.read_tag =
        difc::Tag(static_cast<std::uint64_t>(entry.at("rp").as_int()));
    account.password_salt = entry.at("salt").as_string();
    account.password_hash = entry.at("hash").as_string();
    if (account.id.empty() || !account.secrecy_tag.valid() ||
        !account.write_tag.valid() || !account.read_tag.valid() ||
        account.password_hash.empty()) {
      return util::make_error("user.parse", "malformed account entry");
    }
    if (users.contains(account.id))
      return util::make_error("user.parse", "duplicate account id");
    tag_owner[account.secrecy_tag] = account.id;
    tag_owner[account.write_tag] = account.id;
    tag_owner[account.read_tag] = account.id;
    // Re-publish the global raise capability for each restored user.
    kernel_.add_global_capability(difc::plus(account.secrecy_tag));
    users.emplace(account.id, std::move(account));
  }
  util::WriteLock lock(mutex_);
  users_ = std::move(users);
  tag_owner_ = std::move(tag_owner);
  return util::ok_status();
}

util::Status UserDirectory::apply_wal(const util::Json& op) {
  const std::string& kind = op.at("op").as_string();
  if (kind == "user.create") {
    UserAccount account;
    account.id = op.at("id").as_string();
    account.display_name = op.at("display_name").as_string();
    account.secrecy_tag =
        difc::Tag(static_cast<std::uint64_t>(op.at("sec").as_int()));
    account.write_tag =
        difc::Tag(static_cast<std::uint64_t>(op.at("wp").as_int()));
    account.read_tag =
        difc::Tag(static_cast<std::uint64_t>(op.at("rp").as_int()));
    account.password_salt = op.at("salt").as_string();
    account.password_hash = op.at("hash").as_string();
    if (account.id.empty() || !account.secrecy_tag.valid() ||
        !account.write_tag.valid() || !account.read_tag.valid()) {
      return util::make_error("wal.replay", "malformed user.create op");
    }
    // Same boilerplate the original signup published.
    kernel_.add_global_capability(difc::plus(account.secrecy_tag));
    util::WriteLock lock(mutex_);
    tag_owner_[account.secrecy_tag] = account.id;
    tag_owner_[account.write_tag] = account.id;
    tag_owner_[account.read_tag] = account.id;
    users_.insert_or_assign(account.id, std::move(account));
    return util::ok_status();
  }
  if (kind == "user.remove") {
    util::WriteLock lock(mutex_);
    const auto it = users_.find(op.at("id").as_string());
    if (it == users_.end()) return util::ok_status();  // idempotent
    tag_owner_.erase(it->second.secrecy_tag);
    tag_owner_.erase(it->second.write_tag);
    tag_owner_.erase(it->second.read_tag);
    users_.erase(it);
    return util::ok_status();
  }
  return util::make_error("wal.replay", "unknown user op '" + kind + "'");
}

std::vector<std::string> UserDirectory::user_ids() const {
  const util::ReadLock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(users_.size());
  for (const auto& [id, account] : users_) out.push_back(id);
  return out;
}

std::size_t UserDirectory::size() const {
  const util::ReadLock lock(mutex_);
  return users_.size();
}

}  // namespace w5::platform
