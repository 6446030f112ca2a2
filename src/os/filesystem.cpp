#include "os/filesystem.h"

#include <mutex>

#include "difc/codec.h"
#include "util/strings.h"

namespace w5::os {

FileSystem::FileSystem(Kernel& kernel)
    : kernel_(kernel), root_(std::make_unique<Node>()) {
  root_->is_directory = true;  // public, unendorsed root
}

util::Result<difc::Authority> FileSystem::caller(Pid pid) const {
  return kernel_.authority(pid);
}

util::Result<FileSystem::Node*> FileSystem::resolve(const std::string& path) {
  Node* node = root_.get();
  for (const auto& part : util::split_nonempty(path, '/')) {
    if (!node->is_directory)
      return util::make_error("fs.not_found", path + ": not a directory");
    const auto it = node->children.find(part);
    if (it == node->children.end())
      return util::make_error("fs.not_found", path + ": no such entry");
    node = it->second.get();
  }
  return node;
}

util::Result<FileSystem::Node*> FileSystem::resolve_parent(
    const std::string& path, std::string* leaf) {
  auto parts = util::split_nonempty(path, '/');
  if (parts.empty())
    return util::make_error("fs.invalid", "cannot operate on root");
  *leaf = parts.back();
  parts.pop_back();
  Node* node = root_.get();
  for (const auto& part : parts) {
    if (!node->is_directory)
      return util::make_error("fs.not_found", path + ": not a directory");
    const auto it = node->children.find(part);
    if (it == node->children.end())
      return util::make_error("fs.not_found", path + ": missing parent");
    node = it->second.get();
  }
  if (!node->is_directory)
    return util::make_error("fs.not_found", path + ": parent not a directory");
  return node;
}

util::Status FileSystem::mkdir(Pid pid, const std::string& path,
                               const difc::ObjectLabels& labels) {
  util::WriteLock lock(mutex_);
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  std::string leaf;
  auto parent = resolve_parent(path, &leaf);
  if (!parent.ok()) return parent.error();
  if (parent.value()->children.contains(leaf))
    return util::make_error("fs.exists", path + ": already exists");
  if (auto status = who.value().check_write(parent.value()->labels);
      !status.ok()) {
    return status;
  }
  // Stamping the new node's labels is writing them.
  if (auto status = who.value().check_write(labels); !status.ok())
    return status;
  auto node = std::make_unique<Node>();
  node->is_directory = true;
  node->labels = labels;
  const Node* placed = node.get();
  parent.value()->children.emplace(leaf, std::move(node));
  const std::uint64_t seq = log_put_locked(path, *placed);
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Status FileSystem::create(Pid pid, const std::string& path,
                                const difc::ObjectLabels& labels,
                                std::string content) {
  util::WriteLock lock(mutex_);
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  std::string leaf;
  auto parent = resolve_parent(path, &leaf);
  if (!parent.ok()) return parent.error();
  if (parent.value()->children.contains(leaf))
    return util::make_error("fs.exists", path + ": already exists");
  if (auto status = who.value().check_write(parent.value()->labels);
      !status.ok()) {
    return status;
  }
  // Stamping the new node's labels is writing them.
  if (auto status = who.value().check_write(labels); !status.ok())
    return status;
  if (auto charged = kernel_.charge(pid, Resource::kDisk,
                                    static_cast<std::int64_t>(content.size()));
      !charged.ok()) {
    return charged;
  }
  auto node = std::make_unique<Node>();
  node->is_directory = false;
  node->labels = labels;
  node->content = std::move(content);
  const Node* placed = node.get();
  parent.value()->children.emplace(leaf, std::move(node));
  const std::uint64_t seq = log_put_locked(path, *placed);
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Result<std::string> FileSystem::read(Pid pid, const std::string& path,
                                           AutoRaise raise) {
  const util::ReadLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  if (node.value()->is_directory)
    return util::make_error("fs.invalid", path + ": is a directory");
  auto who = caller(pid);
  if (!who.ok()) return who.error();

  if (raise == AutoRaise::kYes &&
      !node.value()->labels.secrecy.subset_of(who.value().secrecy())) {
    if (auto raised =
            kernel_.raise_secrecy(pid, node.value()->labels.secrecy);
        !raised.ok()) {
      return raised.error();
    }
    who = caller(pid);
    if (!who.ok()) return who.error();
  }
  if (auto status = who.value().check_read(node.value()->labels);
      !status.ok()) {
    return status.error();
  }
  return node.value()->content;
}

util::Status FileSystem::write(Pid pid, const std::string& path,
                               std::string content) {
  util::WriteLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  if (node.value()->is_directory)
    return util::make_error("fs.invalid", path + ": is a directory");
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  if (auto status = who.value().check_write(node.value()->labels);
      !status.ok()) {
    return status;
  }
  const auto delta = static_cast<std::int64_t>(content.size()) -
                     static_cast<std::int64_t>(node.value()->content.size());
  if (delta > 0) {
    if (auto charged = kernel_.charge(pid, Resource::kDisk, delta);
        !charged.ok()) {
      return charged;
    }
  }
  node.value()->content = std::move(content);
  const std::uint64_t seq = log_put_locked(path, *node.value());
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Status FileSystem::append(Pid pid, const std::string& path,
                                const std::string& content) {
  util::WriteLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  if (node.value()->is_directory)
    return util::make_error("fs.invalid", path + ": is a directory");
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  if (auto status = who.value().check_write(node.value()->labels);
      !status.ok()) {
    return status;
  }
  if (auto charged = kernel_.charge(pid, Resource::kDisk,
                                    static_cast<std::int64_t>(content.size()));
      !charged.ok()) {
    return charged;
  }
  node.value()->content += content;
  const std::uint64_t seq = log_put_locked(path, *node.value());
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Status FileSystem::unlink(Pid pid, const std::string& path) {
  util::WriteLock lock(mutex_);
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  std::string leaf;
  auto parent = resolve_parent(path, &leaf);
  if (!parent.ok()) return parent.error();
  const auto it = parent.value()->children.find(leaf);
  if (it == parent.value()->children.end())
    return util::make_error("fs.not_found", path + ": no such entry");
  // Deleting is a write to both the entry and its parent directory.
  if (auto status = who.value().check_write(parent.value()->labels);
      !status.ok()) {
    return status;
  }
  if (auto status = who.value().check_write(it->second->labels);
      !status.ok()) {
    return status;
  }
  if (it->second->is_directory && !it->second->children.empty())
    return util::make_error("fs.not_empty", path + ": directory not empty");
  parent.value()->children.erase(it);
  const std::uint64_t seq = log_remove_locked(path);
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Result<std::vector<std::string>> FileSystem::list(
    Pid pid, const std::string& path) {
  const util::ReadLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  if (!node.value()->is_directory)
    return util::make_error("fs.invalid", path + ": not a directory");
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  if (auto status = who.value().check_read(node.value()->labels);
      !status.ok()) {
    return status.error();
  }
  std::vector<std::string> names;
  for (const auto& [name, child] : node.value()->children) {
    // Invisible rather than denied: existence must not leak (§3.5).
    if (who.value().can_see(child->labels.secrecy)) names.push_back(name);
  }
  return names;
}

util::Result<FileStat> FileSystem::stat(Pid pid, const std::string& path) {
  const util::ReadLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  // Stat reveals existence + size: same visibility rule as list().
  if (!who.value().can_see(node.value()->labels.secrecy)) {
    return util::make_error("fs.not_found", path + ": no such entry");
  }
  return FileStat{node.value()->is_directory, node.value()->content.size(),
                  node.value()->labels};
}

util::Status FileSystem::relabel(Pid pid, const std::string& path,
                                 const difc::ObjectLabels& labels) {
  util::WriteLock lock(mutex_);
  auto node = resolve(path);
  if (!node.ok()) return node.error();
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  if (auto status = who.value().check_write(node.value()->labels);
      !status.ok()) {
    return status;
  }
  // Relabeling is a declassification/endorsement: the caller must be able
  // to make both deltas as if they were label changes of its own.
  if (!who.value().change_is_safe(node.value()->labels.secrecy,
                                  labels.secrecy) ||
      !who.value().change_is_safe(node.value()->labels.integrity,
                                  labels.integrity)) {
    return util::make_error("flow.denied",
                            "relabel: insufficient authority over delta");
  }
  node.value()->labels = labels;
  const std::uint64_t seq = log_put_locked(path, *node.value());
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Json FileSystem::node_to_json(const Node& node) {
  util::Json out;
  out["dir"] = node.is_directory;
  out["labels"] = difc::object_labels_to_json(node.labels);
  if (node.is_directory) {
    util::Json children;
    children.mutable_object();  // force object type even when empty
    for (const auto& [name, child] : node.children)
      children[name] = node_to_json(*child);
    out["children"] = std::move(children);
  } else {
    out["content"] = node.content;
  }
  return out;
}

util::Result<std::unique_ptr<FileSystem::Node>> FileSystem::node_from_json(
    const util::Json& j) {
  auto node = std::make_unique<Node>();
  node->is_directory = j.at("dir").as_bool();
  auto labels = difc::object_labels_from_json(j.at("labels"));
  if (!labels.ok()) return labels.error();
  node->labels = std::move(labels).value();
  if (node->is_directory) {
    if (!j.at("children").is_object())
      return util::make_error("fs.parse", "directory missing children");
    for (const auto& [name, child_json] : j.at("children").as_object()) {
      if (name.empty() || name.find('/') != std::string::npos)
        return util::make_error("fs.parse", "illegal entry name");
      auto child = node_from_json(child_json);
      if (!child.ok()) return child.error();
      node->children.emplace(name, std::move(child).value());
    }
  } else {
    node->content = j.at("content").as_string();
  }
  return node;
}

std::uint64_t FileSystem::log_put_locked(const std::string& path,
                                         const Node& node) {
  if (mutation_log_ == nullptr) return 0;
  util::Json op;
  op["op"] = "fs.put";
  op["path"] = path;
  op["dir"] = node.is_directory;
  op["labels"] = difc::object_labels_to_json(node.labels);
  if (!node.is_directory) op["content"] = node.content;
  return mutation_log_->log(op);
}

std::uint64_t FileSystem::log_remove_locked(const std::string& path) {
  if (mutation_log_ == nullptr) return 0;
  util::Json op;
  op["op"] = "fs.remove";
  op["path"] = path;
  return mutation_log_->log(op);
}

util::Status FileSystem::apply_wal(const util::Json& op) {
  const std::string& kind = op.at("op").as_string();
  util::WriteLock lock(mutex_);
  if (kind == "fs.put") {
    const auto parts = util::split_nonempty(op.at("path").as_string(), '/');
    if (parts.empty())
      return util::make_error("wal.replay", "fs.put on root");
    auto labels = difc::object_labels_from_json(op.at("labels"));
    if (!labels.ok()) return labels.error();
    // Replay order normally creates parents before children; missing
    // parents (a snapshot/WAL overlap edge) are conjured as plain
    // directories and fixed up when their own fs.put replays.
    Node* node = root_.get();
    for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
      auto& child = node->children[parts[i]];
      if (child == nullptr) {
        child = std::make_unique<Node>();
        child->is_directory = true;
      }
      if (!child->is_directory)
        return util::make_error("wal.replay",
                                "fs.put through non-directory parent");
      node = child.get();
    }
    auto& leaf = node->children[parts.back()];
    if (leaf == nullptr) leaf = std::make_unique<Node>();
    leaf->is_directory = op.at("dir").as_bool();
    leaf->labels = std::move(labels).value();
    // Directory replays carry no children: mkdir/relabel never touch
    // them, so whatever the tree already holds stays.
    if (!leaf->is_directory) leaf->content = op.at("content").as_string();
    return util::ok_status();
  }
  if (kind == "fs.remove") {
    std::string leaf;
    auto parent = resolve_parent(op.at("path").as_string(), &leaf);
    if (!parent.ok()) return util::ok_status();  // idempotent
    parent.value()->children.erase(leaf);
    return util::ok_status();
  }
  return util::make_error("wal.replay", "unknown fs op '" + kind + "'");
}

util::Json FileSystem::to_json() const {
  const util::ReadLock lock(mutex_);
  return node_to_json(*root_);
}

util::Status FileSystem::load_json(const util::Json& snapshot) {
  // Parse outside the lock; swap in atomically.
  auto root = node_from_json(snapshot);
  if (!root.ok()) return root.error();
  if (!root.value()->is_directory)
    return util::make_error("fs.parse", "root must be a directory");
  util::WriteLock lock(mutex_);
  root_ = std::move(root).value();
  return util::ok_status();
}

}  // namespace w5::os
