// Labeled filesystem (paper §2: the platform tracks data "to and from
// persistent storage"; §3.1: "all user data on a W5 cluster is by default
// write-protected").
//
// A hierarchical tree of directories and files, each carrying
// ObjectLabels. Reads and writes are checked against the caller's
// authority (difc::Authority, the same rules as the labeled store);
// directory listings are filtered to the caller's clearance so file
// *names* cannot become a covert channel.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "difc/flow.h"
#include "os/kernel.h"
#include "util/json.h"
#include "util/mutation_log.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::os {

enum class AutoRaise : std::uint8_t { kNo, kYes };

struct FileStat {
  bool is_directory = false;
  std::size_t size = 0;
  difc::ObjectLabels labels;
};

// Thread-safe: one coarse shared_mutex over the tree — shared for
// read/list/stat/to_json, exclusive for anything that changes structure,
// content, or labels. The tree is small and traversals are cheap; request
// parallelism comes from the sharded LabeledStore, not the filesystem.
// Lock order: filesystem → kernel (FileSystem methods call the kernel for
// label checks and charges while holding the tree lock; the kernel never
// calls back into the filesystem).
class FileSystem {
 public:
  explicit FileSystem(Kernel& kernel);

  FileSystem(const FileSystem&) = delete;
  FileSystem& operator=(const FileSystem&) = delete;

  // Creates a directory (parents must exist). Requires write permission
  // on the parent and a label the creator could legally stamp.
  util::Status mkdir(Pid pid, const std::string& path,
                     const difc::ObjectLabels& labels);

  // Creates a file with explicit labels. The creator's secrecy must fit
  // inside the file's label (no leaking into content) and the requested
  // integrity must be endorsable by the creator.
  util::Status create(Pid pid, const std::string& path,
                      const difc::ObjectLabels& labels,
                      std::string content = {});

  // Reads; with AutoRaise::kYes the kernel raises the caller's secrecy to
  // admit the file when it can (the common W5 app pattern: touch user
  // data, get contaminated).
  util::Result<std::string> read(Pid pid, const std::string& path,
                                 AutoRaise raise = AutoRaise::kNo);

  // Overwrites; write-protection (integrity) and no-leak (secrecy) rules.
  util::Status write(Pid pid, const std::string& path, std::string content);

  util::Status append(Pid pid, const std::string& path,
                      const std::string& content);

  // Deletion obeys the same write rule — vandalism is a write (§3.1).
  util::Status unlink(Pid pid, const std::string& path);

  // Entries whose secrecy exceeds the caller's *clearance* are invisible,
  // not errors: their existence must not leak.
  util::Result<std::vector<std::string>> list(Pid pid,
                                              const std::string& path);

  util::Result<FileStat> stat(Pid pid, const std::string& path);

  // Re-labels a file; caller needs dual authority over the delta plus
  // write permission (used by the provider's own tools).
  util::Status relabel(Pid pid, const std::string& path,
                       const difc::ObjectLabels& labels);

  // Snapshot persistence: labels travel with data (paper §1 "policies ...
  // attached to their data").
  util::Json to_json() const;
  util::Status load_json(const util::Json& snapshot);

  // ---- Durability (DESIGN.md §13) -------------------------------------------
  // With a log attached, every successful mutation publishes an fs.put
  // (full node post-state: path, kind, labels, content) or fs.remove op
  // before returning. Full state per op keeps replay idempotent.
  void set_mutation_log(util::MutationLog* log) { mutation_log_ = log; }

  // TRUSTED replay apply: reinstates the logged post-state without flow
  // checks or charges (the original mutation already paid them).
  util::Status apply_wal(const util::Json& op);

 private:
  struct Node {
    bool is_directory = false;
    difc::ObjectLabels labels;
    std::string content;                           // files only
    std::map<std::string, std::unique_ptr<Node>> children;  // dirs only
  };

  // Callers must hold mutex_ (shared suffices for resolve).
  util::Result<Node*> resolve(const std::string& path)
      W5_REQUIRES_SHARED(mutex_);
  util::Result<Node*> resolve_parent(const std::string& path,
                                     std::string* leaf)
      W5_REQUIRES_SHARED(mutex_);
  util::Result<difc::Authority> caller(Pid pid) const;

  static util::Json node_to_json(const Node& node);
  static util::Result<std::unique_ptr<Node>> node_from_json(
      const util::Json& j);

  // Enqueue an op while holding mutex_ exclusively (sequence order must
  // match lock order); return 0 when no log is attached. The caller
  // releases the lock and then waits on the returned sequence.
  std::uint64_t log_put_locked(const std::string& path, const Node& node)
      W5_REQUIRES(mutex_);
  std::uint64_t log_remove_locked(const std::string& path)
      W5_REQUIRES(mutex_);

  Kernel& kernel_;
  mutable util::SharedMutex mutex_{util::lockrank::kFileSystem,
                                    "FileSystem::mutex_"};
  std::unique_ptr<Node> root_ W5_GUARDED_BY(mutex_);
  util::MutationLog* mutation_log_ = nullptr;  // set once at wiring time
};

}  // namespace w5::os
