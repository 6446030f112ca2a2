// Module registry: developer-contributed code the platform hosts.
//
// The paper's eco-system (§2 "Developers"): developers upload modules
// (closed- or open-source), users pick specific modules and *versions*
// ("I want to use version X.Y of that Web application, not the latest"),
// and any developer can fork another's open-source module and instantly
// offer it to the fork-source's users.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "net/http.h"
#include "os/resources.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::platform {

class AppContext;  // app_context.h

// The entire API surface a module gets is one AppContext&.
using AppHandler = std::function<net::HttpResponse(AppContext&)>;

struct ModuleManifest {
  std::string description;
  bool open_source = false;        // source released → forkable, auditable
  std::string source;              // "source code" when open (fingerprinted)
  std::vector<std::string> imports;  // module ids this module links against
  std::string data_format = "json";  // "json" = conventional; else
                                     // proprietary (anti-social, §3.2)
};

struct Module {
  std::string developer;  // e.g. "devA"
  std::string name;       // e.g. "crop"
  std::string version;    // e.g. "1.0"
  ModuleManifest manifest;
  AppHandler handler;
  std::string fingerprint;  // sha256 of source (or of developer/name/version
                            // for closed modules)
  std::string forked_from;  // module id when created by fork()

  // "developer/name@version", spelled once by the registry when it
  // publishes the module (empty before): the request path names the
  // module several times per request.
  const std::string& id() const noexcept { return id_; }
  std::string path() const { return developer + "/" + name; }

 private:
  friend class ModuleRegistry;
  std::string id_;
};

// Thread-safe: shared_mutex over the version map (uploads/forks are
// rare, resolution is per-request). Module* stays valid for the
// registry's lifetime — versions live in a deque (push_back never moves
// elements) and are never erased.
class ModuleRegistry {
 public:
  ModuleRegistry() = default;

  ModuleRegistry(const ModuleRegistry&) = delete;
  ModuleRegistry& operator=(const ModuleRegistry&) = delete;

  // Registers a module version. Duplicate (developer, name, version) is
  // an error; new versions of the same path accumulate.
  util::Status add(Module module);

  // Resolve by path with optional version; empty version = latest
  // registered (registration order defines "latest").
  const Module* resolve(const std::string& developer, const std::string& name,
                        const std::string& version = {}) const;
  const Module* resolve_id(const std::string& module_id) const;

  // Fork an open-source module under a new developer (paper §2: "any
  // developer ... can customize an existing application by simply
  // 'forking' the existing code"). The fork starts at version 1.0 with
  // the same handler; a replacement handler may be supplied (the fork's
  // customization).
  util::Result<const Module*> fork(const std::string& source_module_id,
                                   const std::string& new_developer,
                                   const std::string& new_name,
                                   AppHandler replacement_handler = nullptr);

  std::vector<const Module*> all() const;
  std::vector<const Module*> versions_of(const std::string& developer,
                                         const std::string& name) const;

  // Per-application resource container (created lazily; §3.5 limits).
  os::ResourceContainer* container_for(const std::string& module_path,
                                       const os::ResourceVector& limits);

 private:
  // Callers must hold mutex_ (exclusive for add_locked).
  util::Status add_locked(Module module) W5_REQUIRES(mutex_);
  const Module* resolve_locked(const std::string& developer,
                               const std::string& name,
                               const std::string& version) const
      W5_REQUIRES_SHARED(mutex_);
  const Module* resolve_id_locked(const std::string& module_id) const
      W5_REQUIRES_SHARED(mutex_);

  mutable util::SharedMutex mutex_{util::lockrank::kModuleRegistry,
                                    "ModuleRegistry::mutex_"};
  // Keyed by developer/name, then ordered list of versions. deque: stable
  // element addresses across push_back (resolve() hands out Module*).
  std::map<std::string, std::deque<Module>> modules_ W5_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<os::ResourceContainer>> containers_
      W5_GUARDED_BY(mutex_);
};

}  // namespace w5::platform
