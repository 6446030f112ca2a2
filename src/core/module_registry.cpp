#include "core/module_registry.h"

#include <mutex>

#include "util/sha256.h"

namespace w5::platform {

util::Status ModuleRegistry::add_locked(Module module) {
  if (module.developer.empty() || module.name.empty() ||
      module.version.empty() || !module.handler) {
    return util::make_error("module.invalid",
                            "developer, name, version, handler required");
  }
  module.id_ = module.path() + "@" + module.version;
  auto& versions = modules_[module.path()];
  for (const auto& existing : versions) {
    if (existing.version == module.version) {
      return util::make_error("module.exists",
                              module.id() + " already registered");
    }
  }
  if (module.fingerprint.empty()) {
    module.fingerprint = util::sha256_hex(
        module.manifest.open_source
            ? module.manifest.source
            : module.id());  // closed source: identity fingerprint
  }
  versions.push_back(std::move(module));
  return util::ok_status();
}

util::Status ModuleRegistry::add(Module module) {
  const util::WriteLock lock(mutex_);
  return add_locked(std::move(module));
}

const Module* ModuleRegistry::resolve_locked(const std::string& developer,
                                             const std::string& name,
                                             const std::string& version) const {
  const auto it = modules_.find(developer + "/" + name);
  if (it == modules_.end() || it->second.empty()) return nullptr;
  if (version.empty()) return &it->second.back();  // latest
  for (const auto& module : it->second)
    if (module.version == version) return &module;
  return nullptr;
}

const Module* ModuleRegistry::resolve(const std::string& developer,
                                      const std::string& name,
                                      const std::string& version) const {
  const util::ReadLock lock(mutex_);
  return resolve_locked(developer, name, version);
}

const Module* ModuleRegistry::resolve_id_locked(
    const std::string& module_id) const {
  const std::size_t at = module_id.find('@');
  const std::size_t slash = module_id.find('/');
  if (slash == std::string::npos) return nullptr;
  const std::string developer = module_id.substr(0, slash);
  const std::string name =
      at == std::string::npos
          ? module_id.substr(slash + 1)
          : module_id.substr(slash + 1, at - slash - 1);
  const std::string version =
      at == std::string::npos ? "" : module_id.substr(at + 1);
  return resolve_locked(developer, name, version);
}

const Module* ModuleRegistry::resolve_id(const std::string& module_id) const {
  const util::ReadLock lock(mutex_);
  return resolve_id_locked(module_id);
}

util::Result<const Module*> ModuleRegistry::fork(
    const std::string& source_module_id, const std::string& new_developer,
    const std::string& new_name, AppHandler replacement_handler) {
  const util::WriteLock lock(mutex_);
  const Module* source = resolve_id_locked(source_module_id);
  if (source == nullptr) {
    return util::make_error("module.not_found", source_module_id);
  }
  if (!source->manifest.open_source) {
    return util::make_error(
        "module.closed",
        source_module_id + " is closed-source and cannot be forked");
  }
  Module fork;
  fork.developer = new_developer;
  fork.name = new_name;
  fork.version = "1.0";
  fork.manifest = source->manifest;
  fork.handler =
      replacement_handler ? std::move(replacement_handler) : source->handler;
  fork.forked_from = source->id();
  // Forks implicitly import their source (feeds the §3.2 dependency graph).
  fork.manifest.imports.push_back(source->id());
  if (auto status = add_locked(std::move(fork)); !status.ok())
    return status.error();
  return resolve_locked(new_developer, new_name, {});
}

std::vector<const Module*> ModuleRegistry::all() const {
  const util::ReadLock lock(mutex_);
  std::vector<const Module*> out;
  for (const auto& [path, versions] : modules_)
    for (const auto& module : versions) out.push_back(&module);
  return out;
}

std::vector<const Module*> ModuleRegistry::versions_of(
    const std::string& developer, const std::string& name) const {
  const util::ReadLock lock(mutex_);
  std::vector<const Module*> out;
  const auto it = modules_.find(developer + "/" + name);
  if (it == modules_.end()) return out;
  for (const auto& module : it->second) out.push_back(&module);
  return out;
}

os::ResourceContainer* ModuleRegistry::container_for(
    const std::string& module_path, const os::ResourceVector& limits) {
  const util::WriteLock lock(mutex_);
  const auto it = containers_.find(module_path);
  if (it != containers_.end()) return it->second.get();
  auto container =
      std::make_unique<os::ResourceContainer>("app:" + module_path, limits);
  os::ResourceContainer* raw = container.get();
  containers_.emplace(module_path, std::move(container));
  return raw;
}

}  // namespace w5::platform
