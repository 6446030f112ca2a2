#include "rank/depgraph.h"

namespace w5::rank {

std::uint32_t DependencyGraph::add_node(const std::string& module_id) {
  const auto it = index_.find(module_id);
  if (it != index_.end()) return it->second;
  const auto node = static_cast<std::uint32_t>(names_.size());
  index_.emplace(module_id, node);
  names_.push_back(module_id);
  return node;
}

std::optional<std::uint32_t> DependencyGraph::find(
    const std::string& module_id) const {
  const auto it = index_.find(module_id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

const std::string& DependencyGraph::name_of(std::uint32_t node) const {
  return names_.at(node);
}

void DependencyGraph::add_edge(const std::string& from, const std::string& to,
                               DependencyKind kind) {
  if (from == to) return;
  const std::uint32_t a = add_node(from);
  const std::uint32_t b = add_node(to);
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  auto& seen = edge_seen_[{key, static_cast<std::uint8_t>(kind)}];
  if (seen) return;
  seen = true;
  edges_.push_back(Edge{a, b, kind});
}

std::vector<std::string> DependencyGraph::unreferenced() const {
  std::vector<bool> referenced(names_.size(), false);
  for (const Edge& edge : edges_) referenced[edge.to] = true;
  std::vector<std::string> out;
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (!referenced[i]) out.push_back(names_[i]);
  return out;
}

}  // namespace w5::rank
