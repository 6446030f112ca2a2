// Module dependency graph (paper §3.2).
//
// "Code fragment A can depend on code fragment B in two ways. First, A is
// an application that renders HTML ... that points to an application that
// uses B's code. Second, A imports B as a library." Both edge kinds are
// collected here; the PageRank-style ranker treats an edge A→B as A
// vouching for B, exactly as hyperlinks vouch for pages.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace w5::rank {

enum class DependencyKind : std::uint8_t {
  kImport,     // A imports B as a library
  kHtmlEmbed,  // A's rendered HTML links to an app using B
};

struct Edge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  DependencyKind kind = DependencyKind::kImport;
};

class DependencyGraph {
 public:
  // Returns the node index for the module id, creating it if new.
  std::uint32_t add_node(const std::string& module_id);

  std::optional<std::uint32_t> find(const std::string& module_id) const;
  const std::string& name_of(std::uint32_t node) const;

  // Self-edges are dropped (a module cannot vouch for itself); duplicate
  // edges of the same kind are idempotent.
  void add_edge(const std::string& from, const std::string& to,
                DependencyKind kind);

  std::size_t node_count() const noexcept { return names_.size(); }
  std::size_t edge_count() const noexcept { return edges_.size(); }

  const std::vector<Edge>& edges() const noexcept { return edges_; }

  // Modules nothing depends on (rank sinks-in-reverse; useful diagnostics).
  std::vector<std::string> unreferenced() const;

 private:
  std::map<std::string, std::uint32_t> index_;
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
  std::map<std::pair<std::uint64_t, std::uint8_t>, bool> edge_seen_;
};

}  // namespace w5::rank
