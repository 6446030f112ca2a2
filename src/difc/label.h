// Labels: finite sets of tags forming a lattice under ⊆ (Flume model).
//
// A secrecy label S on data means "everyone who has seen this data is
// contaminated by every t ∈ S". An integrity label I means "this data has
// been endorsed by the authority behind every t ∈ I". Immutable value
// type; set operations return new labels.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "difc/tag.h"

namespace w5::difc {

class Label {
 public:
  Label() = default;
  Label(std::initializer_list<Tag> tags);
  explicit Label(std::vector<Tag> tags);  // sorts and dedups

  bool empty() const noexcept { return tags_.empty(); }
  std::size_t size() const noexcept { return tags_.size(); }
  bool contains(Tag tag) const;

  // Lattice operations.
  bool subset_of(const Label& other) const;          // this ⊆ other
  Label union_with(const Label& other) const;        // this ∪ other
  Label intersect_with(const Label& other) const;    // this ∩ other
  Label subtract(const Label& other) const;          // this − other
  Label with(Tag tag) const;                         // this ∪ {t}
  Label without(Tag tag) const;                      // this − {t}

  const std::vector<Tag>& tags() const noexcept { return tags_; }

  std::string to_string() const;  // "{t3,t7}" — for audit logs and tests

  friend bool operator==(const Label&, const Label&) = default;

  // Total order so labels can key ordered containers (deterministic
  // snapshots); not the lattice order.
  friend bool operator<(const Label& a, const Label& b) {
    return a.tags_ < b.tags_;
  }

 private:
  std::vector<Tag> tags_;  // sorted, unique
};

}  // namespace w5::difc
