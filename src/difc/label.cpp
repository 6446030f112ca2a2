#include "difc/label.h"

#include <algorithm>

namespace w5::difc {

Label::Label(std::initializer_list<Tag> tags)
    : Label(std::vector<Tag>(tags)) {}

Label::Label(std::vector<Tag> tags) : tags_(std::move(tags)) {
  std::sort(tags_.begin(), tags_.end());
  tags_.erase(std::unique(tags_.begin(), tags_.end()), tags_.end());
}

bool Label::contains(Tag tag) const {
  return std::binary_search(tags_.begin(), tags_.end(), tag);
}

bool Label::subset_of(const Label& other) const {
  // ∅ ⊆ anything, and a bigger set never fits inside a smaller one —
  // both checks are free and cover the dominant cases on the flow-check
  // hot path (most labels are empty or a single user tag).
  if (tags_.empty()) return true;
  if (tags_.size() > other.tags_.size()) return false;
  return std::includes(other.tags_.begin(), other.tags_.end(), tags_.begin(),
                       tags_.end());
}

Label Label::union_with(const Label& other) const {
  Label out;
  out.tags_.reserve(tags_.size() + other.tags_.size());
  std::set_union(tags_.begin(), tags_.end(), other.tags_.begin(),
                 other.tags_.end(), std::back_inserter(out.tags_));
  return out;
}

Label Label::intersect_with(const Label& other) const {
  Label out;
  out.tags_.reserve(std::min(tags_.size(), other.tags_.size()));
  std::set_intersection(tags_.begin(), tags_.end(), other.tags_.begin(),
                        other.tags_.end(), std::back_inserter(out.tags_));
  return out;
}

Label Label::subtract(const Label& other) const {
  Label out;
  out.tags_.reserve(tags_.size());
  std::set_difference(tags_.begin(), tags_.end(), other.tags_.begin(),
                      other.tags_.end(), std::back_inserter(out.tags_));
  return out;
}

Label Label::with(Tag tag) const {
  if (contains(tag)) return *this;
  Label out = *this;
  out.tags_.insert(
      std::lower_bound(out.tags_.begin(), out.tags_.end(), tag), tag);
  return out;
}

Label Label::without(Tag tag) const {
  Label out = *this;
  const auto it =
      std::lower_bound(out.tags_.begin(), out.tags_.end(), tag);
  if (it != out.tags_.end() && *it == tag) out.tags_.erase(it);
  return out;
}

std::string Label::to_string() const {
  std::string out = "{";
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += difc::to_string(tags_[i]);
  }
  out.push_back('}');
  return out;
}

}  // namespace w5::difc
