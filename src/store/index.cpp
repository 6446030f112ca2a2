#include "store/index.h"

#include <algorithm>

namespace w5::store {

std::optional<std::string> index_encode(const util::Json& value) {
  if (!value.is_string()) return std::nullopt;
  return value.as_string();
}

PostingList::const_iterator posting_seek(const PostingList& list,
                                         const RecordKey& key, bool strict) {
  if (strict) {
    return std::upper_bound(
        list.begin(), list.end(), key,
        [](const RecordKey& k, Posting node) { return k < node->first; });
  }
  return std::lower_bound(
      list.begin(), list.end(), key,
      [](Posting node, const RecordKey& k) { return node->first < k; });
}

void posting_insert(PostingList& list, Posting node) {
  const auto it = posting_seek(list, node->first, /*strict=*/false);
  if (it != list.end() && (*it)->first == node->first) return;  // idempotent
  list.insert(it, node);
}

void posting_erase(PostingList& list, Posting node) {
  const auto it = posting_seek(list, node->first, /*strict=*/false);
  if (it != list.end() && (*it)->first == node->first) list.erase(it);
}

namespace {

template <typename MapT, typename KeyT>
void map_posting_erase(MapT& map, const KeyT& map_key, Posting node) {
  const auto it = map.find(map_key);
  if (it == map.end()) return;
  posting_erase(it->second, node);
  if (it->second.empty()) map.erase(it);
}

}  // namespace

void ShardIndex::add(Posting node, const std::vector<IndexSpec>& specs) {
  const Record& record = *node->second;
  posting_insert(by_owner[record.owner], node);
  posting_insert(by_label[record.labels.secrecy], node);
  add_fields(node, specs);
}

void ShardIndex::remove(Posting node, const std::vector<IndexSpec>& specs) {
  const Record& record = *node->second;
  map_posting_erase(by_owner, record.owner, node);
  map_posting_erase(by_label, record.labels.secrecy, node);
  remove_fields(node, specs);
}

void ShardIndex::add_fields(Posting node,
                            const std::vector<IndexSpec>& specs) {
  const Record& record = *node->second;
  for (const IndexSpec& spec : specs) {
    if (spec.collection != record.collection) continue;
    if (const auto value = index_encode(record.data.at(spec.field)))
      posting_insert(
          by_field[FieldKey{spec.collection, spec.field, *value}], node);
  }
}

void ShardIndex::remove_fields(Posting node,
                               const std::vector<IndexSpec>& specs) {
  const Record& record = *node->second;
  for (const IndexSpec& spec : specs) {
    if (spec.collection != record.collection) continue;
    if (const auto value = index_encode(record.data.at(spec.field)))
      map_posting_erase(by_field,
                        FieldKey{spec.collection, spec.field, *value}, node);
  }
}

void ShardIndex::rebuild_field(const IndexSpec& spec,
                               const RecordMap& records) {
  // Drop every list for this (collection, field) then re-derive: the
  // backfill must converge even if a racing put already inserted entries
  // (posting_insert is idempotent).
  const FieldKey lo{spec.collection, spec.field, ""};
  auto it = by_field.lower_bound(lo);
  while (it != by_field.end() && std::get<0>(it->first) == spec.collection &&
         std::get<1>(it->first) == spec.field) {
    it = by_field.erase(it);
  }
  const std::vector<IndexSpec> one{spec};
  for (auto node = records.lower_bound(RecordKey{spec.collection, ""});
       node != records.end() && node->first.first == spec.collection; ++node)
    add_fields(node, one);
}

}  // namespace w5::store
