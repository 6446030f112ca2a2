#include "store/index.h"

#include <algorithm>

namespace w5::store {

std::optional<std::string> index_encode(const util::Json& value) {
  if (!value.is_string()) return std::nullopt;
  return value.as_string();
}

void posting_insert(std::vector<RecordKey>& keys, const RecordKey& key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) return;  // idempotent
  keys.insert(it, key);
}

void posting_erase(std::vector<RecordKey>& keys, const RecordKey& key) {
  const auto it = std::lower_bound(keys.begin(), keys.end(), key);
  if (it != keys.end() && *it == key) keys.erase(it);
}

namespace {

template <typename MapT, typename KeyT>
void map_posting_erase(MapT& map, const KeyT& map_key, const RecordKey& key) {
  const auto it = map.find(map_key);
  if (it == map.end()) return;
  posting_erase(it->second, key);
  if (it->second.empty()) map.erase(it);
}

}  // namespace

void ShardIndex::add(const RecordKey& key, const Record& record,
                     const std::vector<IndexSpec>& specs) {
  posting_insert(by_owner[record.owner], key);
  posting_insert(by_label[record.labels.secrecy], key);
  add_fields(key, record, specs);
}

void ShardIndex::remove(const RecordKey& key, const Record& record,
                        const std::vector<IndexSpec>& specs) {
  map_posting_erase(by_owner, record.owner, key);
  map_posting_erase(by_label, record.labels.secrecy, key);
  remove_fields(key, record, specs);
}

void ShardIndex::add_fields(const RecordKey& key, const Record& record,
                            const std::vector<IndexSpec>& specs) {
  for (const IndexSpec& spec : specs) {
    if (spec.collection != record.collection) continue;
    if (const auto value = index_encode(record.data.at(spec.field)))
      posting_insert(
          by_field[FieldKey{spec.collection, spec.field, *value}], key);
  }
}

void ShardIndex::remove_fields(const RecordKey& key, const Record& record,
                               const std::vector<IndexSpec>& specs) {
  for (const IndexSpec& spec : specs) {
    if (spec.collection != record.collection) continue;
    if (const auto value = index_encode(record.data.at(spec.field)))
      map_posting_erase(by_field,
                        FieldKey{spec.collection, spec.field, *value}, key);
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
  const auto begin = records.lower_bound(RecordKey{spec.collection, ""});
  for (auto rec = begin;
       rec != records.end() && rec->first.first == spec.collection; ++rec) {
    add_fields(rec->first, *rec->second, one);
  }
}

}  // namespace w5::store
