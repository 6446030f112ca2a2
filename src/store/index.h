// Per-shard secondary indexes for the labeled store (DESIGN.md §17).
//
// Three posting-list families, every list kept in key order so shard
// scans emit candidates smallest-key-first and pagination never needs a
// post-hoc fixup:
//
//   by_owner   owner            → keys (all collections)
//   by_label   secrecy label    → keys — records grouped by their exact
//              label *set*, so one clearance check (Label::subset_of)
//              admits or skips an entire list; invisible groups are
//              never touched, which is both the perf win and the §3.5
//              story (unreadable records cost the caller nothing
//              observable).
//   by_field   (collection, field, value) → keys for registered
//              IndexSpecs — equality lookups on string-valued data
//              fields (matching field_equals() semantics; non-string
//              values are deliberately not indexed).
//
// The index is derived state: put/remove/apply_wal/load_json maintain it
// in lockstep with the record map under the owning shard's lock, and
// recovery rebuilds it from the snapshot + WAL tail — it is never
// serialized.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "difc/label.h"
#include "store/record.h"

namespace w5::store {

using RecordKey = std::pair<std::string, std::string>;  // (collection, id)

// A shard holds each record as one published, immutable version: a put
// swaps in a new one, so a reader that took a reference under the shard
// lock may keep reading it after the lock is released.
using RecordRef = std::shared_ptr<const Record>;
using RecordMap = std::map<RecordKey, RecordRef>;

// A registered equality index over data[field] for one collection.
// Registration is create_index(); the spec list is read on every put, so
// it lives behind the store's spec lock, not per shard.
struct IndexSpec {
  std::string collection;
  std::string field;

  friend bool operator==(const IndexSpec&, const IndexSpec&) = default;
  friend bool operator<(const IndexSpec& a, const IndexSpec& b) {
    return std::tie(a.collection, a.field) < std::tie(b.collection, b.field);
  }
};

// The canonical index encoding of a field value, or nullopt when the
// value is not indexable (absent, null, or non-string — mirroring
// field_equals(), which only ever matches strings).
std::optional<std::string> index_encode(const util::Json& value);

// Sorted-unique posting-list maintenance. Insert is idempotent and erase
// tolerates absence, so index rebuilds may race benignly with concurrent
// maintenance during create_index() backfill.
void posting_insert(std::vector<RecordKey>& keys, const RecordKey& key);
void posting_erase(std::vector<RecordKey>& keys, const RecordKey& key);

struct ShardIndex {
  using FieldKey = std::tuple<std::string, std::string, std::string>;

  std::map<std::string, std::vector<RecordKey>> by_owner;
  std::map<difc::Label, std::vector<RecordKey>> by_label;
  std::map<FieldKey, std::vector<RecordKey>> by_field;

  // Full add/remove of one record's entries across all three families.
  // Caller holds the owning shard's write lock.
  void add(const RecordKey& key, const Record& record,
           const std::vector<IndexSpec>& specs);
  void remove(const RecordKey& key, const Record& record,
              const std::vector<IndexSpec>& specs);

  // Overwrite path: owner and labels are immutable through put(), so only
  // the field postings can move when data changes.
  void remove_fields(const RecordKey& key, const Record& record,
                     const std::vector<IndexSpec>& specs);
  void add_fields(const RecordKey& key, const Record& record,
                  const std::vector<IndexSpec>& specs);

  // Drops and rebuilds by_field entries for exactly one spec from the
  // given records (create_index backfill on a non-empty store).
  void rebuild_field(const IndexSpec& spec, const RecordMap& records);

  void clear() {
    by_owner.clear();
    by_label.clear();
    by_field.clear();
  }
};

}  // namespace w5::store
