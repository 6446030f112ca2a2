// Per-shard secondary indexes for the labeled store (DESIGN.md §17).
//
// Three posting-list families, every list kept in key order so shard
// scans emit candidates smallest-key-first and pagination never needs a
// post-hoc fixup:
//
//   by_owner   owner            → rows (all collections)
//   by_label   secrecy label    → rows — records grouped by their exact
//              label *set*, so one clearance check (Label::subset_of)
//              admits or skips an entire list; invisible groups are
//              never touched, which is both the perf win and the §3.5
//              story (unreadable records cost the caller nothing
//              observable).
//   by_field   (collection, field, value) → rows for registered
//              IndexSpecs — equality lookups on string-valued data
//              fields (matching field_equals() semantics; non-string
//              values are deliberately not indexed).
//
// A posting is an iterator to the row's node in the shard's RecordMap,
// so a walk reads the row without a second lookup. A map node never
// moves, and an overwrite swaps the RecordRef inside the same node, so a
// posting stays valid across puts. What invalidates one:
//
//   - Erasing its node. Every path unindexes a row before it erases the
//     node (remove, apply_wal's store.remove); posting_erase reads the
//     node's key, so the other order reads freed memory.
//   - Replacing the map. load_json installs new maps with swap(), which
//     keeps iterators valid; move assignment does not promise to.
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

// One posting: the row's node in its shard's RecordMap.
using Posting = RecordMap::const_iterator;
using PostingList = std::vector<Posting>;

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

// The first posting whose key is above `key` (strict) or not below it.
PostingList::const_iterator posting_seek(const PostingList& list,
                                         const RecordKey& key, bool strict);

// Sorted-unique posting-list maintenance, keyed by the node's key. Insert
// is idempotent and erase tolerates absence, so index rebuilds may race
// benignly with concurrent maintenance during create_index() backfill.
void posting_insert(PostingList& list, Posting node);
void posting_erase(PostingList& list, Posting node);

struct ShardIndex {
  using FieldKey = std::tuple<std::string, std::string, std::string>;

  std::map<std::string, PostingList> by_owner;
  std::map<difc::Label, PostingList> by_label;
  std::map<FieldKey, PostingList> by_field;

  // Full add/remove of one row's entries across all three families, read
  // from the version the node holds. Caller holds the owning shard's
  // write lock.
  void add(Posting node, const std::vector<IndexSpec>& specs);
  void remove(Posting node, const std::vector<IndexSpec>& specs);

  // Overwrite path: owner and labels are immutable through put(), so only
  // the field postings can move when data changes — remove_fields before
  // the node's version is swapped, add_fields after.
  void remove_fields(Posting node, const std::vector<IndexSpec>& specs);
  void add_fields(Posting node, const std::vector<IndexSpec>& specs);

  // Drops and rebuilds by_field entries for exactly one spec from the
  // given records (create_index backfill on a non-empty store).
  void rebuild_field(const IndexSpec& spec, const RecordMap& records);
};

}  // namespace w5::store
