#include "store/labeled_store.h"

#include <algorithm>
#include <mutex>
#include <utility>

namespace w5::store {

namespace {

util::Error not_found(const std::string& collection, const std::string& id) {
  return util::make_error("store.not_found", collection + "/" + id);
}

bool key_less(const RecordRef& a, const RecordRef& b) {
  if (a->collection != b->collection) return a->collection < b->collection;
  return a->id < b->id;
}

// Joins `label` into `join`, allocating only when it adds a tag — the
// rows of one page usually share one label.
void join_into(difc::Label& join, const difc::Label& label) {
  if (!label.subset_of(join)) join = join.union_with(label);
}

}  // namespace

std::size_t LabeledStore::shard_index(const Key& key) {
  const std::size_t h1 = std::hash<std::string>{}(key.first);
  const std::size_t h2 = std::hash<std::string>{}(key.second);
  return (h1 * 31 + h2) % kShardCount;
}

util::Result<difc::Authority> LabeledStore::caller(os::Pid pid) const {
  return kernel_.authority(pid);
}

bool LabeledStore::ScanBound::admits(const difc::Label& secrecy) {
  if (secrecy.subset_of(who_.secrecy())) return true;
  if (raise_ == Raise::kNo) return false;
  if (who_.is_kernel()) return true;
  const std::vector<difc::Tag>& tags = secrecy.tags();
  if (tags.size() == last_size_ &&
      std::equal(tags.begin(), tags.end(), last_.begin()))
    return true;
  if (!who_.can_see(secrecy)) return false;
  if (tags.size() <= last_.size()) {
    std::copy(tags.begin(), tags.end(), last_.begin());
    last_size_ = tags.size();
  }
  return true;
}

std::vector<IndexSpec> LabeledStore::specs_snapshot() const {
  const util::ReadLock lock(specs_mutex_);
  return specs_;
}

std::vector<IndexSpec> LabeledStore::index_specs() const {
  return specs_snapshot();
}

util::Status LabeledStore::put(os::Pid pid, Record record) {
  if (record.collection.empty() || record.id.empty())
    return util::make_error("store.invalid", "collection and id required");
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  // Lock order: spec lock strictly before any shard lock.
  const std::vector<IndexSpec> specs = specs_snapshot();

  const Key key{record.collection, record.id};
  Shard& shard = shard_for(key);
  util::telemetry_count(puts_);
  util::telemetry_count(shard.ops);
  util::WriteLock lock(shard.mutex);
  const auto it = shard.records.find(key);
  if (it == shard.records.end()) {
    // Create: stamping the labels is writing them — no leak into the
    // record, no forged endorsement.
    if (auto status = who.value().check_write(record.labels); !status.ok())
      return status;
    if (auto charged = kernel_.charge(
            pid, os::Resource::kDisk,
            static_cast<std::int64_t>(record.data.dump().size()));
        !charged.ok()) {
      return charged;
    }
    record.version = 1;
    record.updated_micros = clock_.now();
    const auto node =
        shard.records
            .emplace(key, std::make_shared<const Record>(std::move(record)))
            .first;
    const Record& created = *node->second;
    shard.index.add(node, specs);
    // log() under the shard lock so commit order matches lock order; the
    // durability wait happens after release (never fsync under a lock).
    std::uint64_t seq = 0;
    if (mutation_log_ != nullptr) {
      util::Json op;
      op["op"] = "store.put";
      op["record"] = created.to_json();
      seq = mutation_log_->log(op);
    }
    lock.unlock();
    if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
    return util::ok_status();
  }

  // Overwrite: the record's existing labels govern; stored labels and
  // owner are immutable through this path (relabel is a provider op), so
  // only the field postings can move.
  const Record& existing = *it->second;
  if (auto status = who.value().check_write(existing.labels); !status.ok())
    return status;
  const auto new_size = static_cast<std::int64_t>(record.data.dump().size());
  const auto old_size =
      static_cast<std::int64_t>(existing.data.dump().size());
  if (new_size > old_size) {
    if (auto charged =
            kernel_.charge(pid, os::Resource::kDisk, new_size - old_size);
        !charged.ok()) {
      return charged;
    }
  }
  // Readers may still hold the published version, so the overwrite builds
  // the next one — the old metadata, the new data — and swaps it in. The
  // old version is released after the lock, not under it.
  record.owner = existing.owner;
  record.labels = existing.labels;
  record.version = existing.version + 1;
  record.updated_micros = clock_.now();
  shard.index.remove_fields(it, specs);
  const RecordRef previous = std::exchange(
      it->second, std::make_shared<const Record>(std::move(record)));
  const Record& updated = *it->second;
  shard.index.add_fields(it, specs);
  std::uint64_t seq = 0;
  if (mutation_log_ != nullptr) {
    util::Json op;
    op["op"] = "store.put";
    op["record"] = updated.to_json();
    seq = mutation_log_->log(op);
  }
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

util::Result<Record> LabeledStore::get(os::Pid pid,
                                       const std::string& collection,
                                       const std::string& id, Raise raise) {
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  const Key key{collection, id};
  RecordRef ref;
  {
    // Take the published version under the shard lock; the read
    // linearizes here. The raise and flow check run after release, so we
    // never hold the shard lock across a label change.
    const Shard& shard = shard_for(key);
    util::telemetry_count(gets_);
    util::telemetry_count(shard.ops);
    const util::ReadLock lock(shard.mutex);
    const auto it = shard.records.find(key);
    if (it == shard.records.end()) return not_found(collection, id);
    ref = it->second;
  }
  const Record& record = *ref;

  // Outside clearance the record does not exist — indistinguishable from
  // a missing id (no existence leak).
  if (!who.value().can_see(record.labels.secrecy))
    return not_found(collection, id);

  if (raise == Raise::kYes &&
      !record.labels.secrecy.subset_of(who.value().secrecy())) {
    if (auto raised = kernel_.raise_secrecy(pid, record.labels.secrecy);
        !raised.ok()) {
      return raised.error();
    }
    who = caller(pid);
    if (!who.ok()) return who.error();
  }
  if (auto status = who.value().check_read(record.labels); !status.ok())
    return status.error();
  return record;
}

util::Status LabeledStore::remove(os::Pid pid, const std::string& collection,
                                  const std::string& id) {
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  const std::vector<IndexSpec> specs = specs_snapshot();
  const Key key{collection, id};
  Shard& shard = shard_for(key);
  util::telemetry_count(removes_);
  util::telemetry_count(shard.ops);
  util::WriteLock lock(shard.mutex);
  const auto it = shard.records.find(key);
  if (it == shard.records.end())
    return util::Status(not_found(collection, id));
  const Record& existing = *it->second;
  if (!who.value().can_see(existing.labels.secrecy))
    return util::Status(not_found(collection, id));
  // Vandalism is a write (§3.1): deletion needs write authority.
  if (auto status = who.value().check_write(existing.labels); !status.ok())
    return status;
  shard.index.remove(it, specs);  // postings go before their node
  const RecordRef removed = std::move(it->second);  // freed after the lock
  shard.records.erase(it);
  std::uint64_t seq = 0;
  if (mutation_log_ != nullptr) {
    util::Json op;
    op["op"] = "store.remove";
    op["collection"] = collection;
    op["id"] = id;
    seq = mutation_log_->log(op);
  }
  lock.unlock();
  if (mutation_log_ != nullptr) return mutation_log_->wait_durable(seq);
  return util::ok_status();
}

void LabeledStore::scan_shards(
    const std::string& collection, const QueryOptions& options,
    const QueryPlan& plan, ScanBound& bound,
    const std::string& start_after, std::size_t per_shard_cap,
    const std::function<bool(const RecordRef&)>& sink) const {
  if (per_shard_cap == 0) return;
  // The scan's lower bound: strictly after the cursor when it dominates
  // min_id, else at min_id inclusive.
  const bool strict = !start_after.empty() && start_after >= options.min_id;
  const Key low{collection, strict ? start_after : options.min_id};

  const auto in_range = [&](const Key& key) {
    return key.first == collection &&
           (options.max_id.empty() || key.second <= options.max_id);
  };
  // Every non-visibility constraint, applied on whatever path runs — a
  // plan can change cost, never results.
  const auto matches = [&](const Record& r) {
    if (!options.owner.empty() && r.owner != options.owner) return false;
    if (!options.eq_field.empty()) {
      const auto value = index_encode(r.data.at(options.eq_field));
      if (!value || *value != options.eq_value) return false;
    }
    return !options.predicate || options.predicate(r);
  };

  for (const Shard& shard : shards_) {
    util::telemetry_count(shard.ops);
    const util::ReadLock lock(shard.mutex);
    std::size_t emitted = 0;
    bool stop_all = false;
    // Takes a record already known visible; false stops this shard.
    const auto emit = [&](const RecordRef& r) -> bool {
      if (!matches(*r)) return true;
      if (!sink(r)) {
        stop_all = true;
        return false;
      }
      return ++emitted < per_shard_cap;
    };
    // Ascending walk of one posting list's [low, max_id] slice; each
    // posting is the row's node, so the row costs no second lookup.
    const auto walk_postings = [&](const PostingList& list) {
      for (auto it = posting_seek(list, low, strict);
           it != list.end() && in_range((*it)->first); ++it) {
        const RecordRef& record = (*it)->second;
        if (!bound.admits(record->labels.secrecy)) continue;
        if (!emit(record)) return;
      }
    };

    // Per-shard refinement: with both posting lists available, walk the
    // shorter one; an absent list proves zero matches in this shard.
    PlanKind kind = plan.kind;
    const PostingList* field_list = nullptr;
    const PostingList* owner_list = nullptr;
    if (kind == PlanKind::kFieldIndex) {
      const auto fit = shard.index.by_field.find(
          ShardIndex::FieldKey{collection, plan.field, plan.value});
      field_list = fit == shard.index.by_field.end() ? nullptr : &fit->second;
      if (plan.owner_alternative) {
        const auto oit = shard.index.by_owner.find(options.owner);
        owner_list =
            oit == shard.index.by_owner.end() ? nullptr : &oit->second;
        if (field_list == nullptr || owner_list == nullptr) {
          util::telemetry_count(plans_field_);
          continue;
        }
        if (owner_list->size() < field_list->size())
          kind = PlanKind::kOwnerIndex;
      } else if (field_list == nullptr) {
        util::telemetry_count(plans_field_);
        continue;
      }
    }

    switch (kind) {
      case PlanKind::kFieldIndex:
        util::telemetry_count(plans_field_);
        walk_postings(*field_list);
        break;
      case PlanKind::kOwnerIndex: {
        util::telemetry_count(plans_owner_);
        if (owner_list == nullptr) {
          const auto oit = shard.index.by_owner.find(options.owner);
          owner_list =
              oit == shard.index.by_owner.end() ? nullptr : &oit->second;
        }
        if (owner_list != nullptr) walk_postings(*owner_list);
        break;
      }
      case PlanKind::kLabelScan: {
        util::telemetry_count(plans_scan_);
        // One clearance check per label *set*; a skipped group's records
        // are never touched at all — simultaneously the perf win and the
        // §3.5 story (unreadable records cost nothing observable).
        bool any_skipped = false;
        std::vector<const PostingList*> groups;
        for (const auto& [label, list] : shard.index.by_label) {
          util::telemetry_count(label_groups_checked_);
          if (bound.admits(label)) {
            groups.push_back(&list);
          } else {
            any_skipped = true;
            util::telemetry_count(label_groups_skipped_);
          }
        }
        if (!any_skipped) {
          // Everything visible: the record map is already in key order,
          // so scan it directly (no per-record label work at all).
          auto it = strict ? shard.records.upper_bound(low)
                           : shard.records.lower_bound(low);
          for (; it != shard.records.end() && in_range(it->first); ++it)
            if (!emit(it->second)) break;
          break;
        }
        // Merge the visible groups' slices in ascending key order (the
        // groups partition the records, so no key appears twice).
        struct Range {
          PostingList::const_iterator it, end;
        };
        std::vector<Range> ranges;
        for (const PostingList* list : groups) {
          const auto it = posting_seek(*list, low, strict);
          if (it != list->end() && in_range((*it)->first))
            ranges.push_back(Range{it, list->end()});
        }
        while (!ranges.empty()) {
          std::size_t min_i = 0;
          for (std::size_t i = 1; i < ranges.size(); ++i)
            if ((*ranges[i].it)->first < (*ranges[min_i].it)->first)
              min_i = i;
          if (!emit((*ranges[min_i].it)->second)) break;
          ++ranges[min_i].it;
          if (ranges[min_i].it == ranges[min_i].end ||
              !in_range((*ranges[min_i].it)->first))
            ranges.erase(ranges.begin() +
                         static_cast<std::ptrdiff_t>(min_i));
        }
        break;
      }
    }
    if (stop_all) return;
  }
}

util::Result<QueryPage> LabeledStore::run_query(os::Pid pid,
                                                const std::string& collection,
                                                const QueryOptions& options,
                                                Raise raise) {
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  // Budget denial depends only on (principal, rate) — never on record
  // data — so the denial itself carries no §3.5 signal.
  if (auto admitted = governor_.admit(options.principal); !admitted.ok())
    return admitted.error();

  std::string start_after;
  if (!options.cursor.empty()) {
    const std::string prefix = collection + "/";
    if (options.cursor.size() <= prefix.size() ||
        options.cursor.compare(0, prefix.size(), prefix) != 0) {
      return util::make_error(
          "store.bad_cursor",
          "cursor does not resume collection '" + collection + "'");
    }
    start_after = options.cursor.substr(prefix.size());
    util::telemetry_count(cursor_resumes_);
  }

  ScanBound bound(who.value(), raise);
  const QueryPlan plan = plan_query(collection, options, specs_snapshot());

  // Per shard a page never needs more than offset+limit visible matches:
  // every path emits ascending by key within a shard, so the globally
  // smallest offset+limit keys are among each shard's first offset+limit.
  const std::size_t cap = options.offset > SIZE_MAX - options.limit
                              ? SIZE_MAX
                              : options.offset + options.limit;

  // Phase 1: collect references to visible, matching candidates shard
  // by shard (one lock at a time), then sort them by key so pagination
  // order is deterministic regardless of sharding.
  util::telemetry_count(scans_);
  std::vector<RecordRef> candidates;
  scan_shards(collection, options, plan, bound, start_after, cap,
              [&](const RecordRef& record) {
                candidates.push_back(record);
                return true;
              });
  std::sort(candidates.begin(), candidates.end(), key_less);

  // Phase 2: pagination counts only rows the caller may see, and only the
  // rows the page returns are copied.
  QueryPage page;
  difc::Label result_label;
  if (options.offset < candidates.size())
    page.records.reserve(
        std::min(options.limit, candidates.size() - options.offset));
  for (std::size_t i = options.offset;
       i < candidates.size() && page.records.size() < options.limit; ++i) {
    join_into(result_label, candidates[i]->labels.secrecy);
    page.records.push_back(*candidates[i]);
  }
  if (options.limit != SIZE_MAX && !page.records.empty() &&
      page.records.size() == options.limit) {
    page.next_cursor = collection + "/" + page.records.back().id;
  }

  // The caller is contaminated by the join of everything returned.
  if (raise == Raise::kYes &&
      !result_label.subset_of(who.value().secrecy())) {
    if (auto raised = kernel_.raise_secrecy(pid, result_label); !raised.ok())
      return raised.error();
  }
  // Charge per *visible* result only — charging for skipped records would
  // leak their existence through the quota meter.
  if (auto charged =
          kernel_.charge(pid, os::Resource::kMemory,
                         static_cast<std::int64_t>(page.records.size()));
      !charged.ok()) {
    return charged.error();
  }
  return page;
}

util::Result<std::vector<Record>> LabeledStore::query(
    os::Pid pid, const std::string& collection, const QueryOptions& options,
    Raise raise) {
  auto page = run_query(pid, collection, options, raise);
  if (!page.ok()) return page.error();
  return std::move(page).value().records;
}

util::Result<QueryPage> LabeledStore::query_page(os::Pid pid,
                                                 const std::string& collection,
                                                 const QueryOptions& options,
                                                 Raise raise) {
  return run_query(pid, collection, options, raise);
}

util::Result<std::size_t> LabeledStore::count(os::Pid pid,
                                              const std::string& collection,
                                              const QueryOptions& options,
                                              Raise raise) {
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  if (auto admitted = governor_.admit(options.principal); !admitted.ok())
    return admitted.error();
  ScanBound bound(who.value(), raise);
  const QueryPlan plan = plan_query(collection, options, specs_snapshot());
  util::telemetry_count(scans_);
  std::size_t n = 0;
  difc::Label result_label;
  scan_shards(collection, options, plan, bound, /*start_after=*/"",
              options.limit, [&](const RecordRef& record) {
                join_into(result_label, record->labels.secrecy);
                ++n;
                return n < options.limit;
              });
  // Counting is observing: the caller pays the same contamination as if
  // the counted records had been returned (query()'s raise contract).
  if (raise == Raise::kYes &&
      !result_label.subset_of(who.value().secrecy())) {
    if (auto raised = kernel_.raise_secrecy(pid, result_label); !raised.ok())
      return raised.error();
  }
  return governor_.quantize(n);
}

util::Result<std::vector<std::string>> LabeledStore::list_ids(
    os::Pid pid, const std::string& collection, Raise raise) {
  auto who = caller(pid);
  if (!who.ok()) return who.error();
  ScanBound bound(who.value(), raise);
  util::telemetry_count(scans_);
  const QueryOptions options;  // unfiltered full scan
  std::vector<std::string> out;
  difc::Label result_label;
  scan_shards(collection, options, QueryPlan{}, bound, /*start_after=*/"",
              SIZE_MAX, [&](const RecordRef& record) {
                join_into(result_label, record->labels.secrecy);
                out.push_back(record->id);
                return true;
              });
  std::sort(out.begin(), out.end());
  // Same contamination contract as query()/count(): ids are data too.
  if (raise == Raise::kYes &&
      !result_label.subset_of(who.value().secrecy())) {
    if (auto raised = kernel_.raise_secrecy(pid, result_label); !raised.ok())
      return raised.error();
  }
  return out;
}

util::Status LabeledStore::create_index(const std::string& collection,
                                        const std::string& field) {
  if (collection.empty() || field.empty()) {
    return util::make_error("store.invalid",
                            "index needs collection and field");
  }
  const IndexSpec spec{collection, field};
  {
    util::WriteLock lock(specs_mutex_);
    if (std::find(specs_.begin(), specs_.end(), spec) != specs_.end())
      return util::ok_status();  // idempotent
    specs_.push_back(spec);
    std::sort(specs_.begin(), specs_.end());
  }
  // Spec is published: every put from here on maintains the new index.
  // Backfill shard by shard (one write lock at a time); rebuild drops and
  // re-derives, and posting inserts are idempotent, so racing maintenance
  // converges.
  for (Shard& shard : shards_) {
    util::WriteLock lock(shard.mutex);
    shard.index.rebuild_field(spec, shard.records);
  }
  return util::ok_status();
}

void LabeledStore::set_governor_config(const QueryGovernorConfig& config) {
  governor_.configure(config);
}

LabeledStore::OpCounts LabeledStore::op_counts() const {
  return OpCounts{gets_.load(std::memory_order_relaxed),
                  puts_.load(std::memory_order_relaxed),
                  removes_.load(std::memory_order_relaxed),
                  scans_.load(std::memory_order_relaxed)};
}

std::array<std::uint64_t, LabeledStore::kShardCount>
LabeledStore::shard_op_counts() const {
  std::array<std::uint64_t, kShardCount> out{};
  for (std::size_t i = 0; i < kShardCount; ++i)
    out[i] = shards_[i].ops.load(std::memory_order_relaxed);
  return out;
}

QueryEngineStats LabeledStore::query_stats() const {
  QueryEngineStats out;
  out.plans_field = plans_field_.load(std::memory_order_relaxed);
  out.plans_owner = plans_owner_.load(std::memory_order_relaxed);
  out.plans_scan = plans_scan_.load(std::memory_order_relaxed);
  out.label_groups_checked =
      label_groups_checked_.load(std::memory_order_relaxed);
  out.label_groups_skipped =
      label_groups_skipped_.load(std::memory_order_relaxed);
  out.cursor_resumes = cursor_resumes_.load(std::memory_order_relaxed);
  {
    const util::ReadLock lock(specs_mutex_);
    out.registered_indexes = specs_.size();
  }
  for (const Shard& shard : shards_) {
    const util::ReadLock lock(shard.mutex);
    out.field_postings += shard.index.by_field.size();
    out.label_postings += shard.index.by_label.size();
    out.owner_postings += shard.index.by_owner.size();
  }
  const QueryGovernor::Stats governor = governor_.stats();
  out.queries_admitted = governor.admitted;
  out.queries_denied = governor.denied;
  out.budget_principals = governor.principals;
  out.count_quantum = governor.count_quantum;
  out.budget_queries = governor.budget_queries;
  return out;
}

std::size_t LabeledStore::total_records() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const util::ReadLock lock(shard.mutex);
    n += shard.records.size();
  }
  return n;
}

std::vector<Record> LabeledStore::export_owned_by(
    const std::string& owner) const {
  std::vector<RecordRef> refs;
  for (const Shard& shard : shards_) {
    const util::ReadLock lock(shard.mutex);
    const auto it = shard.index.by_owner.find(owner);
    if (it == shard.index.by_owner.end()) continue;
    for (const Posting node : it->second) refs.push_back(node->second);
  }
  std::sort(refs.begin(), refs.end(), key_less);
  std::vector<Record> out;
  out.reserve(refs.size());
  for (const RecordRef& ref : refs) out.push_back(*ref);
  return out;
}

util::Json LabeledStore::to_json() const {
  // Snapshot order is key order, independent of sharding.
  std::vector<RecordRef> all;
  for (const Shard& shard : shards_) {
    const util::ReadLock lock(shard.mutex);
    for (const auto& [key, record] : shard.records) all.push_back(record);
  }
  std::sort(all.begin(), all.end(), key_less);
  util::Json array = util::Json::array();
  for (const RecordRef& record : all) array.push_back(record->to_json());
  util::Json out;
  out["records"] = std::move(array);
  return out;
}

util::Status LabeledStore::apply_wal(const util::Json& op) {
  const std::string& kind = op.at("op").as_string();
  const std::vector<IndexSpec> specs = specs_snapshot();
  if (kind == "store.put") {
    auto parsed = Record::from_json(op.at("record"));
    if (!parsed.ok()) return parsed.error();
    RecordRef record =
        std::make_shared<const Record>(std::move(parsed).value());
    const Key key{record->collection, record->id};
    Shard& shard = shard_for(key);
    util::WriteLock lock(shard.mutex);
    const auto it = shard.records.find(key);
    if (it == shard.records.end()) {
      shard.index.add(shard.records.emplace(key, std::move(record)).first,
                      specs);
    } else {
      // Owner and labels are immutable through put(), but snapshot/WAL
      // overlap can replay a put over a snapshot record from an earlier
      // life of the key (remove + recreate straddling the boundary), and
      // the data fields can always differ — unindex the old state in
      // full and index the new one.
      shard.index.remove(it, specs);
      it->second = std::move(record);
      shard.index.add(it, specs);
    }
    return util::ok_status();
  }
  if (kind == "store.remove") {
    const Key key{op.at("collection").as_string(), op.at("id").as_string()};
    Shard& shard = shard_for(key);
    util::WriteLock lock(shard.mutex);
    const auto it = shard.records.find(key);
    if (it == shard.records.end()) return util::ok_status();  // idempotent
    shard.index.remove(it, specs);  // postings go before their node
    shard.records.erase(it);
    return util::ok_status();
  }
  return util::make_error("wal.replay", "unknown store op '" + kind + "'");
}

// Takes all 16 shard locks through a runtime-indexed array — a dynamic
// capability set TSA cannot model, hence the opt-out.
util::Status LabeledStore::load_json(const util::Json& snapshot)
    W5_NO_THREAD_SAFETY_ANALYSIS {
  if (!snapshot.at("records").is_array())
    return util::make_error("store.parse", "missing records array");
  const std::vector<IndexSpec> specs = specs_snapshot();
  // Build aside, then swap under all shard locks (index order, the only
  // place more than one shard lock is ever held).
  std::array<RecordMap, kShardCount> records;
  std::array<ShardIndex, kShardCount> indexes;
  for (const auto& item : snapshot.at("records").as_array()) {
    auto parsed = Record::from_json(item);
    if (!parsed.ok()) return parsed.error();
    RecordRef record =
        std::make_shared<const Record>(std::move(parsed).value());
    Key key{record->collection, record->id};
    const std::size_t shard = shard_index(key);
    const auto [node, inserted] =
        records[shard].try_emplace(std::move(key), std::move(record));
    if (!inserted)
      return util::make_error("store.parse", "duplicate record key");
    indexes[shard].add(node, specs);
  }
  std::array<std::unique_lock<std::shared_mutex>, kShardCount> locks;
  for (std::size_t i = 0; i < kShardCount; ++i)
    // w5flow-allow(native): the all-shards swap takes every sibling
    // shard lock in index order — the documented equal-rank protocol.
    locks[i] = std::unique_lock(shards_[i].mutex.native());
  // swap, not move assignment: the new postings point at records[i]'s
  // nodes, and only swap promises to keep such iterators valid. The old
  // maps leave with the locals, freed after the locks are released.
  for (std::size_t i = 0; i < kShardCount; ++i) {
    shards_[i].records.swap(records[i]);
    std::swap(shards_[i].index, indexes[i]);
  }
  return util::ok_status();
}

}  // namespace w5::store
