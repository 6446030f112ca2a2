// The labeled record store — W5's replacement for the SQL backend.
//
// The paper (§3.5) observes that "the SQL interface to databases can leak
// information implicitly and thus needs to be replaced under W5". This
// store is that replacement. The central covert-channel rule: a query
// runs against exactly the subset of records the calling process is
// *cleared* to see (S_r ⊆ clearance(p)); records above clearance do not
// exist from the caller's perspective — they affect no result, no count,
// no error, and no resource charge.
//
// Queries run through a small planner + index engine (DESIGN.md §17):
// per-shard posting lists (owner, secrecy-label set, registered
// field-value indexes, see index.h) kept in key order, a deterministic
// planner (planner.h) that picks the access path, and a covert-channel
// governor (query_governor.h) that quantizes counts and meters
// per-principal query budgets. Plans never change results, only cost.
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "os/kernel.h"
#include "store/index.h"
#include "store/planner.h"
#include "store/query_governor.h"
#include "store/query_stats.h"
#include "store/record.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/mutation_log.h"
#include "util/result.h"
#include "util/thread_annotations.h"
#include "util/lock_ranks.h"

namespace w5::store {

enum class Raise : std::uint8_t { kNo, kYes };

// A predicate over record data; see query.h for composable builders.
using RecordPredicate = std::function<bool(const Record&)>;

// kAuto lets the planner choose; kScanOnly forces the label-grouped
// ordered scan — the bench/test hook that prices every index against the
// honest scan over identical data (results must be byte-identical).
enum class PlannerMode : std::uint8_t { kAuto, kScanOnly };

struct QueryOptions {
  std::size_t limit = SIZE_MAX;
  std::size_t offset = 0;     // skip the first N *visible+matching* rows
  std::string owner;          // filter by owner when non-empty
  RecordPredicate predicate;  // optional data filter

  // Indexable equality: data[eq_field] == eq_value (string compare, the
  // field_equals() semantics). Unlike `predicate` this constraint is
  // visible to the planner, so a registered index can serve it; when no
  // index matches it degrades to an ordinary filter.
  std::string eq_field;
  std::string eq_value;

  // Id range, inclusive on both ends when non-empty. Ids sort
  // lexicographically (zero-pad numeric ids, as the apps do).
  std::string min_id;
  std::string max_id;

  // Opaque resume token from QueryPage::next_cursor ("collection/id"):
  // resume strictly after that id. Unlike `offset`, resuming does not
  // re-scan skipped rows, so deep pagination stays O(page). Malformed or
  // mismatched cursors fail with store.bad_cursor.
  std::string cursor;

  // Principal charged against the per-principal query budget (§3.5).
  // Empty = unmetered (trusted front-end / internal scans).
  std::string principal;

  PlannerMode planner = PlannerMode::kAuto;
};

// One page of results plus the token that resumes after it. next_cursor
// is empty when the store can prove the page is the last one; a non-empty
// cursor may still resume onto an empty final page (the standard
// contract — emptiness of "the rest" is not probed in advance).
struct QueryPage {
  std::vector<Record> records;
  std::string next_cursor;
};

// Thread-safe and lock-striped: records live in kShardCount shards keyed
// by hash(collection, id), each with its own shared_mutex, so point
// operations on different records proceed in parallel. Scans (query,
// count, list_ids, snapshots) visit shards one at a time — never holding
// two shard locks — and merge-sort by key so results stay deterministic.
// Lock order: index-spec lock → store shard → kernel (charges and raises
// happen while a shard lock is held; the kernel never calls into the
// store; the spec list is copied out before any shard lock is taken).
class LabeledStore {
 public:
  // 16 stripes: comfortably above the threads a provider runs requests
  // on, so two random keys rarely contend, small enough that full scans
  // stay cheap.
  static constexpr std::size_t kShardCount = 16;

  LabeledStore(os::Kernel& kernel, const util::Clock& clock)
      : kernel_(kernel), clock_(clock) {}

  LabeledStore(const LabeledStore&) = delete;
  LabeledStore& operator=(const LabeledStore&) = delete;

  // Creates or overwrites. Create stamps the given labels (creator must
  // satisfy the no-leak and endorsement rules); overwrite keeps the
  // existing labels and enforces the write rule against them.
  util::Status put(os::Pid pid, Record record);

  // Point lookup. Raise::kYes contaminates the caller to admit the
  // record; otherwise an unreadable record reports store.not_found — the
  // same error as a genuinely absent id, so existence cannot leak.
  util::Result<Record> get(os::Pid pid, const std::string& collection,
                           const std::string& id, Raise raise = Raise::kNo);

  util::Status remove(os::Pid pid, const std::string& collection,
                      const std::string& id);

  // Clearance-bounded scan; results are readable *after* the implied
  // raise (with kYes the caller's label is raised to the join of the
  // results; with kNo only records below the caller's current S return).
  util::Result<std::vector<Record>> query(os::Pid pid,
                                          const std::string& collection,
                                          const QueryOptions& options = {},
                                          Raise raise = Raise::kYes);

  // Cursor pagination: like query() but returns the resume token for the
  // next page. Pass it back via options.cursor (options.offset then
  // applies after the cursor — normally leave it 0).
  util::Result<QueryPage> query_page(os::Pid pid,
                                     const std::string& collection,
                                     const QueryOptions& options = {},
                                     Raise raise = Raise::kYes);

  // Covert-channel-safe count: counts only records within the same bound
  // query() uses, and the caller pays the same contamination — with
  // Raise::kYes (default) the caller's secrecy is raised to the join of
  // every counted record, exactly as if the records had been returned.
  // Counting without contamination (Raise::kNo) only sees records below
  // the caller's *current* label. The governor's count_quantum rounds
  // the result up (§3.5).
  util::Result<std::size_t> count(os::Pid pid, const std::string& collection,
                                  const QueryOptions& options = {},
                                  Raise raise = Raise::kYes);

  // Ids visible at the query bound; same raise contract as query().
  util::Result<std::vector<std::string>> list_ids(
      os::Pid pid, const std::string& collection, Raise raise = Raise::kYes);

  // ---- Index + governor management (TRUSTED provider plane) ---------------
  // Registers an equality index over data[field] for one collection and
  // backfills it shard by shard. Idempotent. New puts maintain the index
  // from the moment the spec is published, so registration on a live
  // store converges (posting inserts are idempotent).
  util::Status create_index(const std::string& collection,
                            const std::string& field);
  std::vector<IndexSpec> index_specs() const;

  // §3.5 knobs: count quantization and per-principal query budgets.
  // Resets the metering windows.
  void set_governor_config(const QueryGovernorConfig& config);

  // The governor's count rounding, exposed so every aggregate a caller
  // derives from this store (federated facet counts, merged totals) goes
  // through the SAME §3.5 quantization path as count() — one quantum,
  // one channel bound, no second code path to drift.
  std::size_t quantize_count(std::size_t count) const {
    return governor_.quantize(count);
  }

  std::size_t total_records() const;  // provider metric (trusted callers)

  // ---- Observability (DESIGN.md §11) ---------------------------------------
  // The store keeps its own relaxed atomics (it cannot depend on the
  // platform's MetricsRegistry); /metrics snapshots them at scrape time.
  // Counts say how often each shard/op was exercised — never what was in
  // a record.
  struct OpCounts {
    std::uint64_t gets = 0;
    std::uint64_t puts = 0;
    std::uint64_t removes = 0;
    std::uint64_t scans = 0;  // query/count/list_ids calls
  };
  OpCounts op_counts() const;
  // Per-shard operation totals (point ops hit one shard; scans touch all).
  std::array<std::uint64_t, kShardCount> shard_op_counts() const;

  // Planner/index/governor counters for statusz and /metrics (record-free
  // struct — see query_stats.h). Gauges are sampled under shard read
  // locks, one shard at a time.
  QueryEngineStats query_stats() const;

  // TRUSTED front-end only: every record a user owns, across all
  // collections (used by GET /export and account deletion). Not exposed
  // through AppContext — apps cannot enumerate collections.
  std::vector<Record> export_owned_by(const std::string& owner) const;

  util::Json to_json() const;
  // Swaps in a full snapshot under every shard lock at once — the locks
  // are taken through an index-ordered array the analysis cannot name, so
  // the implementation opts out with W5_NO_THREAD_SAFETY_ANALYSIS.
  util::Status load_json(const util::Json& snapshot);

  // ---- Durability (DESIGN.md §13) -------------------------------------------
  // When a log is attached every successful put/remove publishes a
  // store.put / store.remove op (full post-state, labels included) before
  // the call returns, honoring the log's durability mode.
  void set_mutation_log(util::MutationLog* log) { mutation_log_ = log; }

  // TRUSTED replay apply: reinstates the op's exact post-state — no flow
  // checks, no kernel charges, no telemetry (the original mutation was
  // checked and charged when it first ran). Idempotent: replaying an op
  // the snapshot already covers is a no-op-shaped overwrite.
  util::Status apply_wal(const util::Json& op);

 private:
  using Key = RecordKey;  // (collection, id)

  struct Shard {
    mutable util::SharedMutex mutex{util::lockrank::kStoreShard,
                                    "Shard::mutex"};
    // map keeps iteration deterministic for snapshots and queries. Each
    // value is an immutable version (index.h): readers copy the reference
    // under the lock and the record after releasing it.
    RecordMap records W5_GUARDED_BY(mutex);
    // Secondary indexes (owner / label-set / field postings, index.h),
    // maintained in lockstep with `records` on every mutation.
    ShardIndex index W5_GUARDED_BY(mutex);
    // Telemetry: operations that touched this shard (relaxed; approximate
    // under races is fine for a load-balance signal).
    mutable std::atomic<std::uint64_t> ops{0};
  };

  static std::size_t shard_index(const Key& key);
  Shard& shard_for(const Key& key) { return shards_[shard_index(key)]; }
  const Shard& shard_for(const Key& key) const {
    return shards_[shard_index(key)];
  }

  util::Result<difc::Authority> caller(os::Pid pid) const;

  // The rows a scan may return: at Raise::kYes the caller's clearance, at
  // kNo its current S. It remembers the last label (of up to two tags) it
  // admitted — an owner's rows share one label — so a run of equal labels
  // costs one check and no allocation.
  class ScanBound {
   public:
    ScanBound(const difc::Authority& who, Raise raise)
        : who_(who), raise_(raise) {}
    bool admits(const difc::Label& secrecy);

   private:
    const difc::Authority& who_;
    Raise raise_;
    std::array<difc::Tag, 2> last_{};
    std::size_t last_size_ = SIZE_MAX;  // none admitted yet
  };

  // The scan engine: runs `plan` over every shard (one read lock at a
  // time), emitting records `bound` admits that match every `options`
  // constraint in ascending key order *per shard*, at most
  // `per_shard_cap` per shard. `start_after` is the cursor bound
  // (exclusive), empty = none.
  // sink() runs under the shard's read lock and may keep the reference;
  // returning false stops the whole scan (global early exit).
  void scan_shards(const std::string& collection, const QueryOptions& options,
                   const QueryPlan& plan, ScanBound& bound,
                   const std::string& start_after, std::size_t per_shard_cap,
                   const std::function<bool(const RecordRef&)>& sink) const;

  // Shared by query()/query_page(): governor admission, cursor parsing,
  // planning, scan, merge-sort, pagination, raise, charge.
  util::Result<QueryPage> run_query(os::Pid pid, const std::string& collection,
                                    const QueryOptions& options, Raise raise);

  std::vector<IndexSpec> specs_snapshot() const;

  std::array<Shard, kShardCount> shards_;

  mutable util::SharedMutex specs_mutex_{util::lockrank::kStoreIndexSpecs,
                                         "LabeledStore::specs_mutex_"};
  std::vector<IndexSpec> specs_ W5_GUARDED_BY(specs_mutex_);

  mutable std::atomic<std::uint64_t> gets_{0};
  mutable std::atomic<std::uint64_t> puts_{0};
  mutable std::atomic<std::uint64_t> removes_{0};
  mutable std::atomic<std::uint64_t> scans_{0};

  // Planner/engine counters (relaxed; see query_stats.h).
  mutable std::atomic<std::uint64_t> plans_field_{0};
  mutable std::atomic<std::uint64_t> plans_owner_{0};
  mutable std::atomic<std::uint64_t> plans_scan_{0};
  mutable std::atomic<std::uint64_t> label_groups_checked_{0};
  mutable std::atomic<std::uint64_t> label_groups_skipped_{0};
  mutable std::atomic<std::uint64_t> cursor_resumes_{0};

  os::Kernel& kernel_;
  const util::Clock& clock_;
  QueryGovernor governor_{clock_};
  util::MutationLog* mutation_log_ = nullptr;
};

}  // namespace w5::store
