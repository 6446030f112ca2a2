// The process-wide lock-rank registry (DESIGN.md §19).
//
// Every util::Mutex / util::SharedMutex in src/ is constructed with one
// of these ranks. The rule is the classic partial-order discipline: a
// thread may only block on a lock whose rank is >= the highest rank it
// already holds. Equal ranks are reserved for sibling instances of the
// same class (the 16 store shards, the trace ring's slot mutexes) whose
// acquisition order is fixed by the code itself (index order).
//
// The same numbers live in tools/w5flow_lock_order.txt — the documented
// registry the static analyzer (tools/w5flow.cpp, pass 2) checks the
// extracted lock-acquisition graph against — and w5flow cross-checks
// this header against that file, so the two cannot drift. The runtime
// witness (util/lock_witness.h, debug builds only) enforces the same
// ranks on every acquisition the test suite performs.
//
// Reading the order: low rank = outer lock (acquired first, held across
// calls into other subsystems), high rank = leaf (never held across a
// call that takes another lock). Gaps are room for future classes.
#pragma once

namespace w5::util::lockrank {

// -- Outer coordinators: held across whole store/WAL sweeps ------------------
inline constexpr int kDurableCheckpoint = 10;   // DurableStore::checkpoint_mutex_
inline constexpr int kDurableCompactor = 12;    // DurableStore::compactor_mutex_

// -- Federation: a node's serving, then gather coordination ------------------
inline constexpr int kFedServe = 16;            // Node::serve_mutex_
inline constexpr int kFedStragglers = 20;       // Metasearch::stragglers_mutex_
inline constexpr int kFedGather = 22;           // Gather::mutex (metasearch hops)
inline constexpr int kFedBreakers = 24;         // Node::breakers_mutex_

// -- Service planes: hold their own lock across calls into the store and
// -- the kernel ---------------------------------------------------------------
inline constexpr int kModuleRegistry = 28;      // ModuleRegistry::mutex_
inline constexpr int kSessionManager = 30;      // SessionManager::mutex_
inline constexpr int kPolicyStore = 32;         // PolicyStore::mutex_
inline constexpr int kDeclassifierRegistry = 34;  // DeclassifierRegistry::mutex_
inline constexpr int kDeclassifierRateWindow = 36;  // RateLimited::mutex_
inline constexpr int kSearchService = 38;       // SearchService::mutex_

// -- Store: planner/shards above the WAL (log-under-lock, DESIGN.md §13) -----
inline constexpr int kQueryGovernor = 40;       // QueryGovernor::mutex_
inline constexpr int kStoreIndexSpecs = 42;     // LabeledStore::specs_mutex_
inline constexpr int kStoreShard = 44;          // LabeledStore Shard::mutex ×16

// -- The DIFC reference monitor and its label plane. Leaf-ward of the OS
// -- services and the store: shards charge the kernel under their lock,
// -- UserDirectory mints tags under its directory lock, FileSystem raises
// -- secrecy under its tree lock — so the kernel ranks ABOVE all of them,
// -- and the tag registry it consults under its own lock ranks higher
// -- still (order pinned empirically by the runtime witness) ------------------
inline constexpr int kUserDirectory = 46;       // UserDirectory::mutex_
inline constexpr int kFileSystem = 48;          // FileSystem::mutex_
inline constexpr int kKernel = 50;              // Kernel::mutex_
inline constexpr int kGlobalCapabilities = 51;  // GlobalCapabilities::mutex_
inline constexpr int kTagRegistry = 52;         // TagRegistry::mutex_
inline constexpr int kLabelTable = 54;          // LabelTable::mutex_
inline constexpr int kFlowCache = 56;           // FlowCache::mutex_

// -- Durability/audit leaves of the data plane -------------------------------
inline constexpr int kAuditLog = 58;            // AuditLog::mutex_
inline constexpr int kWal = 60;                 // WriteAheadLog::mutex_

// -- Execution substrate -----------------------------------------------------
inline constexpr int kResourceTree = 70;        // ResourceContainer::mutex_

// -- Net leaves (brief critical sections, no calls out) ----------------------
inline constexpr int kEventLoopMailbox = 74;    // Mailbox::mutex (event loop)
inline constexpr int kTcpClose = 76;            // TcpListener::close_mutex_
inline constexpr int kCircuitBreaker = 78;      // CircuitBreaker::mutex_
inline constexpr int kFileFault = 80;           // FileFaultPlan State::mutex
inline constexpr int kPipeBuffer = 82;          // PipeBuffer::mutex

// -- Telemetry leaves: reachable from under any subsystem lock ---------------
inline constexpr int kTraceSlot = 84;           // TraceBuffer::slot_mutexes_ ×N
inline constexpr int kTraceEvicted = 86;        // TraceBuffer::evicted_mutex_
inline constexpr int kFlightRecorder = 88;      // FlightRecorder::mutex_
inline constexpr int kNetTraceProvider = 90;    // tracing::g_provider_mutex
inline constexpr int kMetricsRegistry = 94;     // MetricsRegistry::mutex_
inline constexpr int kMetricsExemplar = 96;     // Histogram::exemplar_mutex_
inline constexpr int kLog = 98;                 // log::g_mutex

}  // namespace w5::util::lockrank
