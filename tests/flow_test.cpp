// Tests for tools/w5flow.cpp (DESIGN.md §19) and the runtime lock-order
// witness that backs it. Three layers:
//
//   1. The real src/ tree passes both passes clean against the
//      checked-in rank registry (the same invocation the ci.sh `lint`
//      stage and the w5flow_clean_tree ctest run).
//   2. The seeded fixture trees fail with the promised diagnostics —
//      the taint leak with its full interprocedural call chain, the
//      ABBA pair with both acquisition sites of the cycle.
//   3. The witness aborts a deliberate rank inversion at runtime (and
//      stays silent for the documented order), using the same
//      lock_ranks.h constants the registry cross-checks.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

#include "util/lock_ranks.h"
#include "util/thread_annotations.h"

namespace {

struct FlowResult {
  int exit_code = -1;
  std::string output;
};

FlowResult run_flow(const std::string& root,
                    const std::string& lock_order = "") {
  std::string cmd = std::string(W5FLOW_BINARY) + " " + root;
  if (!lock_order.empty()) cmd += " --lock-order " + lock_order;
  cmd += " 2>&1";
  FlowResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 512> chunk;
  while (fgets(chunk.data(), chunk.size(), pipe) != nullptr)
    result.output += chunk.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(W5_LINT_FIXTURES_DIR) + "/" + name;
}

TEST(FlowTest, CleanTreePassesBothPasses) {
  const FlowResult r = run_flow(W5_SRC_DIR, W5_LOCK_ORDER_FILE);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 violation(s)"), std::string::npos) << r.output;
  // The three sanctioned native() sites are suppressed with in-file
  // justifications, not invisible.
  EXPECT_NE(r.output.find("3 suppressed"), std::string::npos) << r.output;
}

TEST(FlowTest, FlagsInterproceduralTaintLeakWithCallChain) {
  const FlowResult r = run_flow(fixture("flow_taint"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[taint]"), std::string::npos) << r.output;
  // The leak is only visible across three functions; the diagnostic
  // must carry the whole chain, not just the sink line.
  EXPECT_NE(r.output.find("handle_put"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("emit_debug"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("log_info"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 violation(s)"), std::string::npos) << r.output;
}

TEST(FlowTest, FlagsRecordBytesReachingTheAuditLog) {
  // GET /audit and /dev-stats serve what AuditLog::record stores, so the
  // log is a sink like any log line: a direct record() and one through a
  // helper are both leaks.
  const FlowResult r = run_flow(fixture("flow_audit"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[taint]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("note_denial"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("2 violation(s)"), std::string::npos) << r.output;
}

TEST(FlowTest, FlagsAbbaLockCycleWithBothSites) {
  const FlowResult r = run_flow(fixture("flow_lockcycle"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("[lockcycle]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("PairedCounters::left_mutex_"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("PairedCounters::right_mutex_"), std::string::npos)
      << r.output;
  // Both acquisition sites of the cycle are named.
  EXPECT_NE(r.output.find("bump_left_then_right"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("bump_right_then_left"), std::string::npos)
      << r.output;
}

TEST(FlowTest, BadUsageExitsTwo) {
  const FlowResult r = run_flow(std::string(W5_SRC_DIR) + "/no/such/dir");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// The registry encodes a partial order; these are the load-bearing
// relations the tree actually exercises (log-under-lock, the
// kernel-leafward DIFC plane), pinned here so a renumbering that
// reorders them fails fast even in builds without the witness.
TEST(FlowTest, RankRegistryEncodesTheDocumentedOrder) {
  namespace lr = w5::util::lockrank;
  // Shards append to the WAL and check labels while holding their lock.
  EXPECT_LT(lr::kStoreShard, lr::kWal);
  EXPECT_LT(lr::kStoreShard, lr::kLabelTable);
  EXPECT_LT(lr::kLabelTable, lr::kFlowCache);
  // The DIFC kernel is leaf-ward of the services that call into it
  // under their own locks (pinned empirically by the witness).
  EXPECT_LT(lr::kUserDirectory, lr::kKernel);
  EXPECT_LT(lr::kFileSystem, lr::kKernel);
  EXPECT_LT(lr::kKernel, lr::kTagRegistry);
  // Everything may log; the sink is the outermost leaf.
  EXPECT_LT(lr::kKernel, lr::kLog);
  EXPECT_LT(lr::kWal, lr::kLog);
  EXPECT_LT(lr::kMetricsRegistry, lr::kLog);
}

#if defined(W5_LOCK_WITNESS)

using FlowWitnessDeathTest = ::testing::Test;

TEST(FlowWitnessDeathTest, AbortsOnRankInversion) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  namespace lr = w5::util::lockrank;
  // WAL (60) then shard (44): blocking on a lower rank while holding a
  // higher one is exactly the inversion the witness exists to catch.
  EXPECT_DEATH(
      {
        w5::util::Mutex outer(lr::kWal, "test::outer_wal");
        w5::util::Mutex inner(lr::kStoreShard, "test::inner_shard");
        outer.lock();
        inner.lock();
      },
      "rank inversion");
}

TEST(FlowWitnessDeathTest, DocumentedOrderAndSiblingRanksPass) {
  namespace lr = w5::util::lockrank;
  w5::util::Mutex outer(lr::kStoreShard, "test::shard_a");
  w5::util::Mutex sibling(lr::kStoreShard, "test::shard_b");
  w5::util::Mutex inner(lr::kWal, "test::wal");
  outer.lock();
  sibling.lock();  // equal ranks may nest (sibling shards)
  inner.lock();
  EXPECT_EQ(w5::util::witness::held_depth(), 3u);
  inner.unlock();
  sibling.unlock();
  outer.unlock();
  EXPECT_EQ(w5::util::witness::held_depth(), 0u);
}

#endif  // W5_LOCK_WITNESS

}  // namespace
