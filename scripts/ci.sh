#!/usr/bin/env bash
# The one-command verification gate: tier-1 build + tests, then the
# sanitizer matrix (scripts/run_sanitizers.sh).
#
#   scripts/ci.sh            # build + lint + ctest + durability + bench + w5bench + sanitizers
#   scripts/ci.sh fast       # build + lint + ctest + durability (no bench/w5bench/sanitizers)
#   scripts/ci.sh durability # build + crash-matrix/recovery stage only
#   scripts/ci.sh lint       # build w5lint + static checks only
#   scripts/ci.sh bench      # build + concurrency smoke + E15/E18/E16 gates only
#   scripts/ci.sh w5bench    # the W5 benchmark's self-test only
#
# clang-tidy (.clang-tidy: bugprone-*, concurrency-*,
# performance-unnecessary-value-param) runs as a gated lint leg against
# the exported compilation database (build/compile_commands.json) when
# the binary is on PATH; on the GCC-only container it skips loudly.
#
# Exits non-zero on the first failing stage, so it can anchor any real CI
# job as-is.
set -euo pipefail
cd "$(dirname "$0")/.."

leg="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== Tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs"

lint_stage() {
  echo "== Lint: w5lint (layering / perimeter / telemetry / banned) =="
  # Frozen include DAG, §3.1 perimeter rules, §3.5 telemetry rule, banned
  # functions — DESIGN.md §14. Fails the run on the first violation.
  cmake --build build -j "$jobs" --target w5lint >/dev/null
  ./build/tools/w5lint src --allowlist tools/w5lint_allow.txt

  echo "== Lint: w5flow (DIFC taint + lock order) =="
  # Pass 1: no record-derived bytes reach a log/metrics/trace/egress
  # sink uncleansed. Pass 2: the extracted lock-acquisition graph is
  # acyclic and every edge respects tools/w5flow_lock_order.txt, which
  # itself must match src/util/lock_ranks.h and the declared mutexes —
  # DESIGN.md §19.
  cmake --build build -j "$jobs" --target w5flow >/dev/null
  ./build/tools/w5flow src --lock-order tools/w5flow_lock_order.txt

  echo "== Lint: clang-tidy over compile_commands.json =="
  # Gate on the binary being present rather than failing the GCC-only
  # container; the compilation database is exported unconditionally
  # (CMAKE_EXPORT_COMPILE_COMMANDS in the top-level CMakeLists).
  if command -v clang-tidy >/dev/null 2>&1; then
    if [[ ! -f build/compile_commands.json ]]; then
      echo "ci: build/compile_commands.json missing — reconfigure" >&2
      exit 1
    fi
    find src -name '*.cpp' -print0 |
      xargs -0 -n 8 -P "$jobs" clang-tidy -p build --quiet \
        --warnings-as-errors='*'
    echo "ci: clang-tidy clean"
  else
    echo "ci: SKIPPED clang-tidy leg — clang-tidy not on PATH" >&2
    echo "ci: (run this leg on a clang host; config is .clang-tidy)" >&2
  fi

  echo "== Lint: clang -Werror=thread-safety =="
  # The W5_* annotations (src/util/thread_annotations.h) are only checked
  # by Clang's Thread Safety Analysis; under GCC they compile to nothing.
  # Gate on the compiler actually being present rather than failing a
  # GCC-only container.
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_CXX_FLAGS="-Werror=thread-safety" >/dev/null
    cmake --build build-tsa -j "$jobs" --target \
      w5_util w5_difc w5_net w5_os w5_rank w5_store w5_core w5_fed w5_apps
    echo "ci: thread-safety analysis clean"
  else
    echo "ci: SKIPPED clang thread-safety leg — clang++ not on PATH" >&2
    echo "ci: (annotations are unchecked no-ops under GCC; run this leg on a clang host)" >&2
  fi
}

durability_stage() {
  echo "== Durability: crash matrix + recovery (DESIGN.md §13) =="
  # Every WAL frame boundary ±1 byte, plus the WAL/snapshot/provider
  # recovery suites — the plug-pull guarantees, explicitly reported.
  ./build/tests/w5_tests \
    --gtest_filter='WalTest.*:SnapshotTest.*:DurabilityProviderTest.*:CrashMatrixTest.*' \
    --gtest_brief=1

  echo "== Durability: recovery smoke under ASan =="
  cmake -B build-asan -S . -DW5_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$jobs" --target w5_tests
  ASAN_OPTIONS="detect_leaks=1" \
    LSAN_OPTIONS="suppressions=scripts/lsan.supp:print_suppressions=0" \
    UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/w5_tests \
    --gtest_filter='CrashMatrixTest.*:DurabilityProviderTest.*' \
    --gtest_brief=1
}

bench_stage() {
  echo "== Bench smoke: concurrency suite -> BENCH_concurrency.json =="
  # E12/E12b/E12c: in-process scalability, the TCP reactor at one loop
  # vs four, and the idle keep-alive CPU sweep. Emits
  # BENCH_concurrency.json at the repo root (timings + the conn_* and
  # cpu_core_pct counters in metrics_snapshot) for cross-commit diffing.
  scripts/bench_json.sh concurrency

  echo "== Bench gate: durability -> BENCH_durability.json =="
  # E15: group-commit put p99 within 3x of the in-memory baseline (plus
  # the device's fsync floor), 4096-entry recovery under 500 ms, and
  # >= 1.5 WAL entries per fsync from one reactor loop serving four
  # keep-alive clients (parked connections, not a blocked loop).
  scripts/bench_json.sh durability

  echo "== Bench gate: query engine -> BENCH_query.json =="
  # E18: indexed point queries >= 10x faster than forced scans at 2^20
  # records, and the quantized count channel verifiably closed.
  scripts/bench_json.sh query

  echo "== Bench gate: federated metasearch -> BENCH_federation.json =="
  # E16: fan-out latency vs peer count, and the slowest-peer cutoff —
  # partial results under one slow peer beat the full-wait p99 by >= 2x.
  scripts/bench_json.sh federation
}

w5bench_stage() {
  echo "== W5 benchmark: self-test (w5bench/selftest.py) =="
  # One-second smoke run of every BENCHMARK.json workload: all metrics
  # printed, zero failed answers, deterministic request streams, a
  # planted wrong body caught. Catches a src/ change that breaks the
  # benchmark's build or its answer checks. Builds its own Release tree
  # (.bench_build/), so it stays out of the fast leg.
  python3 w5bench/selftest.py
}

if [[ "$leg" == "durability" ]]; then
  durability_stage
  echo "ci: durability stage passed"
  exit 0
fi

if [[ "$leg" == "bench" ]]; then
  bench_stage
  echo "ci: bench stage passed"
  exit 0
fi

if [[ "$leg" == "w5bench" ]]; then
  w5bench_stage
  echo "ci: w5bench stage passed"
  exit 0
fi

lint_stage
if [[ "$leg" == "lint" ]]; then
  echo "ci: lint stage passed"
  exit 0
fi

echo "== Tier-1: tests =="
(cd build && ctest --output-on-failure -j "$jobs")

echo "== Chaos: fault-injection + robustness suites =="
# Redundant with ctest above but cheap, and keeps the deterministic
# chaos suites an explicitly named stage a CI job can report on.
./build/tests/w5_tests --gtest_filter='*FaultInjection*:*NetRobustness*' \
  --gtest_brief=1

durability_stage

if [[ "$leg" != "fast" ]]; then
  bench_stage
  w5bench_stage
  scripts/run_sanitizers.sh
fi

echo "ci: all stages passed"
