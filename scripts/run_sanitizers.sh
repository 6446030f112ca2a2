#!/usr/bin/env bash
# Sanitizer matrix for the concurrent request pipeline.
#
#   scripts/run_sanitizers.sh            # TSan concurrency tests + ASan/UBSan suite
#   scripts/run_sanitizers.sh tsan       # just the ThreadSanitizer leg
#   scripts/run_sanitizers.sh asan       # just the ASan+UBSan leg
#
# TSan runs the tests that actually spin threads (the provider hammer,
# the TCP end-to-end serving path, thread-pool and IPC tests, the
# fault-injection/robustness chaos suites — injected resets and reaping
# race real worker threads — durable puts parked on the WAL flusher,
# and metasearch hops sharing a slow peer); running the whole suite
# under TSan adds minutes for zero extra interleavings. ASan+UBSan run everything, with
# LeakSanitizer ON (suppressions: scripts/lsan.supp).
#
# Static legs live in scripts/ci.sh lint: w5lint (layering / perimeter /
# telemetry / banned functions), w5flow (taint + lock order) and, when
# clang++ is on PATH, a -Werror=thread-safety build over the annotated
# tree (src/util/thread_annotations.h).
#
# Both legs pin -DW5_LOCK_WITNESS=ON explicitly (it is already the
# default off-Release, but a stale cache from a Release configure must
# not silently drop the lock-order witness from the sanitizer runs —
# TSan threads are exactly where an inversion would bite).
set -euo pipefail
cd "$(dirname "$0")/.."

leg="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_tsan() {
  echo "== ThreadSanitizer =="
  cmake -B build-tsan -S . -DW5_SANITIZE=thread -DW5_LOCK_WITNESS=ON \
    >/dev/null
  cmake --build build-tsan -j "$jobs" --target w5_tests
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-tsan/tests/w5_tests \
    --gtest_filter='*Concurrency*:*FlowMemo*:*TcpEndToEnd*:*ThreadPool*:*Ipc*:*Observability*:*FaultInjection*:*NetRobustness*:*EventLoopServer*:*TimerWheel*:*DurableServe*:WalTest.OnDurable*:DurableStoreTest.*:*Metasearch*'
}

run_asan() {
  echo "== AddressSanitizer + UndefinedBehaviorSanitizer =="
  cmake -B build-asan -S . -DW5_SANITIZE=address,undefined \
    -DW5_LOCK_WITNESS=ON >/dev/null
  cmake --build build-asan -j "$jobs" --target w5_tests
  ASAN_OPTIONS="detect_leaks=1" \
    LSAN_OPTIONS="suppressions=scripts/lsan.supp:print_suppressions=0" \
    UBSAN_OPTIONS="halt_on_error=1" \
    ./build-asan/tests/w5_tests
}

case "$leg" in
  tsan) run_tsan ;;
  asan) run_asan ;;
  all)  run_tsan; run_asan ;;
  *) echo "usage: $0 [tsan|asan|all]" >&2; exit 2 ;;
esac
echo "sanitizers: all clean"
