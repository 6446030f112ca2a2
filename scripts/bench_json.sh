#!/usr/bin/env bash
# Runs a benchmark suite and records machine-readable results in
# BENCH_<suite>.json (google-benchmark's JSON format plus a
# "metrics_snapshot" key holding the bench-reported telemetry counters,
# one file the roadmap's perf tracking can diff across commits).
#
#   scripts/bench_json.sh                    # concurrency suite (default)
#   scripts/bench_json.sh observability      # E13: two-build overhead check
#   BUILD_DIR=build-opt scripts/bench_json.sh
#
# The observability suite builds the tree twice — once as-is and once
# with -DW5_NO_TELEMETRY=ON — runs every BM_ObservedPipeline* bench in
# both (the in-process gateway pipeline AND the reactor TCP path, whose
# telemetry includes stage spans and histogram exemplars), and fails if
# the telemetry plane costs more than W5_OVERHEAD_BUDGET percent
# (default 5) of baseline throughput.
set -euo pipefail
cd "$(dirname "$0")/.."

suite="${1:-concurrency}"
build_dir="${BUILD_DIR:-build}"
out="${OUT:-BENCH_${suite}.json}"
jobs="$(nproc 2>/dev/null || echo 4)"

build_bench() {  # build_bench <dir> <target> [extra cmake args...]
  local dir="$1" target="$2"
  shift 2
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs" --target "$target" >/dev/null
}

run_bench() {  # run_bench <dir> <target> <out.json> [filter] [repetitions]
  local dir="$1" target="$2" json="$3" filter="${4:-}" reps="${5:-1}"
  "$dir/bench/$target" \
    --benchmark_min_time=0.5 \
    --benchmark_repetitions="$reps" \
    ${filter:+--benchmark_filter="$filter"} \
    --benchmark_format=json >"$json"
}

# Pulls per-benchmark user counters (req_per_s, the BM_MetricsSnapshot_*
# primitive costs, telemetry_enabled, the conn_* connection-plane gauges
# and the idle-sweep cpu numbers) up into a "metrics_snapshot" key so
# the telemetry numbers sit next to the timing numbers they explain.
annotate_snapshot() {  # annotate_snapshot <json>
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
data = json.load(open(path))
snapshot = {}
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    for key, value in b.items():
        if key in ("req_per_s", "telemetry_enabled", "final",
                   "cpu_core_pct", "open_conns", "idle_conns") or \
           key.startswith(("snap_", "conn_")):
            snapshot[f"{name}.{key}"] = value
data["metrics_snapshot"] = snapshot
json.dump(data, open(path, "w"), indent=1)
EOF
}

case "$suite" in
concurrency)
  build_bench "$build_dir" bench_concurrency
  run_bench "$build_dir" bench_concurrency "$out"
  annotate_snapshot "$out"
  echo "wrote $out"
  # Headlines: in-process mixed pipeline, the TCP reactor at one loop vs
  # four (E12b), and the idle keep-alive CPU sweep (E12c).
  python3 - "$out" <<'EOF' 2>/dev/null || true
import json, sys
data = json.load(open(sys.argv[1]))
tcp = {}
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    if name.startswith(("BM_MixedRequestPipeline", "BM_TcpMixedPipeline")):
        print(f'{name}: {b.get("items_per_second", 0):,.0f} req/s')
        if name.startswith("BM_TcpMixedPipeline"):
            tcp[name] = b.get("items_per_second", 0)
    if name.startswith("BM_IdleConnectionCpu"):
        print(f'{name}: {b.get("open_conns", 0):,.0f} idle conns at '
              f'{b.get("cpu_core_pct", 0):.2f}% of a core')
one_loop = tcp.get("BM_TcpMixedPipeline_EventLoop/real_time/threads:8", 0)
four_loops = tcp.get("BM_TcpMixedPipeline_FourLoops/real_time/threads:8", 0)
if one_loop and four_loops:
    print(f"4 loops vs 1 loop at 8 clients: {four_loops / one_loop:.2f}x")
EOF
  ;;

observability)
  budget="${W5_OVERHEAD_BUDGET:-5}"
  rounds="${W5_OVERHEAD_ROUNDS:-3}"
  base_dir="${BASELINE_BUILD_DIR:-build-notelemetry}"
  build_bench "$build_dir" bench_observability
  build_bench "$base_dir" bench_observability -DW5_NO_TELEMETRY=ON
  run_bench "$build_dir" bench_observability "$out"
  # The budget comparison interleaves the two builds across several
  # process-level rounds and compares each build's BEST run per thread
  # count. On a shared box, interference only ever slows a run down, so
  # the per-build minimum is the noise-robust estimator; two sequential
  # blocks of repetitions would fold load drift straight into the
  # verdict.
  for round in $(seq "$rounds"); do
    run_bench "$build_dir" bench_observability \
      "/tmp/bench_obs_on_${round}.json" 'BM_ObservedPipeline' 2
    run_bench "$base_dir" bench_observability \
      "/tmp/bench_obs_off_${round}.json" 'BM_ObservedPipeline' 2
  done
  python3 - "$out" "$budget" "$rounds" "$jobs" <<'EOF'
import json, re, sys
out_path, budget, rounds = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
ncpu = int(sys.argv[4])

def best_rates(paths):
    best = {}
    for path in paths:
        data = json.load(open(path))
        for b in data.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                continue
            name = b.get("name", "")
            if name.startswith("BM_ObservedPipeline"):
                rate = b.get("items_per_second", 0.0)
                best[name] = max(best.get(name, 0.0), rate)
    return best

on_rates = best_rates(
    [f"/tmp/bench_obs_on_{r}.json" for r in range(1, rounds + 1)])
off_rates = best_rates(
    [f"/tmp/bench_obs_off_{r}.json" for r in range(1, rounds + 1)])
overhead = {}
worst = 0.0
for name, base in off_rates.items():
    with_telemetry = on_rates.get(name, 0.0)
    if base <= 0 or with_telemetry <= 0:
        continue
    pct = (base - with_telemetry) / base * 100.0
    overhead[name] = round(pct, 2)
    # Thread counts beyond the core count measure scheduler preemption
    # (lock-holder preemption under oversubscription), not the telemetry
    # plane; report them but gate only configs the hardware can run.
    m = re.search(r"threads:(\d+)", name)
    gated = m is None or int(m.group(1)) <= ncpu
    if gated:
        worst = max(worst, pct)
    print(f"{name}: best {with_telemetry:,.0f} req/s on, "
          f"{base:,.0f} req/s off, overhead {pct:+.2f}%"
          f"{'' if gated else ' (not gated: threads > cores)'}")

out = json.load(open(out_path))
out["baseline_no_telemetry"] = json.load(
    open(f"/tmp/bench_obs_off_{rounds}.json")).get("benchmarks", [])
out["overhead_percent"] = overhead
out["overhead_budget_percent"] = budget
out["overhead_method"] = (
    f"best-of-{rounds} interleaved rounds x2 reps per build")
json.dump(out, open(out_path, "w"), indent=1)
if worst > budget:
    print(f"FAIL: telemetry overhead {worst:.2f}% exceeds budget {budget}%")
    sys.exit(1)
print(f"telemetry overhead within budget ({worst:.2f}% <= {budget}%)")
EOF
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;

robustness)
  # E14: tail latency and liveness under deterministic fault injection.
  # Gates: p99 at 10% per-op faults stays within a bounded multiple of
  # the clean p99 (the robustness machinery must degrade, not collapse),
  # the error rate stays within the injected-fault budget, and no worker
  # is ever left hung after the pooled chaos run.
  p99_factor="${W5_P99_FAULT_FACTOR:-50}"
  error_budget="${W5_ERROR_BUDGET:-0.5}"
  build_bench "$build_dir" bench_robustness
  run_bench "$build_dir" bench_robustness "$out"
  python3 - "$out" "$p99_factor" "$error_budget" <<'EOF'
import json, sys
path, p99_factor, error_budget = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
data = json.load(open(path))
p99 = {}
failures = []
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    if name.startswith("BM_FaultyPipeline/"):
        pct = int(name.rsplit("/", 1)[1])
        p99[pct] = b.get("p99_us", 0.0)
        rate = b.get("error_rate", 0.0)
        print(f"{name}: p99 {p99[pct]:.0f}us, error_rate {rate:.3f}")
        if rate > error_budget:
            failures.append(
                f"{name}: error_rate {rate:.3f} > budget {error_budget}")
    if name.startswith("BM_PooledChaos"):
        hung = b.get("hung_workers", 0.0)
        print(f"{name}: hung_workers {hung:.0f}, "
              f"served {b.get('connections_served', 0):.0f}")
        if hung != 0:
            failures.append(f"{name}: {hung:.0f} hung workers (want 0)")
if 0 in p99 and 10 in p99 and p99[0] > 0:
    ratio = p99[10] / p99[0]
    print(f"p99 inflation at 10% faults: {ratio:.1f}x (budget {p99_factor}x)")
    if ratio > p99_factor:
        failures.append(
            f"p99 at 10% faults is {ratio:.1f}x clean (> {p99_factor}x)")
data["e14_gates"] = {
    "p99_factor_budget": p99_factor,
    "error_budget": error_budget,
    "failures": failures,
}
json.dump(data, open(path, "w"), indent=1)
if failures:
    print("FAIL: " + "; ".join(failures))
    sys.exit(1)
print("E14 robustness gates passed")
EOF
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;

durability)
  # E15: the price of durability. Gates:
  #   - group-commit put p99 (fsync mode, multi-threaded) within
  #     W5_DURABILITY_P99_FACTOR (default 3) of the in-memory baseline
  #     once the irreducible device cost is added — a put arriving
  #     mid-batch waits out the in-flight fsync and then its own, so the
  #     floor is two raw fsyncs. A fsync-per-put regression (no group
  #     commit) lands at ~threads x fsync and fails the gate.
  #   - 4096-entry WAL replay under W5_RECOVERY_BUDGET_MS (default 500).
  #   - group commit over the reactor: BM_ReactorDurablePut (4 keep-alive
  #     clients, one inline loop) shares each fsync among >= 1.5 entries.
  #     A loop that blocks through every put's own fsync reads 1.00.
  factor="${W5_DURABILITY_P99_FACTOR:-3}"
  recovery_budget="${W5_RECOVERY_BUDGET_MS:-500}"
  build_bench "$build_dir" bench_durability
  run_bench "$build_dir" bench_durability "$out"
  python3 - "$out" "$factor" "$recovery_budget" <<'EOF'
import json, sys
path, factor, budget_ms = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
data = json.load(open(path))

p99 = {}       # benchmark name (sans /real_time) -> p99_us
recovery = {}  # entries -> wall ms
for b in data.get("benchmarks", []):
    name = b.get("name", "").removesuffix("/real_time")
    if "p99_us" in b:
        p99[name] = b["p99_us"]
    if name.startswith("BM_Recovery/"):
        t = b.get("real_time", 0.0)
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
        recovery[int(name.rsplit("/", 1)[1])] = t * scale

failures = []
base = p99.get("BM_GroupCommitPut/0/8")
floor = p99.get("BM_RawFsync")
if base is None or floor is None:
    failures.append("missing baseline (BM_GroupCommitPut/0/8) or "
                    "device floor (BM_RawFsync)")
else:
    limit = factor * (base + 2 * floor)
    print(f"in-memory p99 {base:.0f}us, device fsync p99 {floor:.0f}us "
          f"-> group-commit limit {limit:.0f}us (factor {factor})")
    for threads in (4, 8):
        name = f"BM_GroupCommitPut/3/{threads}"
        got = p99.get(name)
        if got is None:
            failures.append(f"missing {name}")
            continue
        verdict = "ok" if got <= limit else "FAIL"
        print(f"{name}: p99 {got:.0f}us ({verdict})")
        if got > limit:
            failures.append(f"{name}: p99 {got:.0f}us > {limit:.0f}us")

reactor = next((b for b in data.get("benchmarks", [])
                if b.get("name", "").startswith("BM_ReactorDurablePut")), None)
min_entries_per_fsync = 1.5
if reactor is None or "entries_per_fsync" not in reactor:
    failures.append("missing BM_ReactorDurablePut entries_per_fsync")
else:
    got = reactor["entries_per_fsync"]
    verdict = "ok" if got >= min_entries_per_fsync else "FAIL"
    print(f"BM_ReactorDurablePut: {reactor.get('put_per_s', 0):.0f} put/s, "
          f"{got:.2f} entries per fsync (min {min_entries_per_fsync}) "
          f"({verdict})")
    if got < min_entries_per_fsync:
        failures.append(f"BM_ReactorDurablePut: {got:.2f} entries per fsync "
                        f"< {min_entries_per_fsync}")

if 4096 not in recovery:
    failures.append("missing BM_Recovery/4096")
else:
    print(f"recovery of 4096-entry WAL: {recovery[4096]:.1f}ms "
          f"(budget {budget_ms:.0f}ms)")
    if recovery[4096] > budget_ms:
        failures.append(f"recovery {recovery[4096]:.1f}ms > {budget_ms}ms")

data["e15_gates"] = {
    "p99_factor": factor,
    "p99_gate": "fsync group-commit p99 <= factor * (inmem p99 + 2*fsync)",
    "recovery_budget_ms": budget_ms,
    "reactor_min_entries_per_fsync": min_entries_per_fsync,
    "failures": failures,
}
json.dump(data, open(path, "w"), indent=1)
if failures:
    print("FAIL: " + "; ".join(failures))
    sys.exit(1)
print("E15 durability gates passed")
EOF
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;

query)
  # E18: label-aware secondary indexes at 2^20 records. Gates:
  #   - indexed point-query p99 at least W5_QUERY_INDEX_FACTOR (default
  #     10) times faster than the forced predicate scan;
  #   - the §3.5 count channel closed: with quantization on, counts for
  #     populations n and n+1 are identical (quantized_delta == 0) while
  #     the unquantized probe still sees the insert (raw_delta == 1).
  factor="${W5_QUERY_INDEX_FACTOR:-10}"
  build_bench "$build_dir" bench_query
  run_bench "$build_dir" bench_query "$out"
  python3 - "$out" "$factor" <<'EOF'
import json, sys
path, factor = sys.argv[1], float(sys.argv[2])
data = json.load(open(path))
p99 = {}
channel = {}
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    if "p99_us" in b:
        p99[name] = b["p99_us"]
        print(f'{name}: p99 {b["p99_us"]:,.1f}us'
              + (f', {b["rows"]:.0f} rows' if "rows" in b else ""))
    if name.startswith("BM_QuantizedCountChannel"):
        channel = {k: b[k] for k in ("quantized_delta", "raw_delta",
                                     "quantum") if k in b}

failures = []
pairs = [("BM_PointQueryIndexed", "BM_PointQueryScan"),
         ("BM_OwnerQueryIndexed", "BM_OwnerQueryScan"),
         ("BM_DeepPageCursor", "BM_DeepPageOffset")]
speedups = {}
for fast, slow in pairs:
    if fast not in p99 or slow not in p99:
        failures.append(f"missing {fast} or {slow}")
        continue
    ratio = p99[slow] / p99[fast] if p99[fast] > 0 else 0.0
    speedups[f"{fast}_vs_{slow}"] = round(ratio, 1)
    gated = fast == "BM_PointQueryIndexed"
    print(f"{fast} vs {slow}: {ratio:,.1f}x"
          + ("" if gated else " (informational)"))
    if gated and ratio < factor:
        failures.append(
            f"indexed point query only {ratio:.1f}x faster than scan "
            f"(need {factor}x)")

if not channel:
    failures.append("missing BM_QuantizedCountChannel counters")
else:
    print(f"count channel at quantum {channel.get('quantum', 0):.0f}: "
          f"quantized_delta {channel.get('quantized_delta', -1):.0f}, "
          f"raw_delta {channel.get('raw_delta', -1):.0f}")
    if channel.get("quantized_delta") != 0:
        failures.append("quantized count leaked a single-record insert")
    if channel.get("raw_delta") != 1:
        failures.append("raw count probe broken (expected delta 1)")

data["e18_gates"] = {
    "index_speedup_factor": factor,
    "speedups_p99": speedups,
    "count_channel": channel,
    "failures": failures,
}
json.dump(data, open(path, "w"), indent=1)
if failures:
    print("FAIL: " + "; ".join(failures))
    sys.exit(1)
print("E18 query-engine gates passed")
EOF
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;

federation)
  # E16: the metasearch fan-out. Gates:
  #   - cutoff effectiveness: with one peer stalling 20 ms, the
  #     deadline-budgeted partial page beats the full-wait p99 by at
  #     least W5_FED_CUTOFF_FACTOR (default 2);
  #   - every budgeted page degraded (partial_pages == iterations) and
  #     no full-wait page did — the flag is load-bearing, not noise.
  cutoff_factor="${W5_FED_CUTOFF_FACTOR:-2}"
  build_bench "$build_dir" bench_federation
  run_bench "$build_dir" bench_federation "$out"
  python3 - "$out" "$cutoff_factor" <<'EOF'
import json, sys
path, factor = sys.argv[1], float(sys.argv[2])
data = json.load(open(path))
p99 = {}
partial = {}
iters = {}
for b in data.get("benchmarks", []):
    name = b.get("name", "")
    if name.startswith("BM_FanoutLatency/"):
        peers = int(name.rsplit("/", 1)[1])
        print(f"fan-out at {peers} peer(s): p99 {b.get('p99_us', 0):,.0f}us")
    if name.startswith(("BM_CutoffPartial", "BM_CutoffFullWait")):
        key = name.split("/")[0]
        p99[key] = b.get("p99_us", 0.0)
        partial[key] = b.get("partial_pages", 0.0)
        iters[key] = b.get("iterations", 0)

failures = []
budgeted = p99.get("BM_CutoffPartial")
fullwait = p99.get("BM_CutoffFullWait")
if budgeted is None or fullwait is None:
    failures.append("missing BM_CutoffPartial or BM_CutoffFullWait")
else:
    ratio = fullwait / budgeted if budgeted > 0 else 0.0
    print(f"cutoff effectiveness: partial p99 {budgeted:,.0f}us vs "
          f"full-wait p99 {fullwait:,.0f}us ({ratio:.1f}x, need {factor}x)")
    if ratio < factor:
        failures.append(
            f"partial p99 only {ratio:.1f}x better than full-wait "
            f"(need {factor}x)")
    if partial.get("BM_CutoffPartial", 0) < iters.get("BM_CutoffPartial", 1):
        failures.append("budgeted run served non-partial pages "
                        "(cutoff never fired)")
    if partial.get("BM_CutoffFullWait", 0) != 0:
        failures.append("full-wait run unexpectedly degraded to partial")

data["e16_gates"] = {
    "cutoff_factor_budget": factor,
    "partial_p99_us": budgeted,
    "fullwait_p99_us": fullwait,
    "failures": failures,
}
json.dump(data, open(path, "w"), indent=1)
if failures:
    print("FAIL: " + "; ".join(failures))
    sys.exit(1)
print("E16 federation gates passed")
EOF
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;

*)
  # Any other suite: run bench_<suite> as-is and annotate.
  build_bench "$build_dir" "bench_${suite}"
  run_bench "$build_dir" "bench_${suite}" "$out"
  annotate_snapshot "$out"
  echo "wrote $out"
  ;;
esac
