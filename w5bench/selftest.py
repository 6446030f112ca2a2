#!/usr/bin/env python3
"""Self-test of the W5 benchmark: one-second smoke runs of every workload.

    python3 w5bench/selftest.py

Run from the repository root. For each workload it checks that
  * every metric BENCHMARK.json names is printed, with its unit, by the
    untraced (--trace 0) and the traced (--trace 1) run;
  * every request was answered correctly (failed == 0, correct is true);
  * the same seed yields the same request-stream hash and another seed a
    different one;
  * a planted wrong expected body is counted as a failure.
Prints one line per check and exits non-zero if any fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args):
    """Runs the benchmark; returns (exit code, stdout lines)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=ROOT, capture_output=True, text=True)
    return done.returncode, done.stdout.strip().splitlines()


def result(workload, seed, trace, *extra):
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), *extra)
    if code != 0 or not lines:
        return None
    return json.loads(lines[-1])


def stream_hash(workload, seed):
    code, lines = bench("--workload", workload, "--seed", str(seed),
                        "--stream-hash")
    return lines[-1] if code == 0 and lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0

    def check(ok, what):
        nonlocal failures
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        failures += 0 if ok else 1

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            run = result(workload, 1, trace)
            check(run is not None, "%s --trace %d exits 0 with a result"
                  % (workload, trace))
            if run is None:
                continue
            check(run["correct"] and run["failed"] == 0
                  and run["attempted"] >= 1,
                  "%s --trace %d: %d attempted, %d failed, correct=%s"
                  % (workload, trace, run["attempted"], run["failed"],
                     run["correct"]))
            for metric in spec[key]:
                got = run["metrics"].get(metric["name"])
                check(got is not None and got["unit"] == metric["unit"]
                      and isinstance(got["value"], (int, float)),
                      "%s --trace %d prints %s [%s]"
                      % (workload, trace, metric["name"], metric["unit"]))
        first, again, other = (stream_hash(workload, 1),
                               stream_hash(workload, 1),
                               stream_hash(workload, 2))
        check(first is not None and first == again,
              "%s: seed 1 gives the same request stream twice" % workload)
        check(first is not None and first != other,
              "%s: seeds 1 and 2 give different request streams" % workload)
        planted = result(workload, 1, 0, "--plant-wrong-body")
        check(planted is not None and planted["failed"] >= 1
              and not planted["correct"],
              "%s: a planted wrong expected body counts as a failure"
              % workload)

    print("%d check(s) failed" % failures if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
