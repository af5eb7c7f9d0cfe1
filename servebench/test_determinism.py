#!/usr/bin/env python3
"""The benchmark's own test: exact work counters are pure functions of
(workload, seed).

    python3 servebench/test_determinism.py

For each workload, runs the client twice at the same seed on its
shortest list (--seconds 1: 100 requests) and compares the before/after
deltas of the daemon's anneal/*, pack/batch/*, graph/engine/*,
sim/golden_cache/*, stream/* and svc/server/* counters, taken from its
kStatsRequest scrapes. With one connection and one worker they must be
identical: any difference means the served work depends on something
other than the request list. Also checks that the counters the workload
exists to exercise are nonzero.
Exit code 0 when every workload passes.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEED = 7
# Counters each workload must move (a run that did no such work is wrong).
MUST_MOVE = {
    "anneal-throughput": ("anneal/evaluations", "graph/engine/queries"),
    "anneal-area": ("anneal/evaluations", "pack/batch/prime_evals"),
    "sim-query": ("sim/golden_cache/hits", "sim/golden_cache/golden_runs",
                  "stream/runs"),
}


def counter_deltas(workload, out, path):
    args = argparse.Namespace(workload=workload, seed=SEED, seconds=1,
                              trace=0)
    run.run_client(args, out, extra=("--counters-out", path))
    with open(path) as f:
        return dict(line.split() for line in f if line.strip())


def main():
    out = run.build()
    failures = 0
    for workload in run.WORKLOADS:
        first, second = (
            counter_deltas(workload, out,
                           os.path.join(out, f"counters-{workload}-{i}.txt"))
            for i in range(2))
        problems = [f"{name}: {first.get(name)} vs {second.get(name)}"
                    for name in sorted(set(first) | set(second))
                    if first.get(name) != second.get(name)]
        problems += [f"{name} did not move" for name in MUST_MOVE[workload]
                     if int(first.get(name, "0")) == 0]
        verdict = "FAIL" if problems else "ok"
        print(f"{workload}: {len(first)} counters, {verdict}")
        for problem in problems:
            print(f"  {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
