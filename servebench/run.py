#!/usr/bin/env python3
"""Entry point of the served-evaluation benchmark.

    python3 servebench/run.py --workload anneal-throughput --seed 1 \
        --seconds 15 --trace 0

Run from the root of a wirepipe checkout. Builds the servebench package
(servebench/CMakeLists.txt: wp_core, wirepipe_evald and the servebench
client) into $CARGO_TARGET_DIR/servebench (default .bench_build), runs one
benchmark run, and forwards the client's report. The last line of stdout
is the run's JSON result; nothing is printed to stdout when the build or
the run fails, and the exit code is then non-zero.

The client runs in its own process group with the daemons it forks; the
group is killed and waited for on every exit path.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("anneal-throughput", "anneal-area", "sim-query")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "servebench")


def build():
    """Configures (once) and builds the package; returns the build dir."""
    for needed in ("CMakeLists.txt", "src", "examples/wirepipe_evald.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"servebench: {needed} not found next to servebench/; "
                     "run from a wirepipe checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"servebench: build step failed: {' '.join(step)}")
    return out


def stop_group(proc):
    """Kills the client's process group, reaps the client, and waits until
    the group is empty (a daemon orphaned by the kill is reaped by init)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_client(args, out, extra=()):
    """Runs the client once; returns its stdout lines (exits on failure)."""
    socket_dir = os.path.join(out, "run")
    os.makedirs(socket_dir, exist_ok=True)
    cmd = [os.path.join(out, "servebench"),
           "--evald", os.path.join(out, "wirepipe_evald"),
           "--socket-dir", os.path.relpath(socket_dir, ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    # No WIREPIPE_* setting reaches the client: WIREPIPE_TRACE, for one,
    # would switch span recording on in its in-process replay.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("WIREPIPE_")}
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        stop_group(proc)
        raise
    stop_group(proc)
    if proc.returncode != 0:
        sys.exit(f"servebench: client exited with {proc.returncode}")
    lines = stdout.splitlines()
    if not lines:
        sys.exit("servebench: client printed nothing")
    json.loads(lines[-1])  # the result line must parse
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    # SIGTERM unwinds like Ctrl-C, so the client's group is still stopped.
    signal.signal(signal.SIGTERM, lambda sig, _: sys.exit(128 + sig))
    args = parse_args(argv)
    out = build()
    lines = run_client(args, out)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
