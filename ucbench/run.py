#!/usr/bin/env python3
"""Run one workload of the uclean end-to-end benchmark.

    python3 ucbench/run.py --workload serve_hot --seed 7 --seconds 10 --trace 0

Run from the repository root. Builds the benchmark package (ucbench/,
which builds the uclean library from ../src through the repository's
own CMakeLists.txt) into $CARGO_TARGET_DIR or .bench_build, checks the
benchmark's own arithmetic with ucbench_selftest, then runs the workload.
The last line of stdout is the run's JSON result; build and self-test
output go to stderr. Snapshots, the trace file and a provenance record
land in .ucbench_out/.

Exit status: the workload's (0 = every check passed); 1 when the build,
the self-test or the run fails, without printing a result when nothing
ran.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_clean", "campaign_deep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns (exit code or None on timeout, output)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("ucbench: no uclean sources at %s" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            return False
    jobs = str(len(os.sched_getaffinity(0)))
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "ucbench", "ucbench_selftest"], BUILD_TIMEOUT_S, sys.stderr)
    return code == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        print("ucbench: build failed", file=sys.stderr)
        return 1
    code, _ = run([os.path.join(build_dir, "ucbench_selftest")], 60, sys.stderr)
    if code != 0:
        print("ucbench: self-test failed", file=sys.stderr)
        return 1

    code, out = run([os.path.join(build_dir, "ucbench"),
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds),
                     "--trace", str(args.trace),
                     "--out", os.path.join(ROOT, ".ucbench_out")],
                    RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        print("ucbench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(out)
        print("ucbench: the run printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
