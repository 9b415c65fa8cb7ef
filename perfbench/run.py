#!/usr/bin/env python3
"""HyRD benchmark entry point.

Builds hyrd_perfbench from this checkout's sources (into .bench_build/),
runs one workload in a fresh child process, reads the child's peak RSS
(VmHWM, via wait4) from outside, and prints the result:

    python3 perfbench/run.py --workload fleet-congested --seed 1 --seconds 30 --trace 0

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. The line before it is a detail report
(sample counts, checks, pass count). Exits non-zero, printing no result,
when the sources are missing, the build fails or the child fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "hyrd_perfbench")
WORKLOADS = ("fleet-congested", "fleet-churn-outage", "large-stripes")
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds hyrd_perfbench; output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no HyRD sources under {ROOT}/src")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "hyrd_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_child(argv):
    """Runs hyrd_perfbench; returns (exit code, stdout text, peak RSS in MB)."""
    proc = subprocess.Popen([BINARY] + argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0  # KiB -> MiB


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def params_differ(want, got):
    """Names of the parameters on which `got` differs from `want`, sorted.

    Numbers compare to a relative 1e-9, because hyrd_perfbench prints
    derived times (such as an outage window a third of a span long) with
    all their digits.
    """
    bad = [k for k in got if k not in want]
    for key, value in want.items():
        other = got.get(key)
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (value, other))
        same = (math.isclose(value, other, rel_tol=1e-9) if numbers
                else value == other)
        if not same:
            bad.append(key)
    return sorted(bad)


def spec_params(workload):
    with open(os.path.join(HERE, "spec.json")) as f:
        return json.load(f)["workloads"][workload]["params"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (the benchmark's own tests)")
    ap.add_argument("--selftest", action="store_true",
                    help="run hyrd_perfbench's self-test and exit")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    if args.selftest:
        return subprocess.run([BINARY, "--selftest"], cwd=ROOT).returncode

    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    code, out, peak_rss_mb = run_child(argv)
    lines = [line for line in out.splitlines() if line.strip()]
    if code != 0 or len(lines) < 2:
        log(f"hyrd_perfbench exited with {code} and {len(lines)} output lines")
        return 1
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    if not args.smoke:
        # spec.json records the parameters; the program must have run them.
        bad = params_differ(spec_params(args.workload), report["report"]["params"])
        if bad:
            log(f"parameters differ from perfbench/spec.json: {bad}")
            return 1

    if args.trace == 0:
        # Peak resident set of the whole run, read from outside the process.
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        report["report"]["samples"]["peak_rss_mb"] = 1
    names = declared_metrics(args.trace)
    if names is not None:
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            log(f"hyrd_perfbench did not report {missing}")
            return 1
        # Measured but too noisy on a shared host to carry a bound: kept in
        # the detail report with their units.
        report["report"]["unbounded_metrics"] = {
            n: m for n, m in result["metrics"].items() if n not in names}
        result["metrics"] = {n: result["metrics"][n] for n in names}

    print(json.dumps(report))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}), flush=True)
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
