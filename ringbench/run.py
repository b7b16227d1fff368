#!/usr/bin/env python3
"""Builds and runs the serving-stack benchmark (see README.md).

    python3 ringbench/run.py --workload camera_dn --seed 1 --seconds 30 --trace 0
    python3 ringbench/run.py --workload all --seconds 30
    python3 ringbench/run.py --selfcheck

Run from the root of a checkout. The program is built from the sources
in that checkout into .bench_build/ringbench (first run only; later runs
only re-check the build). The last line of standard output is the JSON
result of the benchmark binary; build logs and errors go to standard
error, and a failed build or run exits nonzero without a result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ringbench")
BINARY = os.path.join(BUILD, "ringbench")
WORKLOADS = ["camera_dn", "photo_int8", "screen_sr"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("ringbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the benchmark; logs go to stderr."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources at %s/src: run from a full checkout" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if r.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)), 3)
    return r.returncode, r.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def binary_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out",
                 os.path.join(traces, "%s-seed%d.tsv" % (workload, seed))]
    return args + list(extra)


def run_all(seed, seconds, trace):
    """Each workload in turn; one summary line keyed workload/metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        code, out = run_binary(binary_args(w, seed, seconds, trace))
        sys.stdout.write(out)
        if code != 0:
            fail("%s exited with %d" % (w, code), code)
        res = result_of(out)
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            merged["metrics"]["%s/%s" % (w, name)] = m
    for w in WORKLOADS:
        row = ["%s=%.4g %s" % (k.split("/", 1)[1], m["value"], m["unit"])
               for k, m in merged["metrics"].items() if k.startswith(w + "/")]
        print("# %-11s %s" % (w, ", ".join(row)))
    print(json.dumps(merged))


def selfcheck():
    """Short runs of every workload in both modes: every metric named in
    BENCHMARK.json must be reported with its unit, every response must
    check, and a corrupted reference digest must count as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(binary_args(w, 1, 1, trace))
            res = result_of(out) if code == 0 else None
            if res is None:
                problems.append("%s trace=%d: exit %d, no result" %
                                (w, trace, code))
                continue
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s trace=%d: %d of %d failed" %
                                (w, trace, res["failed"], res["attempted"]))
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s trace=%d: %s missing" %
                                    (w, trace, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append("%s trace=%d: %s has no unit %s or value" %
                                    (w, trace, m["name"], m["unit"]))
        code, out = run_binary(binary_args(w, 1, 1, 0, ["--corrupt-digest"]))
        res = result_of(out) if code == 0 else None
        if res is None or res["correct"] or res["failed"] < 1:
            problems.append("%s: corrupted reference digest not counted as "
                            "a failed operation" % w)
        print("# selfcheck %-11s done" % w, flush=True)
    for p in problems:
        print("# selfcheck FAIL: " + p)
    print("# selfcheck %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    if not a.selfcheck and a.workload is None:
        ap.error("--workload or --selfcheck is required")
    build()
    if a.selfcheck:
        return selfcheck()
    if a.workload == "all":
        run_all(a.seed, a.seconds, a.trace)
        return 0
    code, out = run_binary(binary_args(a.workload, a.seed, a.seconds,
                                       a.trace))
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        fail("benchmark exited with %d" % code, code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
