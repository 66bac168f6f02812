#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its metrics.

    python3 perfbench/run.py --workload serve_hot|campaign|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds
perfbench/ (the repository plus the measuring program) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The measuring program's stdout ends with one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1; a layer the workload never calls reads 0 and is
listed under "not_exercised" in the artifact line before it). The exit code
is 0 only when every output was checked correct.
"""

import argparse
import ctypes
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170.0


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", out, "--target", "sre_serve", "perfbench_measure",
           "-j", jobs]
    return subprocess.call(cmd, stdout=sys.stderr) == 0


def die_with_parent():
    # The measuring program (and, through it, sre_serve) never outlives this
    # script.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def run_measure(out, workload, args, deadline):
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench_measure"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve", os.path.join(out, "sre", "tools", "sre_serve"),
           "--work-dir", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench_measure overran its time budget")
        return None, None, 1
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if len(lines) < 2:
        log("perfbench_measure printed no result (exit %d)" % proc.returncode)
        return None, None, proc.returncode or 1
    artifact = json.loads(lines[-2])
    result = json.loads(lines[-1])
    return artifact, result, proc.returncode


def complete(spec, result, artifact, trace):
    """Checks the metric set against BENCHMARK.json; fills unexercised layers."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    problems = []
    for name, m in metrics.items():
        if name not in names:
            problems.append("metric %s is not in BENCHMARK.json" % name)
        elif m["unit"] != names[name]:
            problems.append("metric %s has unit %s, not %s" % (name, m["unit"], names[name]))
        elif not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append("metric %s is not a finite number" % name)
    missing = [n for n in names if n not in metrics]
    if trace:
        artifact["artifact"]["not_exercised"] = missing
        for name in missing:
            metrics[name] = {"value": 0, "unit": names[name]}
    elif missing:
        problems.append("end-to-end metrics missing: %s" % ", ".join(missing))
    for p in problems:
        log(p)
    if problems:
        result["correct"] = False
        result["failed"] += len(problems)
    result["metrics"] = {n: metrics[n] for n in names}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    start = time.monotonic()  # the budget covers measuring, not building
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log("unknown workload %s (have: %s)" % (args.workload, ", ".join(names)))
        return 2

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in workloads:
        deadline = start + RUN_BUDGET_S * (workloads.index(workload) + 1)
        artifact, result, rc = run_measure(out, workload, args, deadline)
        if result is None:
            return rc or 1
        result = complete(spec, result, artifact, args.trace == 1)
        print(json.dumps(artifact))
        if len(workloads) > 1:
            print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if len(workloads) == 1 else workload + "." + name
            combined["metrics"][key] = m
        if rc != 0 or not result["correct"]:
            code = 1
    print(json.dumps(combined), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
