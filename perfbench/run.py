#!/usr/bin/env python3
"""End-to-end benchmark of the ftmesh simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper-headline --seed 1 --seconds 30 --trace 0

The script builds perfbench/ (which compiles the library from src/) in
Release mode under $CARGO_TARGET_DIR/perfbench (default .bench_build), runs
one workload for the given number of seconds and prints, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones.  Each metric is the median of its samples.

Workloads, metric meanings and the layer -> end-to-end predictions are
recorded in BENCHMARK.json and perfbench/README.md.  The full report of
every invocation (samples, medians, host stamp, failed checks) is written to
<build>/results/, and the traced pass's spans to <build>/runs/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
DEADLINE_S = 175.0  # the benchmark must end within 180 s once built
LOADED_SHARE = 0.5  # 1-minute load average above this share of CPUs


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def load_spec():
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the benchmark program; returns (binary, build dir)."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        fail(2, "src/CMakeLists.txt not found: run from a full checkout")
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ftmesh_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail(3, "build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "ftmesh_perfbench"), build_dir


def host_load():
    """CPU count and load average, read before the benchmark adds its own."""
    cpus = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "nproc": cpus,
        "loadavg": [round(x, 2) for x in load],
        "loaded": load[0] > LOADED_SHARE * cpus,
    }


def main():
    args = parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(2, f"unknown workload {args.workload!r}; choose from {names}")
    started = time.monotonic()
    host = host_load()
    binary, build_dir = build()
    runs_dir = os.path.join(build_dir, "runs")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(runs_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", runs_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        fail(4, f"ftmesh_perfbench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    host.update({k: raw[k] for k in ("compiler", "build_type", "assertions")})
    if raw["build_type"] != "Release" or raw["assertions"]:
        fail(5, f"refusing a {raw['build_type']} build (assertions "
                f"{'on' if raw['assertions'] else 'off'}): numbers need Release")
    if host["loaded"]:
        print(f"perfbench: warning: loaded host, load average {host['loadavg'][0]} "
              f"on {host['nproc']} CPUs", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        samples = raw["samples"].get(m["name"])
        if not samples:
            fail(6, f"ftmesh_perfbench reported no samples for {m['name']}")
        metrics[m["name"]] = {"value": statistics.median(samples), "unit": m["unit"]}

    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "failed_share": raw["failed"] / max(1, raw["attempted"]),
        "failures": raw["failures"], "samples": raw["samples"],
        "elapsed_s": time.monotonic() - started, "result": result,
    }
    path = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)

    for failure in raw["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"host": host, "failed_share": report["failed_share"]}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
