#!/usr/bin/env python3
"""Compare a Google Benchmark JSON run against a checked-in baseline.

Used by the CI perf-smoke job to keep the cycle kernel honest: the
micro benchmarks (bench/micro_kernel.cpp) are run with
--benchmark_format=json and compared against tools/bench_baseline.json.
A watched benchmark whose real_time regresses by more than the allowed
fraction fails the job.

Usage:
    bench_compare.py BASELINE.json CURRENT.json \
        [--max-regression 0.25] [--bench NAME ...] \
        [--pair NAME_A:NAME_B:MAX_RATIO ...] \
        [--counter-max NAME:COUNTER:MAX ...]

Without --bench, the default watch list is the acceptance-gate kernels:
BM_NetworkStepIdle, BM_NetworkStepModerateLoad and
BM_NetworkStepSaturated.  Benchmarks present in the baseline but absent
from the current run (or vice versa) are an error only when watched.

--pair gates a within-run ratio instead of a baseline comparison:
current[NAME_A] / current[NAME_B] must stay <= MAX_RATIO.  Machine
speed cancels out, so pair gates hold on any runner without touching
the checked-in baseline (used to bound the traced-vs-untraced step
overhead and to require a speedup of the tile-parallel step).

--counter-max gates a user counter from the current run against an
absolute bound: current[NAME].counters[COUNTER] <= MAX.  Counters such
as peak_slots are machine-independent, so this pins structural claims
(the slot table stays O(in-flight)) without a baseline.

Both inputs must come from a Release build end to end: the code under
measurement (context.ftmesh_build_type, stamped by bench/micro_kernel.cpp)
AND the benchmark library itself (context.library_build_type, stamped by
Google Benchmark).  A debug library skews timings even when the simulator
is -O2 — its timers and state machine sit inside the measured region — so
EITHER stamp reading non-release is refused (exit 2) unless
--allow-non-release is given; a file whose context lacks both stamps only
draws a warning, so hand-trimmed fixtures keep working.

The current run's host context is also checked for noise: when the 1-min
load average exceeds the CPU count, or a sharded benchmark (thread count
parsed from the tNxM capture suffix) asked for more threads than the host
has, a warning is printed and recorded into the JSON itself (context.
ftmesh_host_warnings) so archived artifacts distinguish noisy-host
regressions from real ones.  Warnings never fail the run.

Exit status: 0 = within budget, 1 = regression or missing benchmark,
2 = bad invocation / unreadable input / non-release input.
"""

import argparse
import json
import re
import sys

DEFAULT_WATCHED = [
    "BM_NetworkStepIdle",
    "BM_NetworkStepModerateLoad",
    "BM_NetworkStepSaturated",
]

# Google Benchmark JSON keys that are per-run metadata, not user counters.
_NON_COUNTER_KEYS = frozenset([
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "items_per_second",
    "bytes_per_second", "aggregate_name", "aggregate_unit", "label",
    "error_occurred", "error_message",
])


def check_build_type(path, doc, allow_non_release):
    """Refuse benchmark JSON measured from a non-release build (debug
    numbers are meaningless for gating).

    Two stamps are checked independently and BOTH must read release:
    context.ftmesh_build_type (bench/micro_kernel.cpp, the simulator code
    under measurement) and context.library_build_type (Google Benchmark's
    own stamp).  A debug benchmark library inflates every measured region
    — its timers, counters and state machine run inside the loop — so a
    Release simulator linked against a distro debug libbenchmark is still
    not a gateable measurement; build the library Release too (the CI
    perf-smoke leg compiles it from source)."""
    ctx = doc.get("context", {})
    stamps = [("ftmesh_build_type", ctx.get("ftmesh_build_type")),
              ("library_build_type", ctx.get("library_build_type"))]
    if all(value is None for _, value in stamps):
        print(f"bench_compare: WARNING: {path} has no build-type stamp; "
              "cannot confirm it came from a Release build",
              file=sys.stderr)
        return
    for source, build_type in stamps:
        if build_type is None:
            continue
        if build_type.lower() != "release":
            msg = (f"bench_compare: {path} was measured from a "
                   f"{build_type!r} build ({source}), not release")
            if allow_non_release:
                print(msg + " (allowed by --allow-non-release)",
                      file=sys.stderr)
                continue
            print(msg + "; re-run from a Release build or pass "
                  "--allow-non-release", file=sys.stderr)
            sys.exit(2)


# Sharded benchmarks encode their tile/thread shape as a tNxM capture
# suffix (BM_NetworkStepSharded/t4x4) and BM_ShardedScalingCurve as
# /mesh/tiles/threads args; both yield the requested thread count.
_THREADS_SUFFIX = re.compile(r"/t\d+x(\d+)(?:$|[/_])")
_THREADS_NAMED = re.compile(r"_t\d+x(\d+)(?:$|/)")
_THREADS_ARGS = re.compile(r"/\d+/\d+/(\d+)$")


def requested_threads(name):
    """Thread count a sharded benchmark asked for, or None."""
    for pat in (_THREADS_SUFFIX, _THREADS_NAMED, _THREADS_ARGS):
        m = pat.search(name)
        if m:
            return int(m.group(1))
    return None


def host_noise_warnings(doc):
    """Noise heuristics on the measuring host, from the run's context."""
    ctx = doc.get("context", {})
    warnings = []
    num_cpus = ctx.get("num_cpus")
    load_avg = ctx.get("load_avg") or []
    if num_cpus and load_avg and load_avg[0] > num_cpus:
        warnings.append(
            f"load_avg {load_avg[0]:.2f} exceeds num_cpus {num_cpus}: "
            "the host was busy; timings are suspect")
    if num_cpus:
        for b in doc.get("benchmarks", []):
            threads = requested_threads(b.get("name", ""))
            if threads is not None and threads > num_cpus:
                warnings.append(
                    f"{b['name']} wants {threads} step threads but the host "
                    f"has num_cpus {num_cpus}: sharded timings are "
                    "oversubscribed")
    return warnings


def annotate_host_warnings(path, doc, warnings):
    """Record noise warnings into the JSON so archived artifacts carry
    them; best-effort (a read-only file just keeps its stderr warning)."""
    doc.setdefault("context", {})["ftmesh_host_warnings"] = warnings
    try:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    except OSError as e:
        print(f"bench_compare: cannot annotate {path}: {e}", file=sys.stderr)


def load_runs(path, allow_non_release=False):
    """Returns ({name: real_time}, {name: {counter: value}}, doc) from a
    benchmark JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    check_build_type(path, doc, allow_non_release)
    times = {}
    counters = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used;
        # plain rows have no aggregate_name.
        if b.get("aggregate_name"):
            continue
        times[b["name"]] = float(b["real_time"])
        counters[b["name"]] = {
            k: float(v) for k, v in b.items()
            if k not in _NON_COUNTER_KEYS and isinstance(v, (int, float))
        }
    if not times:
        print(f"bench_compare: no benchmarks in {path}", file=sys.stderr)
        sys.exit(2)
    return times, counters, doc


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="checked-in reference JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional slowdown per watched benchmark "
        "(default: 0.25 = 25%%)",
    )
    ap.add_argument(
        "--bench",
        action="append",
        default=None,
        metavar="NAME",
        help="benchmark to gate on (repeatable; default: the step kernels)",
    )
    ap.add_argument(
        "--pair",
        action="append",
        default=[],
        metavar="A:B:MAX",
        help="within-run ratio gate: current[A]/current[B] <= MAX "
        "(repeatable; machine-independent)",
    )
    ap.add_argument(
        "--counter-max",
        action="append",
        default=[],
        metavar="NAME:COUNTER:MAX",
        help="absolute user-counter gate on the current run: "
        "current[NAME].COUNTER <= MAX (repeatable; machine-independent)",
    )
    ap.add_argument(
        "--allow-non-release",
        action="store_true",
        help="accept benchmark JSON from a non-release build "
        "(numbers will be meaningless; for plumbing tests only)",
    )
    args = ap.parse_args()
    watched = args.bench if args.bench else DEFAULT_WATCHED

    pairs = []
    for spec in args.pair:
        parts = spec.split(":")
        if len(parts) != 3:
            print(f"bench_compare: bad --pair {spec!r} (want A:B:MAX)",
                  file=sys.stderr)
            sys.exit(2)
        try:
            pairs.append((parts[0], parts[1], float(parts[2])))
        except ValueError:
            print(f"bench_compare: bad --pair ratio in {spec!r}",
                  file=sys.stderr)
            sys.exit(2)

    counter_gates = []
    for spec in args.counter_max:
        # rsplit: benchmark names can themselves contain ':'
        # (e.g. BM_CampaignStreamed/iterations:1).
        parts = spec.rsplit(":", 2)
        if len(parts) != 3:
            print(f"bench_compare: bad --counter-max {spec!r} "
                  "(want NAME:COUNTER:MAX)", file=sys.stderr)
            sys.exit(2)
        try:
            counter_gates.append((parts[0], parts[1], float(parts[2])))
        except ValueError:
            print(f"bench_compare: bad --counter-max bound in {spec!r}",
                  file=sys.stderr)
            sys.exit(2)

    base, _, _ = load_runs(args.baseline, args.allow_non_release)
    cur, cur_counters, cur_doc = load_runs(args.current, args.allow_non_release)

    noise = host_noise_warnings(cur_doc)
    for w in noise:
        print(f"bench_compare: WARNING: {w}", file=sys.stderr)
    if noise:
        annotate_host_warnings(args.current, cur_doc, noise)

    failed = False
    width = max(len(n) for n in sorted(set(base) | set(cur)))
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  gate")
    for name in sorted(set(base) | set(cur)):
        gate = name in watched
        b, c = base.get(name), cur.get(name)
        if b is None or c is None:
            status = "MISSING from " + ("current" if c is None else "baseline")
            if gate:
                failed = True
                status += "  ** FAIL **"
            print(f"{name:<{width}}  {'-':>12}  {'-':>12}  {'-':>7}  {status}")
            continue
        ratio = c / b if b > 0 else float("inf")
        status = "watched" if gate else "-"
        if gate and ratio > 1.0 + args.max_regression:
            failed = True
            status = (f"** FAIL: {100.0 * (ratio - 1.0):.1f}% slower "
                      f"(budget {100.0 * args.max_regression:.0f}%) **")
        print(f"{name:<{width}}  {b:>12.1f}  {c:>12.1f}  {ratio:>6.2f}x  "
              f"{status}")

    for a, b, max_ratio in pairs:
        if a not in cur or b not in cur:
            missing = a if a not in cur else b
            print(f"pair {a}/{b}: {missing} MISSING from current  ** FAIL **")
            failed = True
            continue
        ratio = cur[a] / cur[b] if cur[b] > 0 else float("inf")
        status = "ok"
        if ratio > max_ratio:
            failed = True
            status = "** FAIL **"
        print(f"pair {a}/{b}: {ratio:.2f}x (budget {max_ratio:.2f}x)  "
              f"{status}")

    for name, counter, bound in counter_gates:
        value = cur_counters.get(name, {}).get(counter)
        if value is None:
            print(f"counter {name}.{counter}: MISSING from current  "
                  "** FAIL **")
            failed = True
            continue
        status = "ok"
        if value > bound:
            failed = True
            status = "** FAIL **"
        print(f"counter {name}.{counter}: {value:.0f} (bound {bound:.0f})  "
              f"{status}")

    if failed:
        print("\nbench_compare: performance regression detected",
              file=sys.stderr)
        return 1
    print("\nbench_compare: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
