#!/usr/bin/env python3
"""End-to-end benchmark of the MRapid simulator.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

Builds perfbench_driver (CMake, Release, into .bench_build/ at the
repository root), then runs the named workload in fresh driver processes
until --seconds have passed (at least MIN_REPS times), checks every
job's result, and prints each metric by name and unit. The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, tracing off. --trace 1
alternates untraced and traced processes, checks that the traced run
simulated exactly the same thing, and reports the per-layer metrics.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("paper-sweep", "tenant-stream", "cluster-scale")
MIN_REPS = 3  # untraced processes per run; traced runs make at least one pair
DRIVER_TIMEOUT_S = 150

# The end-to-end metrics BENCHMARK.json bounds. The simulated ones and
# failed_frac are printed but not bounded: they are exact functions of
# the seed (the driver's `failed` field carries failures), and Hadoop-mode
# client polling rounds latencies to whole seconds, so on some workloads
# they read the same on every seed.
REPORTED_END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "sim_events_per_s")

# Percentiles the tail metric may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

# (name, unit). Most are the driver's layer counters under the same
# name; a counter the workload never produces (the payload probe on a
# stream, the AM pool in Hadoop mode) reads as 0 and prints "n/a".
PER_LAYER = [
    ("workloads.construct_calls", "count"), ("workloads.construct_s", "s"),
    ("workloads.map_calls", "count"), ("workloads.map_s", "s"),
    ("workloads.reduce_calls", "count"), ("workloads.reduce_s", "s"),
    ("workloads.partition_calls", "count"), ("workloads.partition_s", "s"),
    ("workloads.digest_calls", "count"), ("workloads.digest_s", "s"),
    ("workloads.share", "ratio"),
    ("harness.world_build_s", "s"), ("harness.boot_s", "s"), ("harness.run_s", "s"),
    ("harness.stream_wait_p50_s", "sim_s"), ("harness.stream_wait_tail_s", "sim_s"),
    ("sim.events", "count"), ("sim.queue_pushed", "count"), ("sim.queue_cancelled", "count"),
    ("sim.heap_peak", "count"), ("sim.slab_slots", "count"), ("sim.wheel_fired", "count"),
    ("sim.wheel_cancelled", "count"), ("sim.host_ns_per_event", "ns"),
    ("yarn.node_update_calls", "count"), ("yarn.node_update_s", "s"),
    ("yarn.container_request_calls", "count"), ("yarn.container_request_s", "s"),
    ("yarn.asks_queued", "count"), ("yarn.asks_delivered", "count"),
    ("yarn.asks_cancelled", "count"), ("yarn.asks_backfilled", "count"),
    ("yarn.lookups", "count"), ("yarn.first_fit_calls", "count"),
    ("yarn.first_fit_nodes_visited", "count"), ("yarn.tree_updates", "count"),
    ("cluster.flows_started", "count"), ("cluster.replans", "count"),
    ("cluster.links_scanned", "count"),
    ("mapreduce.fetches", "count"), ("mapreduce.coalesced_flows", "count"),
    ("mapreduce.partition_calls", "count"),
    ("hdfs.reads_node_local", "count"), ("hdfs.reads_rack_local", "count"),
    ("hdfs.reads_off_rack", "count"),
    ("mrapid.pool_free_slots", "count"),
    ("exp.worker_busy_frac", "ratio"), ("mem.rss_per_job_kb", "KiB"),
    ("sim_job_p50_s", "sim_s"), ("sim_job_tail_s", "sim_s"),
    ("trace_overhead_frac", "ratio"),
]


def quantile(samples, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(samples):
    """(percentile, value, samples beyond) for the highest TAIL_LADDER
    percentile with at least TAIL_MIN_BEYOND samples ranked above it.
    With too few samples for any, the median, with its own count."""
    n = len(samples)
    for pct in TAIL_LADDER:
        beyond = n - math.ceil(pct / 100.0 * n)
        if beyond >= TAIL_MIN_BEYOND or pct == 50.0:
            return pct, quantile(samples, pct / 100.0), beyond
    raise AssertionError("unreachable: the ladder ends at the median")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src", code=2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_driver(workload, seed, traced, verify=False):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if verify:
        cmd.append("--verify")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def simulated(rep):
    """What a rep simulated: must repeat exactly for one seed, traced or not."""
    layers = rep["layers"]
    counts = {k: v for k, v in layers.items()
              if not k.endswith("_s") and not k.endswith("_calls") and k != "exp.worker_busy_frac"
              and k != "workloads.share"}
    return (rep["digest"], rep["attempted"], rep["failed"], rep["job_latency_s"],
            rep["stream_wait_s"], counts)


def golden_problem(workload, seed, rep):
    """A mismatch against the digest recorded for this seed, if any."""
    with open(DIGESTS) as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is not None and recorded != rep["digest"]:
        return f"combined digest {rep['digest']} != recorded {recorded} at seed {seed}"
    return None


def end_to_end(reps):
    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    first = reps[0]
    latencies = first["job_latency_s"]
    events = first["layers"]["sim.events"]
    pct, tail_value, beyond = tail(latencies)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "wall_s": (wall, "s", f"host, median of {len(reps)} processes"),
        "setup_s": (statistics.median(statistics.median(r["setup_s"]) for r in reps), "s",
                    "host, median over processes of each one's set-up median"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB",
                        "getrusage max RSS, median"),
        "sim_events_per_s": (events / wall, "events/s", f"{events:.0f} events / wall_s"),
        "sim_job_p50_s": (quantile(latencies, 0.5) if latencies else 0.0, "sim_s",
                          f"{len(latencies)} jobs"),
        "sim_job_tail_s": (tail_value, "sim_s",
                           f"p{pct:g}, {beyond} samples beyond, n={len(latencies)}"
                           + (" (median only: too few samples)" if pct == 50.0 else "")),
        "failed_frac": (failed / attempted if attempted else 1.0, "ratio",
                        f"{failed} of {attempted} jobs"),
    }


def per_layer(traced_reps, untraced_reps):
    rep = traced_reps[0]
    layers = dict(rep["layers"])
    for name in {k for r in traced_reps for k in r["layers"] if k.endswith("_s")}:
        layers[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced_reps)
    if layers.get("sim.events"):
        layers["sim.host_ns_per_event"] = layers["harness.run_s"] * 1e9 / layers["sim.events"]
    jobs = rep["attempted"]
    if jobs:
        layers["mem.rss_per_job_kb"] = (
            statistics.median(r["peak_rss_mb"] - r["post_boot_rss_mb"] for r in traced_reps)
            * 1024.0 / jobs)
    if rep["stream_wait_s"] and rep["workload"] != "paper-sweep":
        layers["harness.stream_wait_p50_s"] = quantile(rep["stream_wait_s"], 0.5)
        layers["harness.stream_wait_tail_s"] = tail(rep["stream_wait_s"])[1]
    latencies = rep["job_latency_s"]
    layers["sim_job_p50_s"] = quantile(latencies, 0.5) if latencies else 0.0
    layers["sim_job_tail_s"] = tail(latencies)[1] if latencies else 0.0
    traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced_reps)
    layers["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: (layers.get(name, 0.0), unit, name in layers) for name, unit in PER_LAYER}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    untraced, traced, problems = [], [], []
    start = time.monotonic()
    while True:
        # The first process checks every job against the reference
        # executor; the rest must reproduce its results exactly.
        untraced.append(run_driver(args.workload, args.seed, traced=False, verify=not untraced))
        if args.trace:
            traced.append(run_driver(args.workload, args.seed, traced=True))
        enough = len(untraced) >= (1 if args.trace else MIN_REPS)
        if enough and time.monotonic() - start >= args.seconds:
            break

    reference = simulated(untraced[0])
    for rep in untraced + traced:
        if simulated(rep) != reference:
            problems.append(f"{'traced' if rep['trace'] else 'untraced'} process simulated "
                            "something else than the first (determinism or trace equivalence)")
            break
    for rep in untraced:
        problems.extend(rep["failures"])
    problem = golden_problem(args.workload, args.seed, untraced[0])
    if problem:
        problems.append(problem)

    print(f"perfbench {args.workload} seed={args.seed}: {len(untraced)} untraced"
          + (f" + {len(traced)} traced" if args.trace else "") + " processes")
    e2e = end_to_end(untraced)
    for name, (value, unit, note) in e2e.items():
        print(f"  {name:<20} {value:>14.6g} {unit:<9} {note}")
    metrics = {}
    if args.trace:
        print("  per layer (traced run):")
        for name, (value, unit, present) in per_layer(traced, untraced).items():
            shown = f"{value:>14.6g}" if present else f"{'n/a':>14}"
            print(f"  {name:<30} {shown} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name in REPORTED_END_TO_END:
            value, unit, _ = e2e[name]
            metrics[name] = {"value": value, "unit": unit}
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")

    attempted = sum(r["attempted"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
