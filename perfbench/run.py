#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for dssj's streaming similarity join.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
generates the workload's input from --seed, and checks every run against
the single-node oracle. With --trace 0 it runs RunDistributedJoin in a
fresh process per run for about --seconds and reports the end-to-end
metrics as medians over those runs. With --trace 1 it makes one traced run
plus the layer probes (perfbench/probes.cc) and two untraced runs, and
reports the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it is the run header. Workloads and metrics are described in
perfbench/NOTES.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "dssj_perfbench")
BUILD_TYPE = "Release"

# Sizes and settings live in perfbench/workloads.cc. tweet_spill runs by
# hand but is not in BENCHMARK.json: it was too sensitive to load on the
# host to gate (see NOTES.md).
WORKLOADS = ("tweet_inproc", "tweet_paced", "dblp_cluster", "tweet_spill")

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "cpu_us_per_record": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# End-to-end figures that cannot be gated (see NOTES.md): the program
# quantizes latency percentiles, and p99 and source lag are too unsteady.
# They are stated in every run header, and reported as per-layer metrics
# (which have no bound) by traced runs.
UNGATED_UNITS = {
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "source_lag_ms": "ms",
}

# Layers whose self time, at the workload's own volume, is reported as a
# share of the workload's untraced wall time.
SHARE_LAYERS = ["workload", "core.partition", "core.router", "core.joiner", "net",
                "store.checkpoint", "store.spill", "stream.hop"]

PER_LAYER_UNITS = {
    "workload.generate_s": "s",
    "core.partition.plan_s": "s",
    "core.route.ns_per_record": "ns",
    "core.route.msgs_per_record": "count",
    "core.joiner.max_partition_s": "s",
    "core.joiner.sum_s": "s",
    "core.joiner.candidates": "count",
    "core.joiner.results_per_candidate": "ratio",
    "core.single_thread_rps": "1/s",
    "core.verify.block_s": "s",
    "core.verify.scalar_s": "s",
    **{f"stream.{stage}.{kind}_s": "s"
       for stage in ("source", "dispatcher", "joiner", "sink")
       for kind in ("busy", "idle", "blocked")},
    "stream.hop.ns_per_tuple.b1": "ns",
    "stream.hop.ns_per_tuple.b32": "ns",
    "stream.hop.mpmc_ns_per_tuple.b1": "ns",
    "stream.hop.mpmc_ns_per_tuple.b32": "ns",
    "stream.hop.wake_us": "us",
    "stream.hop.cpu_us_per_tuple": "us",
    "net.encode_ns_per_tuple": "ns",
    "net.parse_ns_per_tuple": "ns",
    "net.bytes_per_record": "B",
    "net.remote_bytes_per_record": "B",
    "store.checkpoint.freeze_us": "us",
    "store.checkpoint.encode_us": "us",
    "store.checkpoint.write_us": "us",
    "store.checkpoint.bytes": "B",
    "store.checkpoint.count": "count",
    "store.spill.reads": "count",
    "store.spill.probe_reads": "count",
    "store.spill.read_us": "us",
    "store.spill.share": "ratio",
    **{f"share.{layer}": "ratio" for layer in SHARE_LAYERS},
    **{f"ungated.{name}": unit for name, unit in UNGATED_UNITS.items()},
}

MIN_RUNS = 3            # untraced runs per measurement, at the least
TRACE_UNTRACED_RUNS = 2  # untraced runs beside the traced one
CHILD_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"perfbench: {msg}")
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no dssj sources under {ROOT}/src; run from a source checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=BUILD_DIR)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            fail(f"build failed: {' '.join(cmd)}")


def run_child(mode, args, tmp_root, extra=()):
    """Runs the benchmark binary once in a fresh process; returns its JSON."""
    os.makedirs(tmp_root, exist_ok=True)
    cmd = [BINARY, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--tmp", tmp_root, *extra]
    if args.records:
        cmd += ["--records", str(args.records)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, TMPDIR=tmp_root),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{mode} run exceeded {CHILD_TIMEOUT_S} s")
    finally:
        # Leftovers only exist when the child died before its own cleanup.
        for name in os.listdir(tmp_root):
            shutil.rmtree(os.path.join(tmp_root, name), ignore_errors=True)
    if proc.returncode != 0:
        log(proc.stderr.decode(errors="replace")[-4000:])
        fail(f"{mode} run exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may not
    be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def end_to_end(reps):
    """Medians over the runs: (gated metrics, ungated metrics)."""
    def med(f):
        return statistics.median(f(r) for r in reps)

    def lag_ms(r):
        # An unpaced source is due to emit everything at once, so its whole
        # run is lag; a paced one is due to finish after N / rate.
        due_s = r["records"] / r["arrival_rate"] if r["arrival_rate"] > 0 else 0.0
        return (r["wall_s"] - due_s) * 1e3

    gated = {
        "throughput_rps": med(lambda r: r["records"] / r["wall_s"]),
        "cpu_us_per_record": med(lambda r: r["cpu_s"] * 1e6 / r["records"]),
        "setup_s": med(lambda r: r["generate_s"] + r["plan_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }
    ungated = {
        "latency_p50_us": med(lambda r: r["latency_p50_us"]),
        "latency_p99_us": med(lambda r: r["latency_p99_us"]),
        "source_lag_ms": med(lag_ms),
    }
    return gated, ungated


def measure_untraced(args, tmp_root, oracle_pairs, min_runs, seconds):
    """Fresh-process runs until the next one would end past `seconds`.
    A run fails when the program reports !ok or its pair count is not the
    oracle's."""
    reps, failed = [], 0
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= min_runs and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
        rep = run_child("measure", args, tmp_root)
        reps.append(rep)
        if not rep["ok"] or rep["result_count"] != oracle_pairs:
            failed += 1
            log(f"run {len(reps)} FAILED: ok={rep['ok']} pairs={rep['result_count']} "
                f"oracle={oracle_pairs} {rep['failure']}")
    return reps, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--records", type=int, default=0,
                        help="override the workload's record count (self-test only)")
    args = parser.parse_args()

    build()
    tmp_root = os.path.join(BUILD_DIR, "tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": BUILD_TYPE,
        "trace": args.trace,
    }
    try:
        if args.trace:
            result = traced(args, tmp_root, header)
        else:
            result = untraced(args, tmp_root, header)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp_root))
        except OSError:
            pass
    print(json.dumps({"header": header}))
    print(json.dumps(result))


def untraced(args, tmp_root, header):
    oracle = run_child("oracle", args, tmp_root)
    reps, failed = measure_untraced(args, tmp_root, oracle["pairs"], MIN_RUNS, args.seconds)
    values, ungated = end_to_end(reps)
    header.update({
        "records": oracle["records"],
        "oracle_pairs": oracle["pairs"],
        "runs": len(reps),
        "failure_ratio": failed / len(reps),
        "latency_samples": sum(r["latency_count"] for r in reps),
        "ungated": ungated,
        "trace_overhead_s": None,  # measured by --trace 1 runs
    })
    log(f"{args.workload} seed={args.seed}: {len(reps)} runs, oracle {oracle['pairs']} pairs, "
        f"{failed} failed")
    for name, value in values.items():
        log(f"  {name:20s} {value:14.4f} {END_TO_END_UNITS[name]}")
    for name, value in ungated.items():
        log(f"  {name:20s} {value:14.4f} {UNGATED_UNITS[name]} (ungated)")
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def traced(args, tmp_root, header):
    traces = os.path.join(BUILD_DIR, "traces")
    os.makedirs(traces, exist_ok=True)
    spans_path = os.path.join(traces, f"{args.workload}-{args.seed}.json")
    trace = run_child("trace", args, tmp_root, ["--spans", spans_path])
    checks = trace["checks"]
    oracle_pairs = checks["oracle_pairs"]
    reps, failed = measure_untraced(args, tmp_root, oracle_pairs, TRACE_UNTRACED_RUNS, 0)
    if not all(v for v in checks.values() if isinstance(v, bool)):
        failed += 1
        log(f"traced run FAILED its checks: {checks}")
    wall = statistics.median(r["wall_s"] for r in reps)
    values = dict(trace["metrics"])
    for layer in SHARE_LAYERS:
        values[f"share.{layer}"] = trace["layer_s"][layer] / wall
    for name, value in end_to_end(reps)[1].items():
        values[f"ungated.{name}"] = value
    missing = sorted(set(PER_LAYER_UNITS) - set(values))
    if missing:
        fail(f"trace run did not report {missing}")
    header.update({
        "records": trace["records"],
        "oracle_pairs": oracle_pairs,
        "runs": len(reps) + 1,
        "failure_ratio": failed / (len(reps) + 1),
        "latency_samples": sum(r["latency_count"] for r in reps),
        "untraced_wall_s": wall,
        "traced_wall_s": trace["run_wall_s"],
        "trace_overhead_s": trace["run_wall_s"] - wall,
        "spans": os.path.relpath(spans_path, ROOT),
        "checks": checks,
    })
    log(f"{args.workload} seed={args.seed}: traced run checks {checks}")
    log(f"  untraced wall {wall:.4f} s, traced wall {trace['run_wall_s']:.4f} s")
    for name in PER_LAYER_UNITS:
        log(f"  {name:36s} {values[name]:16.6f} {PER_LAYER_UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": len(reps) + 1,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()},
    }


if __name__ == "__main__":
    main()
