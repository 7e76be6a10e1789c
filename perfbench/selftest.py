#!/usr/bin/env python3
"""Self-test for the benchmark, run at a tiny input size.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload run.py accepts, untraced and traced, it checks that:
  - the run prints exactly the metrics BENCHMARK.json names, each with its
    unit (end_to_end untraced, per_layer traced);
  - the run is correct with failure_ratio == 0;
  - in the traced run, no span's self time exceeds its parent's duration;
  - the run leaves no temporary directory behind, in the system temporary
    directory or in the benchmark's own.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
RECORDS = 3000
TEMP_PREFIXES = ("store_", "spill", "ckpt_", "replay_")


def temp_entries():
    system_tmp = tempfile.gettempdir()
    return {n for n in os.listdir(system_tmp) if n.startswith(TEMP_PREFIXES)}


def check_spans(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    duration = [s["end_ns"] - s["start_ns"] for s in spans]
    self_time = list(duration)
    for s in spans:
        if s["parent"] >= 0:
            self_time[s["parent"]] -= duration[s["id"]]
    bad = [s["name"] for s in spans
           if s["parent"] >= 0 and self_time[s["id"]] > duration[s["parent"]]]
    return len(spans), bad


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            before = temp_entries()
            known_problems = len(problems)
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
                   "--records", str(RECORDS)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr.decode(errors='replace')[-2000:]}")
                continue
            lines = proc.stdout.decode().strip().splitlines()
            header = json.loads(lines[-2])["header"]
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"]
                        for m in manifest["per_layer" if trace else "end_to_end"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, units "
                                f"{[k for k in got if k in expected and got[k] != expected[k]]}")
            if not result["correct"] or result["failed"] != 0 or header["failure_ratio"] != 0:
                problems.append(f"{label}: correct={result['correct']} "
                                f"failed={result['failed']} of {result['attempted']}")
            if trace:
                count, bad = check_spans(os.path.join(ROOT, header["spans"]))
                if count == 0 or bad:
                    problems.append(f"{label}: {count} spans, self time over parent in {bad}")
            leaked = temp_entries() - before
            own_tmp = os.path.join(ROOT, ".bench_build", "perfbench", "tmp")
            if leaked or (os.path.isdir(own_tmp) and os.listdir(own_tmp)):
                problems.append(f"{label}: temporary files left behind: {sorted(leaked)} "
                                f"{os.listdir(own_tmp) if os.path.isdir(own_tmp) else []}")
            print(f"{label}: {'ok' if len(problems) == known_problems else 'FAIL'}", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
