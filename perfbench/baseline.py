"""Measure the benchmark's baseline: every workload on ten seeds, then one traced run each.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

Runs ``perfbench/run.py`` once per (workload, seed) in a fresh process, one at
a time, and records each end-to-end metric's median, quartiles and spread
(interquartile distance over the median), the per-layer metrics of one traced
run per workload, and the machine's CPU count and load average at the start.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "loadavg_at_start": list(os.getloadavg())},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in (w["name"] for w in bench["workloads"]):
        runs = [run(w, s, bench["run_seconds"], 0) for s in seeds]
        e2e = {m["name"]: summarize([res["metrics"][m["name"]]["value"] for _, res in runs])
               for m in bench["end_to_end"]}
        summary, traced = run(w, seeds[0], bench["run_seconds"], 1)
        out["workloads"][w] = {
            "end_to_end": e2e,
            "failed_ops": sum(res["failed"] for _, res in runs),
            "runs": [s for s, _ in runs],
            "traced": {"seed": seeds[0], "summary": summary,
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        print(w, {k: round(v["spread"], 3) for k, v in e2e.items()}, flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
