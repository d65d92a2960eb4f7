"""Run one nbpk benchmark workload and print its metrics as JSON on the last line.

    python3 perfbench/run.py --workload urn_warm --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload runs as a closed loop (one process, one
thread, each op starts when the previous one returns) for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` it runs the set-up and the
workload's fixed op list twice, untraced and then traced, and reports the
per-layer metrics; the spans are written to
``.perfbench_out/trace-<workload>.npz``.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread: keep numpy's BLAS pool from starting workers of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    import tracer
    import workloads
    LOAD_ERROR = None
except ImportError as exc:  # no nbpk sources next to the benchmark
    LOAD_ERROR = exc
IMPORT_S = time.perf_counter() - PROCESS_T0

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); import nbpk; "
                "print(time.perf_counter() - t)")
# Speed of the machine, sampled by a fixed kernel that shares no code with
# nbpk; times are scaled to a machine on which that kernel takes REF_S.
REF_S = 1.5e-3         # about its median on the 2-core Xeon the baseline was taken on
REF_EVERY_S = 0.1
REF_NEIGHBOURS = 2      # samples on each side whose median scales an op
REF_X = np.linspace(-5.0, 5.0, 4096)


def reference_seconds():
    """Wall time of the reference kernel: vectorised and scalar float work, 1-2 ms."""
    a = time.perf_counter()
    s = 0.0
    for _ in range(8):
        s += float(np.logaddexp(REF_X, np.log1p(np.exp(-REF_X * REF_X))).sum())
    for i in range(3000):
        s += math.exp(-i * 1e-3) * math.log1p(i)
    return time.perf_counter() - a


def speed_factors(op_starts, ref_times, ref_seconds):
    """Per op, REF_S over the median reference time of the samples around it.

    Multiplying a time by its factor gives the time on a machine of the
    reference speed; a shared machine whose speed drifts over seconds then
    reads the same throughout.
    """
    ref_seconds = np.asarray(ref_seconds)
    after = np.searchsorted(ref_times, op_starts)
    local = [np.median(ref_seconds[max(0, i - REF_NEIGHBOURS):i + REF_NEIGHBOURS])
             for i in range(len(ref_seconds) + 1)]
    return REF_S / np.asarray(local)[after]


def tail_latency(latencies):
    """(percentile, value): the highest percentile with at least TAIL_BEYOND ops above it.

    That is the (n - TAIL_BEYOND)-th smallest of n latencies, at percentile
    100 (n - TAIL_BEYOND) / n.  With TAIL_BEYOND ops or fewer it falls back to
    the maximum, reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def windows(values, window):
    """Consecutive windows of `window` values; the rest is left out.

    With fewer values than one window, all of them form one window.
    """
    size = min(window, len(values))
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


def run_op(workload, op):
    try:
        return workload.run(op)
    except Exception:  # a raising op counts as failed; the loop keeps going
        return None


def timed_loop(wl, ops, seconds):
    """Closed loop over the op iterator `ops` for `seconds`.

    Returns the ops, their output digests, start times, wall and CPU
    latencies, and the reference-kernel samples (time, seconds) taken at
    least every REF_EVERY_S between ops, outside the timed spans.
    """
    ops_done, digests, starts, lat, cpu = [], [], [], [], []
    ref_times, ref_secs = [time.perf_counter()], [reference_seconds()]
    t0 = next_ref = time.perf_counter()
    for op in ops:
        a, c = time.perf_counter(), time.process_time()
        out = run_op(wl, op)
        b, d = time.perf_counter(), time.process_time()
        starts.append(a)
        lat.append(b - a)
        cpu.append(d - c)
        ops_done.append(op)
        digests.append(None if out is None else wl.digest(out))
        if b >= next_ref:
            ref_times.append(b)
            ref_secs.append(reference_seconds())
            next_ref = time.perf_counter() + REF_EVERY_S
        if b - t0 >= seconds:
            break
    return ops_done, digests, starts, lat, cpu, (ref_times, ref_secs)


def import_seconds():
    """Import time of nbpk in fresh interpreters, SETUP_REPEATS - 1 of them."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def setup_seconds(wl):
    """Median import time plus median set-up time.

    One sample of each is too noisy on a shared machine, so the import is
    timed in this process and in fresh interpreters, and the set-up is run
    SETUP_REPEATS times from empty caches.
    """
    imports, setups = [IMPORT_S] + import_seconds(), []
    for _ in range(SETUP_REPEATS):
        a = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - a)
    return statistics.median(imports) + statistics.median(setups), {
        "imports_s": imports, "setups_s": setups}


def end_to_end(wl, seed, seconds):
    setup_s, setup_notes = setup_seconds(wl)
    stream = wl.ops(seed)
    ops, digests, starts, lat, cpu, refs = timed_loop(wl, stream, seconds)
    # The check may need more ops than a slow machine timed: run them untimed.
    n_timed = len(ops)
    for op in itertools.islice(stream, max(0, wl.min_ops - n_timed)):
        out = run_op(wl, op)
        ops.append(op)
        digests.append(None if out is None else wl.digest(out))
    failed, notes = wl.check(ops, digests)
    n, n_failed = len(ops), sum(failed)
    # Every window is whole passes, so the same op mix wherever the clock
    # stopped, and medians over windows keep a stall from setting a result.
    scale = speed_factors(starts, *refs)
    lat_w = windows((scale * lat).tolist(), wl.window)
    cpu_w = windows((scale * cpu).tolist(), wl.window)
    metrics = {
        # The reference samples of the timed loop stand for the run's speed:
        # samples taken between set-up steps read slow after a child exits.
        "setup_s": (REF_S / statistics.median(refs[1]) * setup_s, "s"),
        "ops_per_s": (statistics.median(len(w) / sum(w) for w in lat_w), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(statistics.median(w) for w in lat_w), "ms"),
        "op_ms_tail": (1e3 * statistics.median(tail_latency(w)[1] for w in lat_w), "ms"),
        "cpu_ms_per_op": (1e3 * statistics.median(sum(w) / len(w) for w in cpu_w), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((n - n_failed) / n, "ratio"),
    }
    summary = {"ops": n, "untimed_ops": n - n_timed, "failed": n_failed,
               "windows": len(lat_w), "ops_per_window": len(lat_w[0]),
               "tail_percentile": tail_latency(lat_w[0])[0],
               "raw_ops_per_s": statistics.median(len(w) / sum(w) for w in windows(lat, wl.window)),
               "ref_ms": 1e3 * statistics.median(refs[1]), "ref_samples": len(refs[1]),
               **setup_notes, **notes}
    return n, n_failed, metrics, summary


def execute(wl, ops, rec=None):
    """Set up, then run ops; returns the output digests and the wall time of both.

    With a Tracer, each op's spans carry its index and the set-up's carry -1.
    """
    outs = []
    a = time.perf_counter()
    wl.setup()
    for i, op in enumerate(ops):
        if rec is not None:
            rec.op_id = i
        out = run_op(wl, op)
        outs.append(None if out is None else wl.digest(out))
    return outs, time.perf_counter() - a


def trace_run(wl, ops):
    """Set up and run ops under a fresh Tracer; returns it, the digests and the wall time."""
    rec = tracer.Tracer()
    with tracer.instrument(rec):
        outs, wall = execute(wl, ops, rec)
    return rec, outs, wall


def traced(wl, seed):
    ops = wl.trace_ops(seed)
    _, untraced_s = execute(wl, ops)
    rec, outs, traced_s = trace_run(wl, ops)
    failed, notes = wl.check(ops, outs)
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"trace-{wl.name}.npz"
    rec.save(spans)
    metrics = tracer.layer_metrics(rec, traced_s / untraced_s)
    summary = {"ops": len(ops), "failed": sum(failed), "untraced_s": untraced_s,
               "traced_s": traced_s, "spans": len(rec.name),
               "spans_file": str(spans.relative_to(ROOT)), **notes}
    return len(ops), sum(failed), metrics, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if LOAD_ERROR is not None:
        print(f"perfbench: cannot load nbpk: {LOAD_ERROR}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        attempted, failed, metrics, summary = traced(wl, args.seed)
    else:
        attempted, failed, metrics, summary = end_to_end(wl, args.seed, args.seconds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
