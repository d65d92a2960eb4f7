"""Paired benchmark runs of a parent revision against this checkout.

    python3 tools/bench_pairs.py --parent HEAD --seeds $(seq 31 40) --out BENCH_11.json

The parent revision is unpacked with ``git archive`` into a temporary
directory; the change is the working tree this script sits in.  For every
workload that ``BENCHMARK.json`` declares and each seed (at least ten),
``perfbench/run.py`` runs once on each side, one side right after the other,
and the side that runs first alternates from pair to pair, so a machine whose
speed drifts favours neither.  Both sides run with the same interpreter, seed
and ``run_seconds`` of ``BENCHMARK.json``.  The output file holds every run's
``attempted``, ``failed`` and metrics, and, for every end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles, the relative
change of the medians and the number of pairs the change won.

Per workload it also writes each side's median ``attempted`` and a
least-squares fit of ``peak_rss_mb`` on ``attempted`` over every run of both
sides: an intercept I in MB and a slope s in KB per op.  ``perfbench/run.py``
keeps a few Python objects per op, so s mostly measures the harness, and
``harness_mb`` = s times the change in median ``attempted`` is the part of a
memory change that comes from doing more ops rather than from nbpk.  At A ops
a run reads I + s A, so a throughput gain g alone raises ``peak_rss_mb`` by
g s A / (I + s A), which crosses the 0.1 bound of ``BENCHMARK.json`` at
g = 0.1 (1 + I / (s A)); the fit reports that g as ``gain_at_rss_bound``.
The change's gain g is read from the medians of ``ops_per_s``, which
``perfbench/run.py`` scales to a reference speed, not from raw ``attempted``,
which also follows the machine's load.

Per workload, ``gate`` lists every end-to-end metric whose median moved the
wrong way by more than its ``BENCHMARK.json`` bound (an empty list when none
did), and ``gains`` every metric that meets the gain rule: the change wins at
least 9 pairs in 10 (a tie counts for neither side) and its median is better
than the parent's by more than the parent's interquartile range.  The script
prints both to stderr as each workload finishes, the gains beside each side's
median ``attempted``, ``harness_mb``, ``gain_at_rss_bound`` and, as
``attempted gain``, the change's ops gain g and its share of that bound (with
``rss headroom exceeded`` past 100 %), so a regression, or a gain that the
``peak_rss_mb`` bound cannot hold, shows before the full comparison is read.

Before the workloads, ``python3 -X importtime -c "import nbpk"`` runs
``IMPORT_RUNS`` times on each side, alternating which side goes first, and the
output file holds each side's median self time of every ``nbpk`` module
(``import_self_us``, in microseconds), the median cumulative time of ``import
nbpk`` (``import_nbpk_us``) and the top-level packages outside the standard
library that the import loads (``import_packages``), so an eager import of a
heavy dependency shows in every report.  ``setup_s`` is the median import time
plus the median set-up, so a setup_s move that the package's import times do
not show comes from the machine, not from the package.

The exit status is 1, after the report is written, when any workload's
``gate`` is non-empty or its ops gain exceeds ``gain_at_rss_bound``;
otherwise 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
IMPORT_RUNS = 5


def unpack(revision: str, into: Path) -> str:
    """Extract the revision's committed files into `into`; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in `checkout`; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def _importtime_rows(text: str) -> list:
    """(self us, cumulative us, indent, module) per line of ``python -X importtime`` output."""
    rows = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2].rstrip()
            rows.append((int(fields[0]), int(fields[1]), len(name) - len(name.lstrip()),
                         name.strip()))
    return rows


def import_self_times(text: str) -> dict:
    """{module: self time in us} for every ``nbpk`` module in ``python -X importtime`` output."""
    return {name: us for us, _, _, name in _importtime_rows(text)
            if name.split(".")[0] == "nbpk"}


def _third_party(name: str) -> bool:
    """Whether a top-level module is a public one, outside the standard library, that this
    interpreter finds: ``-X importtime`` lists failed imports too (the stdlib's probes of
    ``org``), and ``sys.stdlib_module_names`` misses the stdlib's ``_sysconfigdata_*``."""
    return (not name.startswith("_") and name not in sys.stdlib_module_names
            and importlib.util.find_spec(name) is not None)


def import_summary(text: str):
    """The cumulative time (us) of ``import nbpk`` in ``python -X importtime`` output, and the
    sorted top-level packages outside the standard library that it loaded (its subtree:
    the lines before it indented deeper); (None, []) without an ``nbpk`` line."""
    rows = _importtime_rows(text)
    tops = [i for i, row in enumerate(rows) if row[3] == "nbpk"]
    if not tops:
        return None, []
    _, cumulative, depth, _ = rows[tops[-1]]
    packages = set()
    for _, _, indent, name in reversed(rows[:tops[-1]]):
        if indent <= depth:
            break
        packages.add(name.split(".")[0])
    return cumulative, sorted(p for p in packages - {"nbpk"} if _third_party(p))


def import_probe(sides: dict, runs: int = IMPORT_RUNS) -> dict:
    """``runs`` imports of nbpk per side in fresh processes, the side that goes first
    alternating from run to run.  Per side: ``import_self_us``, the median self time (us)
    of every ``nbpk`` module; ``import_nbpk_us``, the median cumulative time of
    ``import nbpk``; and ``import_packages``, the non-stdlib packages any run loaded."""
    texts = {side: [] for side in sides}
    for i in range(runs):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [str(sides[side] / "src"), os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nbpk"],
                                  cwd=sides[side], env=env, capture_output=True, text=True,
                                  check=True)
            texts[side].append(proc.stderr)
    out = {"import_self_us": {}, "import_nbpk_us": {}, "import_packages": {}}
    for side, found in texts.items():
        self_us, summaries = list(map(import_self_times, found)), list(map(import_summary, found))
        out["import_self_us"][side] = {name: statistics.median(run[name] for run in self_us)
                                       for name in self_us[0]}
        out["import_nbpk_us"][side] = statistics.median(us for us, _ in summaries)
        out["import_packages"][side] = sorted(set().union(*(loaded for _, loaded in summaries)))
    return out


def spread(values):
    """Median and quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs, declared):
    """Per end-to-end metric: both sides' spreads, the median move and pairs won."""
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": ps, "change": cs,
            "median_rel_change": cs["median"] / ps["median"] - 1.0 if ps["median"] else None,
            "parent_iqr": ps["q3"] - ps["q1"],
            "change_wins": wins, "change_losses": losses, "pairs": len(pairs),
        }
    return out


def gate(metrics):
    """The metrics whose change median is worse than the parent's by more than their bound."""
    failed = []
    for name, m in metrics.items():
        parent, change = m["parent"]["median"], m["change"]["median"]
        worse = change - parent if m["better"] == "lower" else parent - change
        if worse > m["bound"] * abs(parent):
            failed.append({"metric": name, "parent": parent, "change": change,
                           "median_rel_change": m["median_rel_change"], "bound": m["bound"]})
    return failed


def gains(metrics):
    """The metrics that meet the gain rule: at least 9 wins in 10 pairs, ties not counted,
    and a median better than the parent's by more than the parent's interquartile range."""
    met = []
    for name, m in metrics.items():
        parent, change = m["parent"]["median"], m["change"]["median"]
        better = parent - change if m["better"] == "lower" else change - parent
        if m["change_wins"] >= 0.9 * m["pairs"] and better > m["parent_iqr"]:
            met.append(name)
    return met


def rss_fit(pairs, attempted, bound):
    """peak_rss_mb = I + s * attempted, least squares over every run of both sides.

    `attempted` holds each side's median op count; None if the op counts do not vary.
    """
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    try:
        slope, intercept = statistics.linear_regression(
            [r["attempted"] for r in runs], [r["metrics"]["peak_rss_mb"] for r in runs])
    except statistics.StatisticsError:
        return None
    return {
        "intercept_mb": intercept, "kb_per_op": slope * 1024.0, "runs": len(runs),
        "harness_mb": slope * (attempted["change"] - attempted["parent"]),
        "gain_at_rss_bound": bound * (1.0 + intercept / (slope * attempted["parent"]))
        if slope > 0.0 else None,
    }


def rss_headroom(summary):
    """The change's ops gain (the move of the ``ops_per_s`` medians, speed-scaled), the RSS
    fit's ``gain_at_rss_bound`` and the first as a share of the second; the last two None
    without a fit."""
    fit, ops = summary["peak_rss_fit"], summary["metrics"]["ops_per_s"]
    bound_gain = fit and fit["gain_at_rss_bound"]
    ops_gain = ops["change"]["median"] / ops["parent"]["median"] - 1.0
    return ops_gain, bound_gain, ops_gain / bound_gain if bound_gain else None


def workload_fails(summary):
    """Whether a finished workload fails the comparison: a metric past its bound, or an
    ops gain past ``gain_at_rss_bound``, which ``peak_rss_mb`` cannot hold."""
    share = rss_headroom(summary)[2]
    return bool(summary["gate"]) or (share is not None and share > 1.0)


def gains_line(workload, summary):
    """The stderr line of a finished workload: its gains, each side's median ``attempted``,
    the ``harness_mb`` and ``gain_at_rss_bound`` of its RSS fit, and the change's ops gain
    (``rss_headroom``) as a share of that bound's gain, flagged past 100 %."""
    fit, attempted = summary["peak_rss_fit"], summary["attempted"]
    ops_gain, bound_gain, share = rss_headroom(summary)
    return (f"{workload} gains: " + (", ".join(summary["gains"]) or "none")
            + f"; attempted: parent {attempted['parent']:.0f}, change {attempted['change']:.0f}"
            + "; harness_mb: " + (f"{fit['harness_mb']:+.2f}" if fit else "no fit")
            + "; gain_at_rss_bound: "
            + (f"{bound_gain:+.1%} ops" if bound_gain is not None else "no fit")
            + f"; attempted gain: {ops_gain:+.1%}"
            + (f", {share:.0%} of gain_at_rss_bound" if share is not None else "")
            + ("; rss headroom exceeded" if share is not None and share > 1.0 else ""))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help=f"one pair per seed; at least {MIN_PAIRS}")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if len(args.seeds) < MIN_PAIRS:
        parser.error(f"a comparison needs at least {MIN_PAIRS} pairs, got {len(args.seeds)}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    rss_bound = next(m["bound"] for m in bench["end_to_end"] if m["name"] == "peak_rss_mb")
    report = {"parent": None, "change": "working tree", "seconds": seconds,
              "seeds": args.seeds, "python": platform.python_version(),
              "cpus": os.cpu_count(), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_dir = Path(tmp)
        report["parent"] = unpack(args.parent, parent_dir)
        sides = {"parent": parent_dir, "change": ROOT}
        report.update(import_probe(sides))
        print(f"import nbpk, median of {IMPORT_RUNS} runs: " + "; ".join(
            f"{side} {report['import_nbpk_us'][side] / 1e3:.1f} ms, nbpk modules' self time "
            f"{sum(us.values()) / 1e3:.1f} ms, loads {', '.join(report['import_packages'][side])}"
            for side, us in report["import_self_us"].items()), file=sys.stderr, flush=True)
        for workload in workloads:
            pairs = []
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side]['metrics'])}", file=sys.stderr, flush=True)
                pairs.append(pair)
            attempted = {side: statistics.median(p[side]["attempted"] for p in pairs)
                         for side in ("parent", "change")}
            metrics = summarize(pairs, bench["end_to_end"])
            fit = rss_fit(pairs, attempted, rss_bound)
            report["workloads"][workload] = {
                "pairs": pairs, "metrics": metrics, "gate": gate(metrics),
                "gains": gains(metrics), "attempted": attempted, "peak_rss_fit": fit}
            failed = report["workloads"][workload]["gate"]
            print(f"{workload} gate: " + ("; ".join(
                f"{g['metric']} {g['parent']:.4g} -> {g['change']:.4g} (bound {g['bound']})"
                for g in failed) if failed else "every metric within its bound"),
                file=sys.stderr, flush=True)
            print(gains_line(workload, report["workloads"][workload]), file=sys.stderr,
                  flush=True)
            # Written after each workload, so a cut run keeps what it measured.
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    failing = [w for w, summary in report["workloads"].items() if workload_fails(summary)]
    if failing:
        print("failing: " + ", ".join(failing), file=sys.stderr, flush=True)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
