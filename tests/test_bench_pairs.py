"""The paired-benchmark rules of tools/bench_pairs.py, on synthetic runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
# The parent's ten op_ms_p50 runs: median 1.045, quartiles 1.0225 and 1.0675.
PARENT_MS = [1.00 + 0.01 * i for i in range(10)]


def _pairs(parent_ms, change_ms, attempted=(1000, 1000), rss=(100.0, 100.0)):
    def run(ms, a, mb):
        return {"attempted": a, "metrics": {"op_ms_p50": ms, "ops_per_s": 1e3 / ms,
                                            "peak_rss_mb": mb}}
    return [{"parent": run(p, attempted[0], rss[0]), "change": run(c, attempted[1], rss[1])}
            for p, c in zip(parent_ms, change_ms)]


def _metrics(change_ms):
    return bench_pairs.summarize(_pairs(PARENT_MS, change_ms), DECLARED)


def _ops(parent, change):
    """A summary's ops_per_s medians: the change's ops gain is change / parent - 1."""
    return {"ops_per_s": {"parent": {"median": parent}, "change": {"median": change}}}


def test_nine_wins_in_ten_and_a_median_beyond_the_iqr_meet_the_gain_rule():
    change = [p - 0.1 for p in PARENT_MS]
    change[3] = PARENT_MS[3] + 0.05  # one pair lost
    metrics = _metrics(change)
    assert (metrics["op_ms_p50"]["change_wins"], metrics["op_ms_p50"]["change_losses"]) == (9, 1)
    assert metrics["op_ms_p50"]["parent_iqr"] == pytest.approx(0.045)
    assert bench_pairs.gains(metrics) == ["op_ms_p50", "ops_per_s"]
    assert bench_pairs.gate(metrics) == []


def test_eight_wins_do_not_meet_the_gain_rule():
    change = [p - 0.1 for p in PARENT_MS]
    change[3], change[7] = PARENT_MS[3] + 0.05, PARENT_MS[7] + 0.05
    assert bench_pairs.gains(_metrics(change)) == []


def test_a_tie_counts_for_neither_side():
    change = [p - 0.1 for p in PARENT_MS]
    change[5] = PARENT_MS[5]
    m = _metrics(change)["op_ms_p50"]
    assert (m["change_wins"], m["change_losses"], m["pairs"]) == (9, 0, 10)
    assert "op_ms_p50" in bench_pairs.gains(_metrics(change))
    change[6] = PARENT_MS[6]  # a second tie leaves 8 wins in 10
    assert bench_pairs.gains(_metrics(change)) == []


def test_a_median_move_within_the_parents_iqr_is_no_gain():
    # Every pair won, by less than the parent's spread.
    assert bench_pairs.gains(_metrics([p - 0.02 for p in PARENT_MS])) == []


def test_a_loss_beyond_the_bound_fails_the_gate_and_one_within_it_does_not():
    # 1.4 times the time is 1/1.4 the throughput: -28.6 %, past its 0.25 bound too.
    failed = bench_pairs.gate(_metrics([p * 1.4 for p in PARENT_MS]))
    assert [f["metric"] for f in failed] == ["op_ms_p50", "ops_per_s"]
    assert failed[0]["median_rel_change"] == pytest.approx(0.4)
    assert bench_pairs.gate(_metrics([p * 1.2 for p in PARENT_MS])) == []


def test_rss_fit_recovers_the_line_and_the_gain_at_the_rss_bound():
    # peak_rss_mb = 100 MB + 0.5 KB per op, exactly, over op counts that vary.
    intercept, slope, bound = 100.0, 0.5 / 1024.0, 0.1
    parent_ops = [20000 + 500 * i for i in range(10)]
    change_ops = [a + 4000 for a in parent_ops]
    pairs = []
    for a, b in zip(parent_ops, change_ops):
        pairs += _pairs([1.0], [1.0], (a, b), (intercept + slope * a, intercept + slope * b))
    attempted = {"parent": 22250, "change": 26250}
    fit = bench_pairs.rss_fit(pairs, attempted, bound)
    assert fit["intercept_mb"] == pytest.approx(intercept)
    assert fit["kb_per_op"] == pytest.approx(0.5)
    assert fit["harness_mb"] == pytest.approx(slope * 4000)
    g = fit["gain_at_rss_bound"]
    assert g == pytest.approx(bound * (1.0 + intercept / (slope * attempted["parent"])))
    # At that gain alone the fitted peak_rss_mb rises by exactly the bound.
    a = attempted["parent"]
    assert (intercept + slope * a * (1.0 + g)) / (intercept + slope * a) == pytest.approx(1.1)


def test_rss_fit_needs_op_counts_that_vary():
    assert bench_pairs.rss_fit(_pairs(PARENT_MS, PARENT_MS), {"parent": 1000, "change": 1000},
                               0.1) is None


def test_gains_line_prints_attempted_and_the_rss_fit_beside_the_gains():
    parent_ops = [20000 + 500 * i for i in range(10)]
    pairs = []
    for a in parent_ops:  # 100 MB + 0.5 KB per op; the change runs 4000 ops more
        pairs += _pairs([1.0], [1.0], (a, a + 4000), (100.0 + a / 2048, 100.0 + (a + 4000) / 2048))
    attempted = {"parent": 22250, "change": 26250}
    fit = bench_pairs.rss_fit(pairs, attempted, 0.1)
    summary = {"gains": ["op_ms_tail", "ops_per_s"], "attempted": attempted, "peak_rss_fit": fit,
               "metrics": _ops(22250, 26250)}
    share = (26250 / 22250 - 1.0) / fit["gain_at_rss_bound"]
    assert 0.0 < share < 1.0
    assert bench_pairs.gains_line("urn_warm", summary) == (
        "urn_warm gains: op_ms_tail, ops_per_s; attempted: parent 22250, change 26250; "
        f"harness_mb: +1.95; gain_at_rss_bound: {fit['gain_at_rss_bound']:+.1%} ops; "
        f"attempted gain: +18.0%, {share:.0%} of gain_at_rss_bound")
    summary = {"gains": [], "attempted": {"parent": 1000, "change": 1000}, "peak_rss_fit": None,
               "metrics": _ops(1000, 1000)}
    assert bench_pairs.gains_line("table", summary) == (
        "table gains: none; attempted: parent 1000, change 1000; "
        "harness_mb: no fit; gain_at_rss_bound: no fit; attempted gain: +0.0%")


def test_gains_line_flags_an_ops_gain_past_the_rss_headroom():
    # 10 MB + 0.5 KB per op: at 22250 ops the 0.1 bound holds +19.2 % ops, and the
    # change runs +89.9 %.
    parent_ops = [20000 + 500 * i for i in range(10)]
    pairs = []
    for a in parent_ops:
        pairs += _pairs([1.0], [1.0], (a, a + 20000), (10.0 + a / 2048, 10.0 + (a + 20000) / 2048))
    attempted = {"parent": 22250, "change": 42250}
    fit = bench_pairs.rss_fit(pairs, attempted, 0.1)
    assert fit["gain_at_rss_bound"] == pytest.approx(0.1 * (1.0 + 10.0 / (22250 / 2048)))
    share = (42250 / 22250 - 1.0) / fit["gain_at_rss_bound"]
    assert share > 1.0
    line = bench_pairs.gains_line("urn_warm", {"gains": [], "attempted": attempted,
                                               "peak_rss_fit": fit, "metrics": _ops(22250, 42250)})
    assert line.endswith(f"attempted gain: +89.9%, {share:.0%} of gain_at_rss_bound; "
                         "rss headroom exceeded")
    # Within the headroom there is no flag.
    attempted = {"parent": 22250, "change": 22250 + 500}
    line = bench_pairs.gains_line("urn_warm", {"gains": [], "attempted": attempted,
                                               "peak_rss_fit": fit, "metrics": _ops(22250, 22750)})
    assert "exceeded" not in line and line.endswith("of gain_at_rss_bound")


def _headroom_summary(change_ops, gate=()):
    # 10 MB + 0.5 KB per op: at 22250 ops the 0.1 bound holds +19.2 % ops.
    parent_ops = [20000 + 500 * i for i in range(10)]
    pairs = []
    for a in parent_ops:
        b = a + change_ops - 22250
        pairs += _pairs([1.0], [1.0], (a, b), (10.0 + a / 2048, 10.0 + b / 2048))
    attempted = {"parent": 22250, "change": change_ops}
    return {"gate": list(gate), "gains": [], "attempted": attempted,
            "peak_rss_fit": bench_pairs.rss_fit(pairs, attempted, 0.1),
            "metrics": _ops(22250, change_ops)}


def test_a_workload_fails_on_a_gated_metric_or_past_the_rss_headroom():
    within, past = _headroom_summary(22250 + 2000), _headroom_summary(42250)
    assert bench_pairs.rss_headroom(within)[2] < 1.0 < bench_pairs.rss_headroom(past)[2]
    assert not bench_pairs.workload_fails(within)
    assert bench_pairs.workload_fails(past)
    assert bench_pairs.workload_fails(_headroom_summary(22250, gate=[{"metric": "op_ms_tail"}]))
    # Without a fit only the gate counts.
    no_fit = {"gate": [], "attempted": {"parent": 1000, "change": 5000}, "peak_rss_fit": None,
              "metrics": _ops(1000, 5000)}
    assert bench_pairs.rss_headroom(no_fit) == (4.0, None, None)
    assert not bench_pairs.workload_fails(no_fit)


# Paired `table` runs of a change that touched no table code: per pair, attempted ops and
# speed-scaled ops_per_s of the parent and of the change, and their peak_rss_mb.
LOADED_TABLE_PAIRS = [
    (52742, 52577, 1259.5, 1250.2, 95.23, 94.71), (52994, 57632, 1246.0, 1256.3, 94.71, 97.84),
    (54027, 62582, 1244.3, 1264.8, 95.63, 101.75), (58223, 66274, 1253.1, 1297.4, 98.68, 103.95),
    (64387, 54712, 1271.1, 1260.0, 102.94, 95.91), (57503, 62757, 1260.5, 1258.0, 98.03, 101.91),
    (57112, 57257, 1243.8, 1251.9, 97.93, 97.62), (59922, 68377, 1257.6, 1277.0, 99.67, 105.34),
    (68572, 67175, 1272.4, 1265.1, 105.65, 104.39), (74992, 73932, 1286.6, 1289.4, 110.05, 109.25),
]


def _loaded_summary(rows):
    def run(a, ops, mb):
        return {"attempted": a, "metrics": {"op_ms_p50": 1e3 / ops, "ops_per_s": ops,
                                            "peak_rss_mb": mb}}
    pairs = [{"parent": run(a, o, m), "change": run(b, p, n)} for a, b, o, p, m, n in rows]
    attempted = {side: statistics.median(p[side]["attempted"] for p in pairs)
                 for side in ("parent", "change")}
    return {"gate": [], "gains": [], "attempted": attempted,
            "peak_rss_fit": bench_pairs.rss_fit(pairs, attempted, 0.1),
            "metrics": bench_pairs.summarize(pairs, DECLARED)}


def test_the_ops_gain_follows_the_speed_scaled_ops_not_the_machines_load():
    # The load gave the change 8.3 % more attempted ops, a third of the RSS headroom, while
    # its speed-scaled throughput moved 0.3 %: the headroom check reads the latter.
    summary = _loaded_summary(LOADED_TABLE_PAIRS)
    attempted = summary["attempted"]
    assert attempted["change"] / attempted["parent"] - 1.0 == pytest.approx(0.083, abs=1e-3)
    ops_gain, bound_gain, share = bench_pairs.rss_headroom(summary)
    assert ops_gain == pytest.approx(0.0031, abs=1e-4)
    assert bound_gain == pytest.approx(0.2485, abs=1e-3) and share < 0.02
    assert not bench_pairs.workload_fails(summary)
    # One urn_warm pair: 2.9 % fewer attempted ops, at a 10 % higher scaled throughput.
    ops_gain = bench_pairs.rss_headroom(_loaded_summary([
        (288892, 280389, 5465.7, 6018.8, 257.45, 253.21)] * 2))[0]  # quartiles need two
    assert ops_gain == pytest.approx(0.101, abs=1e-3)


def _run_main(monkeypatch, tmp_path, change_ms):
    """main() on synthetic runs: the parent takes 1 ms an op, the change `change_ms`."""
    def run_once(checkout, workload, seed, seconds):
        ms = 1.0 if checkout != bench_pairs.ROOT else change_ms
        ops = 20000 + 500 * (seed % 10)  # op counts that vary, the same on both sides
        metrics = {"setup_s": 0.3, "ops_per_s": 1e3 / ms, "op_ms_p50": ms, "op_ms_tail": ms,
                   "cpu_ms_per_op": ms, "peak_rss_mb": 10.0 + ops / 2048, "success_rate": 1.0}
        return {"attempted": ops, "failed": 0, "correct": ops, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "unpack", lambda revision, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "import_probe",
                        lambda sides: {side: {"nbpk": 500.0} for side in sides})
    out = tmp_path / "bench.json"
    code = bench_pairs.main(["--seeds", *map(str, range(10)), "--out", str(out)])
    return code, json.loads(out.read_text())


def test_main_exits_1_after_writing_the_report_when_a_workload_fails(monkeypatch, tmp_path):
    code, report = _run_main(monkeypatch, tmp_path, 1.0)
    assert code == 0 and all(w["gate"] == [] for w in report["workloads"].values())
    assert report["import_self_us"] == {"parent": {"nbpk": 500.0}, "change": {"nbpk": 500.0}}
    # 1.5 times the time is past every time metric's 0.25 bound, in every workload.
    code, report = _run_main(monkeypatch, tmp_path, 1.5)
    assert code == 1
    for summary in report["workloads"].values():
        assert {"op_ms_p50", "op_ms_tail", "ops_per_s"} <= {g["metric"] for g in summary["gate"]}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       312 |        312 |   _io
import time:      1604 |      92118 |       numpy
import time:     12983 |     555726 |   nbpk.levy_models
import time:      8847 |       8847 |   nbpk.numerics
import time:        41 |         41 |   nbpkx
import time:      2450 |       2450 |   nbpk.posterior
import time:      4518 |     588763 | nbpk
"""


def test_import_self_times_reads_every_nbpk_module_and_nothing_else():
    assert bench_pairs.import_self_times(IMPORTTIME) == {
        "nbpk.levy_models": 12983, "nbpk.numerics": 8847, "nbpk.posterior": 2450, "nbpk": 4518}
    assert bench_pairs.import_self_times("") == {}


def test_import_probe_takes_each_sides_median_with_the_first_side_alternating(monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append(str(cwd))
        assert env["PYTHONPATH"].split(bench_pairs.os.pathsep)[0] == str(cwd / "src")
        us = 100 * len(calls) if cwd == Path("p") else 7
        return type("Proc", (), {"stderr": f"import time: {us} | {us} | nbpk.posterior"})

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.import_probe({"parent": Path("p"), "change": Path("c")}, runs=3)
    assert calls == ["p", "c", "c", "p", "p", "c"]
    assert got == {"parent": {"nbpk.posterior": 400}, "change": {"nbpk.posterior": 7}}
