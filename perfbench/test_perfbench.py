"""Tests of the benchmark itself: tracer counts, self time, the tail rule, seeding.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import itertools
import json
from pathlib import Path

import pytest

import run  # puts perfbench/ and, through workloads, src/ on sys.path
import tracer
import workloads
import nbpk
from nbpk import Configuration


@pytest.mark.parametrize("model, points", [
    ("stable", 3080), ("gamma", 1408), ("gengamma", 1760)])
def test_predictive_probe_counts(model, points):
    rec = tracer.Tracer()
    params = workloads.make_models()[model]
    with tracer.instrument(rec):
        nbpk.predictive_weights(params, Configuration((5, 3, 2, 1, 1)))
    metrics = tracer.layer_metrics(rec, 1.0)
    assert metrics["numerics.quad.calls"][0] == 8
    assert metrics["numerics.quad.points"][0] == points
    assert metrics["posterior.integrals_per_predictive"][0] == 8
    assert metrics["posterior.predictive.calls"][0] == 1


def test_instrument_rebinds_in_every_module_and_restores():
    original = nbpk.levy_models.log_pi_n_lv
    assert nbpk.sampler.log_pi_n_lv is original
    with tracer.instrument(tracer.Tracer()):
        assert nbpk.sampler.log_pi_n_lv is not original
        assert nbpk.posterior.log_pi_n_lv is nbpk.levy_models.log_pi_n_lv
    assert nbpk.sampler.log_pi_n_lv is original
    assert nbpk.posterior.log_pi_n_lv is original


def test_self_times_on_nested_spans():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_self_times_of_recorded_spans_sum_to_root_duration():
    rec = tracer.Tracer()
    outer, inner = rec.name_id("outer"), rec.name_id("inner")
    a = rec.open(outer)
    for _ in range(3):
        rec.close(rec.open(inner))
    rec.close(a)
    _, start, end, parent = rec.arrays()
    assert parent.tolist() == [-1, 0, 0, 0]
    assert tracer.self_times(start, end, parent).sum() == pytest.approx(end[0] - start[0])


def test_tail_latency_keeps_ten_ops_beyond():
    lat = list(range(1, 101))
    pct, value = run.tail_latency(lat)
    assert (pct, value) == (90.0, 90)
    assert sum(x > value for x in lat) == 10
    assert run.tail_latency(list(range(1, 21))) == (50.0, 10)
    assert run.tail_latency([3, 1, 2]) == (100.0, 3)


def test_windows_are_whole_and_fall_back_to_all_values():
    assert run.windows(list(range(10)), 4) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert run.windows([1, 2, 3], 4) == [[1, 2, 3]]


def test_speed_factors_scale_by_the_median_of_nearby_samples():
    ref_times = [0.0, 1.0, 2.0, 3.0, 4.0]
    ref_secs = [run.REF_S, run.REF_S, 2 * run.REF_S, 2 * run.REF_S, 2 * run.REF_S]
    factors = run.speed_factors([0.5, 4.5], ref_times, ref_secs)
    # Samples 0-2 around the first op; samples 3-4, twice as slow, around the last.
    assert factors.tolist() == [1.0, 0.5]


def _inputs(wl, seed, count):
    return list(itertools.islice(wl.ops(seed), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert _inputs(wl, 7, 300) == _inputs(wl, 7, 300)
    assert _inputs(wl, 7, 300) != _inputs(wl, 8, 300)
    assert wl.trace_ops(7) == _inputs(wl, 7, len(wl.trace_ops(7)))


def test_table_pass_is_every_row_and_h_solve_once():
    wl = workloads.TableWorkload()
    ops = wl.trace_ops(3)
    assert len(ops) == wl.pass_size == 140
    assert sorted(ops) == sorted((m, c.counts) for m in ("hsolve",) + workloads.MODEL_NAMES
                                 for c in wl.configs)
    assert ops != wl.trace_ops(4)


def _counts(wl, ops):
    rec, outs, _ = run.trace_run(wl, ops)
    metrics = tracer.layer_metrics(rec, 1.0)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}, outs


def test_traced_counts_repeat_for_a_seed():
    # Small slices: set-up and chains of the three Gibbs-type models, table rows.
    urn = workloads.UrnWorkload()
    urn.model_names, urn.trace_chains = workloads.MODEL_NAMES[:3], 30
    table = workloads.TableWorkload()
    for wl, ops in ((urn, urn.trace_ops(5)), (table, table.trace_ops(5)[:10])):
        first, digests = _counts(wl, ops)
        second, _ = _counts(wl, ops)
        assert first == second
        assert not any(wl.check(ops, digests)[0])
        assert first["trace.overhead_ratio"] == 1.0
        if wl is urn:
            # The traced set-up builds each model's start sampler and its six
            # step samplers, one per configuration with n <= 3.
            assert first["numerics.grid.builds"] == 21
            assert first["sampler.chains"] == 3 * workloads.WARMUP_CHAINS + 30
    assert first["numerics.quad.calls"] > 0 and first["coalescent.hsolve.calls"] == 2


def test_urn_check_runs_untimed_ops_up_to_its_fixed_sample(monkeypatch):
    monkeypatch.setattr(workloads, "CHI2_CHAINS", 3)
    monkeypatch.setattr(workloads, "WARMUP_CHAINS", 2)
    urn = workloads.UrnWorkload()
    urn.model_names = workloads.MODEL_NAMES[:3]
    attempted, failed, _, summary = run.end_to_end(urn, 1, 0.0)
    assert (attempted, failed, summary["untimed_ops"]) == (9, 0, 8)


def _declared(kind):
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def test_traced_run_reports_every_declared_per_layer_metric():
    metrics = tracer.layer_metrics(tracer.Tracer(), 1.0)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("per_layer")


def test_untraced_run_reports_every_declared_end_to_end_metric():
    wl = workloads.TableWorkload()
    attempted, failed, metrics, summary = run.end_to_end(wl, 1, 0.0)
    assert (attempted, failed, summary["windows"], summary["ops_per_window"]) == (1, 0, 1, 1)
    assert {k: unit for k, (_, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
