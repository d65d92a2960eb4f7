"""Backward recursion, ancestral simulation and the exact H solver."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nbpk import reference
from nbpk.coalescent import (
    _log_backward_terms,
    EventKind,
    RateFunction,
    RateKind,
    backward_event_probabilities,
    h_solver_exact,
    history_to_json_lines,
    history_to_newick,
    ratio_integrals,
    simulate_backward,
    transition_rates,
)
from nbpk.levy_models import LevyModel, ModelParamsR
from nbpk.partitions import Configuration, enumerate_afs
from nbpk.posterior import log_eppf, predictive_weights

PD_HALF = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)  # theta = 1

FOUR_MODELS = [
    ModelParamsR(LevyModel.stable(0.5), 1.5),
    ModelParamsR(LevyModel.gamma(1.0), 2.0),
    ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
    ModelParamsR(LevyModel.truncated_stable(0.5), 1.5),
]


def test_backward_terms_sum_to_eppf():
    for params in FOUR_MODELS:
        for n in range(2, 6):
            for m in enumerate_afs(n):
                cfg = m.to_configuration()
                _, total = backward_event_probabilities(params, cfg)
                want = math.exp(log_eppf(params, cfg))
                assert total == pytest.approx(want, rel=1e-5), (params, cfg)


def test_backward_terms_one_quadrature_pass(monkeypatch):
    import nbpk.coalescent as coalescent
    import nbpk.posterior as posterior
    integrals, predictive = [], []

    def counting(calls, original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    for module in (coalescent, posterior):
        monkeypatch.setattr(module, "log_integrate_halfline_logv",
                            counting(integrals, module.log_integrate_halfline_logv))
    monkeypatch.setattr(posterior, "predictive_weights",
                        counting(predictive, posterior.predictive_weights))
    for params in FOUR_MODELS:
        for counts in [(1, 1, 1, 1), (5, 3, 2, 1, 1)]:
            cfg = Configuration(counts)
            integrals.clear()
            predictive.clear()
            terms, total = backward_event_probabilities(params, cfg)
            assert len(integrals) == 1
            assert predictive == []
            for i in range(cfg.k):
                for j in range(i):
                    if counts[i] == counts[j]:
                        assert terms[i] == terms[j]
            want = math.exp(log_eppf(params, cfg))
            assert total == pytest.approx(want, rel=1e-5), (params, cfg)


def _reduced_route_term(params, cfg, i):
    """Block i's backward term from predictive_weights on n - e_i, as the addition rule builds it."""
    n, ni = cfg.n, cfg.counts[i]
    w = predictive_weights(params, cfg.remove_one(i))
    if ni > 1:
        return ni / n / (n - 1) * math.exp(w.log_omega[i])
    return math.exp(w.log_omega0) / n


def test_backward_terms_match_reduced_configuration_route():
    configs = [m.to_configuration() for n in range(2, 7) for m in enumerate_afs(n)]
    configs += [Configuration((5, 3, 2, 1, 1)), Configuration((10, 8, 6, 5, 4, 3, 2, 1, 1))]
    for params in FOUR_MODELS:
        for cfg in configs:
            terms, _ = backward_event_probabilities(params, cfg)
            for i in range(cfg.k):
                want = _reduced_route_term(params, cfg, i)
                assert terms[i] == pytest.approx(want, rel=1e-9), (params, cfg, i)


def test_backward_log_total_is_log_eppf_at_large_n():
    # The EPPF is below 1e-300 here, so only the log terms can be checked.
    for params in FOUR_MODELS:
        for counts in [(5,) * 60 + (100,), (200, 100, 50) + (1,) * 150]:
            cfg = Configuration(counts)
            log_total = np.logaddexp.reduce(_log_backward_terms(params, cfg))
            assert abs(log_total - log_eppf(params, cfg)) < 1e-9, (params, cfg.n)


def test_ratio_integrals_pd_fixed_values():
    cfg = Configuration((3, 1))
    for route in ("weights", "direct"):
        assert ratio_integrals(PD_HALF, cfg, 0, route) == pytest.approx(0.28125, abs=1e-6)
        assert ratio_integrals(PD_HALF, cfg, 1, route) == pytest.approx(0.09375, abs=1e-6)


def test_ratio_integrals_pd_grid():
    for counts in [(2,), (2, 2), (4, 1, 1)]:
        cfg = Configuration(counts)
        for i in range(cfg.k):
            want = reference.pd_backward_ratio(0.5, 1.0, counts, i)
            got = ratio_integrals(PD_HALF, cfg, i)
            assert got == pytest.approx(want, abs=1e-6)


def test_ratio_integral_routes_agree():
    cases = [
        (ModelParamsR(LevyModel.stable(0.4), 2.0), (2, 2)),
        (ModelParamsR(LevyModel.gamma(1.5), 1.0), (3, 1)),
        (ModelParamsR(LevyModel.truncated_stable(0.6), 1.5), (2, 1, 1)),
    ]
    for params, counts in cases:
        cfg = Configuration(counts)
        for i in range(cfg.k):
            a = ratio_integrals(params, cfg, i, "weights")
            b = ratio_integrals(params, cfg, i, "direct")
            assert abs(a - b) < 1e-8, (params, counts, i)
    with pytest.raises(ValueError):
        ratio_integrals(PD_HALF, Configuration((2,)), 0, "bogus")


def test_transition_rates():
    phi_n = RateFunction(RateKind.TOTAL_N)
    rates = transition_rates(Configuration((2, 1)), phi_n)
    assert rates == pytest.approx([2.0, 1.0])
    assert rates.sum() == pytest.approx(3.0)
    phi_n2 = RateFunction(RateKind.TOTAL_N_CHOOSE_2)
    rates = transition_rates(Configuration((4,)), phi_n2)
    assert rates.sum() == pytest.approx(6.0)
    with pytest.raises(ValueError):
        transition_rates(Configuration((1,)), phi_n)


def test_custom_rate_function():
    phi = RateFunction(RateKind.CUSTOM, custom=lambda c: 2.0 * c.n)
    assert phi(Configuration((2, 1))) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        RateFunction(RateKind.CUSTOM)(Configuration((2,)))
    bad = RateFunction(RateKind.CUSTOM, custom=lambda c: 0.0)
    with pytest.raises(ValueError):
        bad(Configuration((2,)))


def test_simulate_backward_structure():
    phi = RateFunction(RateKind.TOTAL_N)
    hist = simulate_backward(Configuration((1,)), phi, seed=1)
    assert hist.events == ()
    hist = simulate_backward(Configuration((5,)), phi, seed=2)
    assert len(hist.events) == 4
    assert all(ev.kind is EventKind.COALESCENCE for ev in hist.events)
    hist = simulate_backward(Configuration((1, 1, 1)), phi, seed=3)
    assert hist.events[0].kind is EventKind.SINGLETON_REMOVAL
    # event times increase and n drops by exactly one per event
    times = [ev.time for ev in hist.events]
    assert times == sorted(times)
    sizes = [ev.config_after.n for ev in hist.events]
    assert sizes == [2, 1]


def test_simulate_backward_deterministic():
    phi = RateFunction(RateKind.TOTAL_N)
    a = simulate_backward(Configuration((3, 2, 1)), phi, seed=42)
    b = simulate_backward(Configuration((3, 2, 1)), phi, seed=42)
    assert a == b


def test_h_solver_constant_initial_condition():
    phi = RateFunction(RateKind.TOTAL_N)
    t_grid = (0.0, 0.5, 2.0)
    vals = h_solver_exact(Configuration((3, 1)), phi, h0=lambda c: 1.0, t_grid=t_grid)
    assert np.allclose(vals, 1.0, atol=1e-9)


def test_h_solver_two_state_closed_form():
    # from (2) the only event leads to a single lineage at rate phi((2)) = 2,
    # so H((2), t) = e^{-2t} h0((2)) + (1 - e^{-2t}) h0((1))
    phi = RateFunction(RateKind.TOTAL_N)
    h0 = lambda c: 3.0 if c.sorted_counts() == (2,) else 1.0
    t_grid = np.linspace(0.0, 2.0, 9)
    vals = h_solver_exact(Configuration((2,)), phi, h0=h0, t_grid=t_grid)
    want = np.exp(-2.0 * t_grid) * 3.0 + (1.0 - np.exp(-2.0 * t_grid)) * 1.0
    assert np.allclose(vals, want, atol=1e-9)


def test_h_solver_matches_monte_carlo():
    # absorption probability by t = 0.8 from (2, 1): ODE versus simulation
    phi = RateFunction(RateKind.TOTAL_N)
    start = Configuration((2, 1))
    t_star = 0.8
    exact = h_solver_exact(start, phi, t_grid=(t_star,))[0]
    reps = 10_000
    hits = sum(simulate_backward(start, phi, seed=10_000 + j).events[-1].time <= t_star
               for j in range(reps))
    p_hat = hits / reps
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(p_hat - exact) < 3 * se


def test_h_solver_rejects_large_n():
    phi = RateFunction(RateKind.TOTAL_N)
    with pytest.raises(ValueError):
        h_solver_exact(Configuration((13,)), phi)
    with pytest.raises(ValueError):
        h_solver_exact(Configuration((2,)), phi, t_grid=(-1.0,))


def test_h_solver_rejects_non_finite_times():
    # nan fails t > 0 and would return the t = 0 value; inf would give nan
    phi = RateFunction(RateKind.TOTAL_N)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            h_solver_exact(Configuration((2,)), phi, t_grid=(0.0, bad))


def test_history_json_lines():
    phi = RateFunction(RateKind.TOTAL_N)
    hist = simulate_backward(Configuration((2, 1)), phi, seed=5)
    lines = history_to_json_lines(hist).splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"time", "kind", "block_index", "config_after"}
    assert json.loads(lines[-1])["config_after"] == [1]


def test_history_newick():
    phi = RateFunction(RateKind.TOTAL_N)
    hist = simulate_backward(Configuration((1, 1, 1)), phi, seed=8)
    tree = history_to_newick(hist)
    assert tree.endswith(";")
    assert tree.count("(") == 2 and tree.count(",") == 2
    for i in range(1, 4):
        assert f"L{i}" in tree
    with pytest.raises(ValueError):
        history_to_newick(simulate_backward(Configuration((2, 1)), phi, seed=8))


def test_h_solver_matches_scipy_expm(monkeypatch):
    # scipy.linalg.expm is the reference here only; nbpk itself does not import it
    from scipy.linalg import expm

    from nbpk import coalescent

    phis = [RateFunction(RateKind.TOTAL_N), RateFunction(RateKind.TOTAL_N_CHOOSE_2),
            RateFunction(RateKind.CUSTOM, custom=lambda c: 3.0)]
    starts = [m.to_configuration() for n in range(2, 13) for m in enumerate_afs(n)]
    t_grid = (0.1, 1.0, 5.0, 20.0)
    h0 = lambda c: c.k / c.n
    got = [h_solver_exact(c, phi, h0=h0, t_grid=t_grid) for c in starts for phi in phis]
    monkeypatch.setattr(coalescent, "_expm", expm)
    want = [h_solver_exact(c, phi, h0=h0, t_grid=t_grid) for c in starts for phi in phis]
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-12


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.special is the only scipy module nbpk needs; scipy.linalg would add
    # several MB of resident memory to every process that imports nbpk, and
    # scipy.integrate (whose Gauss-Kronrod table numerics copies) would slow the import
    import nbpk

    src = os.path.dirname(os.path.dirname(os.path.abspath(nbpk.__file__)))
    code = ("import sys, nbpk; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
