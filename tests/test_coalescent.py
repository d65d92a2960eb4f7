"""Backward recursion, ancestral simulation and the exact H solver."""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from nbpk import reference
from nbpk.coalescent import (
    EventKind,
    RateFunction,
    RateKind,
    backward_event_probabilities,
    h_solver_exact,
    history_to_json_lines,
    ratio_integrals,
    simulate_backward,
    transition_rates,
)
from nbpk.levy_models import LevyModel, ModelParamsR
from nbpk.partitions import Configuration, enumerate_afs
from nbpk.posterior import log_eppf, normalized_predictive, predictive_weights

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


@pytest.mark.parametrize("counts", [(300, 300, 300), (214, 214, 214), (491, 491, 1)])
def test_backward_terms_raise_where_they_leave_normal_floats(counts):
    # log p = -1008 underflows to 0 and -723 to a subnormal; at (491, 491, 1) p is
    # normal (log p = -702.5) but the singleton's term p/983 is not.  The terms
    # returned silently as zeros or with few significant bits.
    config = Configuration(counts)
    assert math.exp(log_eppf(PD_HALF, config)) / config.n < sys.float_info.min
    with pytest.raises(FloatingPointError):
        backward_event_probabilities(PD_HALF, config)


def test_backward_terms_one_quadrature_pass(monkeypatch):
    import nbpk.posterior as posterior
    integrals, predictive = [], []

    def counting(calls, original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(posterior, "log_integrate_halfline_logv",
                        counting(integrals, posterior.log_integrate_halfline_logv))
    monkeypatch.setattr(posterior, "predictive_weights",
                        counting(predictive, posterior.predictive_weights))
    for params in FOUR_MODELS:
        for counts in [(1, 1, 1, 1), (5, 3, 2, 1, 1)]:
            cfg = Configuration(counts)
            integrals.clear()
            predictive.clear()
            # From an empty class cache: a class that converges on the mesh takes no pass.
            posterior._log_v.cache_clear()
            terms, total = backward_event_probabilities(params, cfg)
            assert len(integrals) <= 1
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
    # The EPPF is below 1e-300 here, so the terms (n_i/n) p(n) are checked as
    # logs against the reduced configuration's prediction weights.
    for params in FOUR_MODELS:
        for counts in [(5,) * 60 + (100,), (200, 100, 50) + (1,) * 150]:
            cfg = Configuration(counts)
            n, lp = cfg.n, log_eppf(params, cfg)
            for ni in set(counts):
                i = counts.index(ni)
                w = predictive_weights(params, cfg.remove_one(i))
                want = (math.log(ni / n / (n - 1)) + w.log_omega[i] if ni > 1
                        else w.log_omega0 - math.log(n))
                assert abs(lp + math.log(ni / n) - want) < 1e-9, (params, n, ni)


def test_ratio_integrals_pd_fixed_values():
    cfg = Configuration((3, 1))
    assert ratio_integrals(PD_HALF, cfg, 0) == pytest.approx(0.28125, abs=1e-6)
    assert ratio_integrals(PD_HALF, cfg, 1) == pytest.approx(0.09375, abs=1e-6)


def test_ratio_integrals_pd_grid():
    for counts in [(2,), (2, 2), (4, 1, 1)]:
        cfg = Configuration(counts)
        for i in range(cfg.k):
            want = reference.pd_backward_ratio(0.5, 1.0, counts, i)
            got = ratio_integrals(PD_HALF, cfg, i)
            assert got == pytest.approx(want, abs=1e-6)


def test_ratio_integral_routes_agree():
    # (n_i/n) p(n)/p(n - e_i) is n_i/n times the reduced configuration's
    # predictive probability of rebuilding n: joining block i, or a new block.
    cases = [
        (ModelParamsR(LevyModel.stable(0.4), 2.0), (2, 2)),
        (ModelParamsR(LevyModel.gamma(1.5), 1.0), (3, 1)),
        (ModelParamsR(LevyModel.truncated_stable(0.6), 1.5), (2, 1, 1)),
    ]
    for params, counts in cases:
        cfg = Configuration(counts)
        for i, ni in enumerate(counts):
            j = i + 1 if ni > 1 else 0
            want = ni / cfg.n * normalized_predictive(params, cfg.remove_one(i))[j]
            assert abs(ratio_integrals(params, cfg, i) - want) < 1e-8, (params, counts, i)


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
    # Only the lattice routes enumerate the classes below n: a custom phi exponentiates
    # t G on them up to n = 12, a given h0 under a built-in clock reads their visit
    # probabilities up to n = 40, where it gives the default h0's level route.
    phi = RateFunction(RateKind.TOTAL_N)
    with pytest.raises(ValueError, match="too large"):
        h_solver_exact(Configuration((13,)), RateFunction(RateKind.CUSTOM, custom=lambda c: 1.0))
    absorbed = lambda c: 1.0 if c.sorted_counts() == (1,) else 0.0
    times = (0.0, 0.5, 1.0, 2.0)
    for start in ((13,), (10, 8, 6, 4, 2), (40,)):
        for clock in (phi, RateFunction(RateKind.TOTAL_N_CHOOSE_2)):
            got = h_solver_exact(Configuration(start), clock, h0=absorbed, t_grid=times)
            want = h_solver_exact(Configuration(start), clock, t_grid=times)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-16, err_msg=f"{start}")
    with pytest.raises(ValueError, match="too large"):
        h_solver_exact(Configuration((41,)), phi, h0=lambda c: 1.0)
    assert h_solver_exact(Configuration((41,)), phi).shape == (2,)
    with pytest.raises(ValueError):
        h_solver_exact(Configuration((2,)), phi, t_grid=(-1.0,))


def test_h_solver_rejects_non_finite_times():
    # nan fails t > 0 and would return the t = 0 value; inf would give nan
    phi = RateFunction(RateKind.TOTAL_N)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            h_solver_exact(Configuration((2,)), phi, t_grid=(0.0, bad))


def test_h_solver_rejects_a_grid_that_is_not_one_dimensional():
    phi = RateFunction(RateKind.TOTAL_N)
    for bad in ([[0.5]], 0.5, np.zeros((2, 2))):
        with pytest.raises(ValueError, match="one-dimensional"):
            h_solver_exact(Configuration((2,)), phi, t_grid=bad)
    assert h_solver_exact(Configuration((2,)), phi, t_grid=[]).shape == (0,)


def test_rate_must_be_finite():
    # An infinite rate used to reach the matrix exponential and fail there.
    phi = RateFunction(RateKind.CUSTOM, custom=lambda c: math.inf)
    with pytest.raises(ValueError, match="positive and finite"):
        phi(Configuration((2, 1)))
    with pytest.raises(ValueError, match="positive and finite"):
        h_solver_exact(Configuration((2, 1)), phi)


def test_rates_near_the_float_limit_split_without_overflow():
    # phi(n) * n_i leaves float range at phi = 1e308; phi(n) * (n_i / n) does not.
    phi = RateFunction(RateKind.CUSTOM, custom=lambda c: 1e308)
    start = Configuration((2, 1))
    rates = transition_rates(start, phi)
    assert np.isfinite(rates).all() and rates.sum() == pytest.approx(1e308)
    hist = simulate_backward(start, phi, seed=3)
    assert [ev.config_after.n for ev in hist.events] == [2, 1]
    assert all(0.0 <= ev.time < 1e-306 for ev in hist.events)
    # A constant rate only rescales time, and t G is representable at these times.
    unit = RateFunction(RateKind.CUSTOM, custom=lambda c: 1.0)
    got = h_solver_exact(start, phi, t_grid=(1e-308, 1e-300))
    want = h_solver_exact(start, unit, t_grid=(1.0, 1e8))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rate,t", [(1e308, 1.0), (1e300, 1e10), (1e200, 1e200)])
def test_h_solver_rejects_t_g_that_overflows(rate, t):
    # Finite rates and times whose product, or the 1-norm of t G, leaves float range.
    phi = RateFunction(RateKind.CUSTOM, custom=lambda c: rate)
    with pytest.raises(ValueError, match="t G"):
        h_solver_exact(Configuration((2, 1)), phi, t_grid=(0.5, t))


@pytest.mark.parametrize("t_grid", [(2.0, 0.1, 0.0, 5.0, 0.5), (1.0, 1.0, 0.0, 1.0, 0.0),
                                    (0.0,), (0.0, 0.0)], ids=["unsorted", "repeated", "zero",
                                                              "zeros"])
def test_h_solver_batched_times_equal_single_time_solves(t_grid):
    phis = [RateFunction(RateKind.TOTAL_N), RateFunction(RateKind.TOTAL_N_CHOOSE_2),
            RateFunction(RateKind.CUSTOM, custom=lambda c: 3.0 + c.k)]
    h0 = lambda c: c.k / c.n
    for start in [Configuration(c) for c in [(2,), (3, 2, 1), (1, 1, 1, 1), (5, 4, 2)]]:
        for phi in phis:
            got = h_solver_exact(start, phi, h0=h0, t_grid=t_grid)
            want = [h_solver_exact(start, phi, h0=h0, t_grid=(t,))[0] for t in t_grid]
            assert got.shape == (len(t_grid),)
            assert np.abs(got - want).max() < 1e-14


def test_h_solver_calls_phi_once_per_state_with_an_event_and_never_at_one_lineage():
    # The lattice of a start class is compiled once; every solve, the first and the
    # cached ones, still calls phi at each state with n >= 2, in the lattice's order.
    calls = []

    def rate(c):
        if c.n < 2:
            raise AssertionError(f"phi called at the single-lineage state {c}")
        calls.append(c.sorted_counts())
        return float(c.n)

    phi = RateFunction(RateKind.CUSTOM, custom=rate)
    per_solve, results = [], []
    for counts in [(2, 4, 1, 2), (4, 2, 2, 1), (1, 2, 2, 4)]:
        calls.clear()
        results.append(h_solver_exact(Configuration(counts), phi, t_grid=(0.5, 2.0)).tobytes())
        per_solve.append(list(calls))
    assert per_solve[0] == per_solve[1] == per_solve[2]
    assert per_solve[0] == sorted(set(per_solve[0]), key=lambda s: (sum(s), s))
    assert per_solve[0][:2] == [(1, 1), (2,)] and per_solve[0][-1] == (4, 2, 2, 1)
    assert results[0] == results[1] == results[2]
    # The built-in clock takes the level chain: the same H, by another route.
    want = h_solver_exact(Configuration((4, 2, 2, 1)), RateFunction(RateKind.TOTAL_N),
                          t_grid=(0.5, 2.0))
    assert np.abs(np.frombuffer(results[0]) - want).max() < 1e-14


BUILT_IN_RATES = [(RateKind.TOTAL_N, lambda c: float(c.n)),
                  (RateKind.TOTAL_N_CHOOSE_2, lambda c: c.n * (c.n - 1) / 2.0)]
H0S = {"absorption": None, "one": lambda c: 1.0, "k/n": lambda c: c.k / c.n}


@pytest.mark.parametrize("kind, rate", BUILT_IN_RATES, ids=["n", "n2"])
def test_level_route_matches_the_lattice_route_for_every_class_up_to_12(kind, rate):
    # A custom phi with the built-in rates exponentiates the generator on the lattice.
    built_in, custom = RateFunction(kind), RateFunction(RateKind.CUSTOM, custom=rate)
    t_grid = (0.0, 0.5, 1.0, 2.0)
    worst = 0.0
    for start in [m.to_configuration() for n in range(1, 13) for m in enumerate_afs(n)]:
        for h0 in H0S.values():
            got = h_solver_exact(start, built_in, h0=h0, t_grid=t_grid)
            want = h_solver_exact(start, custom, h0=h0, t_grid=t_grid)
            worst = max(worst, np.abs(got - want).max())
    assert worst < 1e-12


@pytest.mark.parametrize("kind", [RateKind.TOTAL_N, RateKind.TOTAL_N_CHOOSE_2], ids=["n", "n2"])
def test_h_at_time_zero_is_h0_at_the_start(kind):
    phi = RateFunction(kind)
    for counts in [(1,), (2,), (3, 2, 1), (1,) * 12, (5, 4, 2, 1)]:
        start = Configuration(counts)
        for name, h0 in H0S.items():
            want = float(start.n == 1) if h0 is None else h0(start)
            assert h_solver_exact(start, phi, h0=h0, t_grid=(0.0,))[0] == want, (counts, name)
    assert h_solver_exact(Configuration((1000,)), phi, t_grid=(0.0,))[0] == 0.0


@pytest.mark.parametrize("n", [200, 1000])
def test_linear_death_absorption_against_its_closed_form(n):
    # P(one lineage by t) = (1 - e^-t)^n + n e^-t (1 - e^-t)^(n-1), from mpmath; 1 minus
    # the other levels' mass would lose every value below about 1e-16.
    t_grid = (0.25, 0.5, 1.0, 2.0, 5.0, 10.0) if n == 200 else (2.0, 3.0, 5.0, 10.0)
    got = h_solver_exact(Configuration((n // 2, n // 4, n // 4)), RateFunction(RateKind.TOTAL_N),
                         t_grid=t_grid)
    with mpmath.workdps(50):
        want = []
        for t in t_grid:
            e = mpmath.exp(-mpmath.mpf(t))
            want.append(float((1 - e) ** n + n * e * (1 - e) ** (n - 1)))
    assert min(want) < 1e-30
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind, t", [(RateKind.TOTAL_N, 4.6), (RateKind.TOTAL_N_CHOOSE_2, 2.0)],
                         ids=["n", "n2"])
def test_absorption_at_n_100_matches_monte_carlo(kind, t):
    # Beyond the lattice: the level route's absorption probability by t against the
    # share of simulated histories that reach one lineage by then.
    phi, start, reps = RateFunction(kind), Configuration((40, 30, 20, 5, 3, 1, 1)), 800
    exact = h_solver_exact(start, phi, t_grid=(t,))[0]
    hits = sum(simulate_backward(start, phi, seed=70_000 + j).events[-1].time <= t
               for j in range(reps))
    assert abs(hits / reps - exact) < 3 * math.sqrt(exact * (1.0 - exact) / reps)


def test_history_json_lines():
    phi = RateFunction(RateKind.TOTAL_N)
    hist = simulate_backward(Configuration((2, 1)), phi, seed=5)
    lines = history_to_json_lines(hist).splitlines()
    assert len(lines) == 2
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"time", "kind", "block_index", "config_after"}
    assert json.loads(lines[-1])["config_after"] == [1]


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
    # scipy.special is the only scipy module `import nbpk` needs; scipy.linalg would add
    # several MB of resident memory to every process that imports nbpk, and
    # scipy.integrate (whose Gauss-Kronrod table numerics copies) would slow the import.
    # nbpk.checks, and the scipy.stats its chi-square check needs, load only on demand.
    import nbpk

    src = os.path.dirname(os.path.dirname(os.path.abspath(nbpk.__file__)))
    code = ("import sys, nbpk; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.linalg', 'scipy.integrate', 'scipy.stats', 'nbpk.checks'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_the_cached_level_law_is_the_uncached_one_and_read_only():
    from nbpk.coalescent import _level_law

    times = (0.0, 0.5, 1.0, 2.0)
    for kind in (RateKind.TOTAL_N, RateKind.TOTAL_N_CHOOSE_2):
        for n in (2, 6, 40):
            _level_law.cache_clear()
            h_solver_exact(Configuration((n,)), RateFunction(kind), t_grid=times)  # fills it
            cached, fresh = _level_law(n, kind, times), _level_law.__wrapped__(n, kind, times)
            assert _level_law.cache_info().hits == 1
            assert cached.shape == (len(times), n) and cached.tobytes() == fresh.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                cached[0, 0] = 0.5


def test_a_returned_h_array_is_the_callers_own():
    # Writing into a result, the default h0's level column included, must not reach
    # the level law or lattice caches that the next call reads.
    custom = RateFunction(RateKind.CUSTOM, custom=lambda c: float(c.n))
    for phi in (RateFunction(RateKind.TOTAL_N), RateFunction(RateKind.TOTAL_N_CHOOSE_2), custom):
        for h0 in (None, lambda c: float(c.k)):
            first = h_solver_exact(Configuration((3, 2)), phi, h0=h0, t_grid=(0.0, 0.7))
            want = first.tobytes()
            first[:] = -1.0
            assert h_solver_exact(Configuration((3, 2)), phi, h0=h0,
                                  t_grid=(0.0, 0.7)).tobytes() == want
