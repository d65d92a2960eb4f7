"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the same condition.  The sampling checks use fixed seeds so the suite
is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from nbpk import reference
from nbpk.coalescent import (
    RateFunction,
    RateKind,
    backward_event_probabilities,
    h_solver_exact,
    ratio_integrals,
    simulate_backward,
)
from nbpk.levy_models import LevyModel, ModelParamsR, log_pi_n_lv, log_psi_lv
from nbpk.partitions import Configuration, enumerate_afs, log_partition_coefficient
from nbpk.posterior import (
    check_prediction_sum,
    check_partition_normalization,
    log_eppf,
    log_v_moment,
    normalized_predictive,
)
from nbpk.sampler import run_chain, sample_v

ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
THETA_GRID = (0.5, 1.0, 2.0, 5.0)

FOUR_MODELS = [
    ModelParamsR(LevyModel.stable(0.5), 1.5),
    ModelParamsR(LevyModel.gamma(1.0), 2.0),
    ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
    ModelParamsR(LevyModel.truncated_stable(0.5), 1.5),
]


def _report(label, ok):
    print(f"{label}: {'PASS' if ok else 'FAIL'}")
    assert ok


def _configs_up_to(n_max, n_min=1):
    out = []
    for n in range(n_min, n_max + 1):
        out.extend(m.to_configuration() for m in enumerate_afs(n))
    return out


def _random_config(rng, n_max):
    parts = []
    rem = int(rng.integers(2, n_max + 1))
    while rem > 0:
        c = int(rng.integers(1, rem + 1))
        parts.append(c)
        rem -= c
    return Configuration(tuple(parts))


def test_criterion_01_pd_eppf_reproduction():
    worst = 0.0
    configs = _configs_up_to(8)
    for alpha in ALPHA_GRID:
        for theta in THETA_GRID:
            params = ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)
            for cfg in configs:
                got = log_eppf(params, cfg)
                want = reference.pd_log_eppf(alpha, theta, cfg.counts)
                worst = max(worst, abs(got - want))
    _report(f"criterion 1 (two-parameter eppf, worst {worst:.3g})", worst < 1e-6)


def test_criterion_02_r_independence():
    rs = (0.2, 1.0, 5.0, 25.0)
    worst_pair = 0.0
    worst_pd = 0.0
    for cfg in _configs_up_to(8):
        vals = [log_eppf(ModelParamsR(LevyModel.stable(0.6), r), cfg) for r in rs]
        worst_pair = max(worst_pair, max(vals) - min(vals))
        want = reference.pd_log_eppf(0.6, 0.0, cfg.counts)
        worst_pd = max(worst_pd, max(abs(v - want) for v in vals))
    ok = worst_pair < 1e-8 and worst_pd < 1e-6
    _report(f"criterion 2 (r-independence, spread {worst_pair:.3g}, "
            f"closed form {worst_pd:.3g})", ok)


def test_criterion_03_prediction_identity_random_triples():
    rng = np.random.default_rng(404)
    worst = 0.0
    for j in range(50):
        fam = j % 4
        alpha = float(rng.uniform(0.15, 0.85))
        if fam == 0:
            model = LevyModel.stable(alpha)
        elif fam == 1:
            model = LevyModel.gamma(float(rng.uniform(0.5, 3.0)))
        elif fam == 2:
            model = LevyModel.generalized_gamma(alpha)
        else:
            model = LevyModel.truncated_stable(alpha)
        params = ModelParamsR(model, float(rng.uniform(0.3, 5.0)))
        cfg = _random_config(rng, 10)
        worst = max(worst, check_prediction_sum(params, cfg))
    _report(f"criterion 3 (prediction identity, worst residual {worst:.3g})",
            worst < 1e-6)


def test_criterion_04_full_normalization():
    worst = 0.0
    for params in FOUR_MODELS:
        for n in range(1, 8):
            worst = max(worst, check_partition_normalization(params, n))
    _report(f"criterion 4 (partition normalization, worst residual {worst:.3g})",
            worst < 1e-6)


def test_criterion_05_prediction_closed_forms():
    worst = 0.0
    configs = _configs_up_to(8)
    for alpha in ALPHA_GRID:
        for theta in THETA_GRID:
            params = ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)
            for cfg in configs:
                got = normalized_predictive(params, cfg)
                want = reference.pd_predictive(alpha, theta, cfg.counts)
                worst = max(worst, float(np.abs(got - want).max()))
    _report(f"criterion 5 (prediction closed forms, worst {worst:.3g})", worst < 1e-6)


def test_criterion_06_derivative_identities():
    # psi' = pi_1 and pi_n = -pi_{n-1}', on the log-v kernels the package runs.
    def psi(model, v):
        return math.exp(log_psi_lv(model, math.log(v)))

    def pi(model, n, v):
        return math.exp(log_pi_n_lv(model, n, math.log(v)))

    worst = 0.0
    for params in FOUR_MODELS:
        model = params.model
        for v in (0.01, 0.1, 1.0, 10.0, 100.0):
            h = 1e-5 * v
            d_psi = (psi(model, v + h) - psi(model, v - h)) / (2 * h)
            pi1 = pi(model, 1, v)
            worst = max(worst, abs(pi1 - d_psi) / pi1)
            for n in range(2, 11):
                d_prev = (pi(model, n - 1, v + h) - pi(model, n - 1, v - h)) / (2 * h)
                pin = pi(model, n, v)
                worst = max(worst, abs(pin + d_prev) / pin)
    _report(f"criterion 6 (derivative identities, worst rel err {worst:.3g})",
            worst < 1e-5)


def test_criterion_07_urn_chain_exactness():
    n, reps = 4, 100_000
    classes = enumerate_afs(n)
    worst_p = 1.0
    for params in FOUR_MODELS:
        probs = np.array([math.exp(log_partition_coefficient(m)
                                   + log_eppf(params, m.to_configuration()))
                          for m in classes])
        probs /= probs.sum()
        index = {m.m: j for j, m in enumerate(classes)}
        counts = np.zeros(len(classes))
        for j in range(reps):
            counts[index[run_chain(params, n, 1729 + j).afs.m]] += 1
        _, pval = chisquare(counts, probs * reps)
        worst_p = min(worst_p, pval)
    _report(f"criterion 7 (urn exactness, min chi-square p {worst_p:.3g})",
            worst_p > 0.001)


def test_criterion_08_v_sampler_moments():
    # a model whose auxiliary variable has finite first and second moments
    params = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
    rng = np.random.default_rng(808)
    worst_z = 0.0
    for _ in range(10):
        cfg = _random_config(rng, 8)
        lz = log_eppf(params, cfg)
        mean = math.exp(log_v_moment(params, cfg, 1.0) - lz)
        second = math.exp(log_v_moment(params, cfg, 2.0) - lz)
        draws = np.array([sample_v(params, cfg, rng) for _ in range(100_000)])
        se1 = draws.std(ddof=1) / math.sqrt(len(draws))
        se2 = (draws ** 2).std(ddof=1) / math.sqrt(len(draws))
        worst_z = max(worst_z,
                      abs(draws.mean() - mean) / se1,
                      abs((draws ** 2).mean() - second) / se2)
    _report(f"criterion 8 (v-sampler moments, worst z {worst_z:.3g})", worst_z < 3.0)


def test_criterion_09_backward_recursion():
    worst = 0.0
    for params in FOUR_MODELS:
        for cfg in _configs_up_to(6, n_min=2):
            _, total = backward_event_probabilities(params, cfg)
            p = math.exp(log_eppf(params, cfg))
            worst = max(worst, abs(total - p) / p)
    pd_half = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)
    cfg = Configuration((3, 1))
    d0 = abs(ratio_integrals(pd_half, cfg, 0) - 0.28125)
    d1 = abs(ratio_integrals(pd_half, cfg, 1) - 0.09375)
    ok = worst < 1e-5 and d0 < 1e-6 and d1 < 1e-6
    _report(f"criterion 9 (backward recursion, worst rel {worst:.3g}, "
            f"ratio errs {d0:.3g}/{d1:.3g})", ok)


def test_criterion_10_h_solver():
    phi = RateFunction(RateKind.TOTAL_N)
    t_grid = np.linspace(0.0, 2.0, 9)
    vals = h_solver_exact(Configuration((3, 2)), phi, h0=lambda c: 1.0, t_grid=t_grid)
    const_dev = float(np.abs(vals - 1.0).max())

    start = Configuration((2, 2, 1))  # n = 5
    t_star = 1.0
    exact = h_solver_exact(start, phi, t_grid=(t_star,))[0]
    reps = 10_000
    hits = sum(simulate_backward(start, phi, seed=7000 + j).events[-1].time <= t_star
               for j in range(reps))
    se = math.sqrt(exact * (1.0 - exact) / reps)
    z = abs(hits / reps - exact) / se
    ok = const_dev < 1e-9 and z < 3.0
    _report(f"criterion 10 (h-solver, constant dev {const_dev:.3g}, mc z {z:.3g})", ok)
