"""End-to-end acceptance checks, one per numbered criterion.

Each test runs the criterion's check from :mod:`nbpk.checks`, which
``nbpk validate`` runs too, on the criterion's grid.  It prints every
``(label, value)`` row with its PASS/FAIL status (visible with -s or on
failure) and asserts that all rows pass.  The sampling checks use fixed seeds
so the suite is deterministic.
"""

import itertools

import numpy as np

from nbpk import checks
from nbpk.checks import configs_up_to
from nbpk.levy_models import LevyModel, ModelParamsR
from nbpk.partitions import Configuration

ALPHA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
THETA_GRID = (0.5, 1.0, 2.0, 5.0)

FOUR_MODELS = [
    ModelParamsR(LevyModel.stable(0.5), 1.5),
    ModelParamsR(LevyModel.gamma(1.0), 2.0),
    ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
    ModelParamsR(LevyModel.truncated_stable(0.5), 1.5),
]


def _report(criterion, rows):
    rows = list(rows)
    for label, value, ok in rows:
        print(f"criterion {criterion} {label}: {value:.3g} {'PASS' if ok else 'FAIL'}")
    failed = [label for label, _, ok in rows if not ok]
    assert rows and not failed, f"criterion {criterion} failed: {failed}"


def _random_config(rng, n_max):
    parts = []
    rem = int(rng.integers(2, n_max + 1))
    while rem > 0:
        c = int(rng.integers(1, rem + 1))
        parts.append(c)
        rem -= c
    return Configuration(tuple(parts))


def _random_triples(rng, count):
    for j in range(count):
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
        yield ModelParamsR(model, float(rng.uniform(0.3, 5.0))), _random_config(rng, 10)


def test_criterion_01_pd_eppf_reproduction():
    _report(1, checks.pd_eppf(itertools.product(ALPHA_GRID, THETA_GRID), configs_up_to(8)))


def test_criterion_02_r_independence():
    _report(2, checks.r_independence(configs_up_to(8)))


def test_criterion_03_prediction_identity_random_triples():
    _report(3, checks.prediction_sum(_random_triples(np.random.default_rng(404), 50)))


def test_criterion_04_full_normalization():
    _report(4, checks.partition_normalization(FOUR_MODELS, 7))


def test_criterion_05_prediction_closed_forms():
    _report(5, checks.pd_predictive(itertools.product(ALPHA_GRID, THETA_GRID), configs_up_to(8)))


def test_criterion_06_derivative_identities():
    _report(6, checks.derivative_identities(FOUR_MODELS, 10))


def test_criterion_07_urn_chain_exactness():
    _report(7, checks.urn_exactness(FOUR_MODELS, 4, 100_000, 1729))


def test_criterion_08_v_sampler_moments():
    # Ten configurations and their V draws share one stream, drawn in turn.
    rng = np.random.default_rng(808)
    _report(8, checks.v_moments((_random_config(rng, 8) for _ in range(10)), 100_000, rng))


def test_criterion_09_backward_recursion():
    _report(9, checks.backward_recursion(FOUR_MODELS, configs_up_to(6, n_min=2)))


def test_criterion_10_h_solver():
    _report(10, checks.h_solver(Configuration((3, 2)), np.linspace(0.0, 2.0, 9), 10_000, 7000))
