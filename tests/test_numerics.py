"""Quadrature and grid-sampler tests against analytic integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nbpk.numerics import (
    LogDensityGridSampler,
    QuadratureError,
    QuadratureSpec,
    log_integrate_halfline_logv,
)


def test_exponential_integral_is_one():
    assert log_integrate_halfline_logv(lambda lv: -np.exp(lv)) == pytest.approx(0.0, abs=1e-10)


def test_gamma_integral_n5():
    # int v^4 e^{-2v} dv = Gamma(5) / 2^5
    got = log_integrate_halfline_logv(lambda lv: 4.0 * lv - 2.0 * np.exp(lv))
    assert got == pytest.approx(math.log(24.0 / 32.0), abs=1e-9)


def test_logv_integrator_matches_plain_on_gamma_integral():
    got = log_integrate_halfline_logv(lambda lv: 4.0 * lv - np.exp(np.minimum(lv, 700.0)))
    assert got == pytest.approx(math.log(24.0), abs=1e-9)


@pytest.mark.parametrize("n,theta", [(1, 0.5), (3, 2.0), (5, 1.0), (2, 4.5)])
def test_beta_integral_agreement(n, theta):
    # int v^{n-1} (1+v)^{-n-theta} dv = B(n, theta)
    want = math.lgamma(n) + math.lgamma(theta) - math.lgamma(n + theta)
    got_lv = log_integrate_halfline_logv(
        lambda lv: (n - 1) * lv - (n + theta) * np.logaddexp(0.0, lv))
    assert got_lv == pytest.approx(want, abs=1e-8)


def test_logv_integrator_resolves_log_power_tail():
    # int (1+v)^{-1} (1 + log(1+v))^{-3} dv = 1/2 after u = log(1+v);
    # a large share of the mass sits at v far beyond float range.
    def log_f(lv):
        u = np.logaddexp(0.0, lv)
        return -u - 3.0 * np.log1p(u)

    got = log_integrate_halfline_logv(log_f)
    assert got == pytest.approx(math.log(0.5), abs=1e-8)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-500.0, max_value=500.0))
def test_shift_invariance(c):
    base = log_integrate_halfline_logv(lambda lv: 3.0 * lv - 2.0 * np.exp(lv))
    shifted = log_integrate_halfline_logv(lambda lv: 3.0 * lv - 2.0 * np.exp(lv) + c)
    assert shifted - base == pytest.approx(c, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-500.0, max_value=500.0))
def test_shift_invariance_logv(c):
    base = log_integrate_halfline_logv(lambda lv: 2.0 * lv - 4.0 * np.logaddexp(0.0, lv))
    shifted = log_integrate_halfline_logv(
        lambda lv: 2.0 * lv - 4.0 * np.logaddexp(0.0, lv) + c)
    assert shifted - base == pytest.approx(c, abs=1e-12)


def test_identically_zero_integrand():
    assert log_integrate_halfline_logv(lambda lv: np.full_like(lv, -np.inf)) == -np.inf


def test_nan_integrand_raises():
    with pytest.raises(QuadratureError):
        log_integrate_halfline_logv(lambda lv: np.where(lv > 0.0, np.nan, -np.exp(lv)))


def test_nonconvergence_carries_best_estimate():
    spec = QuadratureSpec(rel_tol=1e-9, max_subdivisions=2)
    # Endpoint-singular integrand that two subdivisions cannot resolve.
    with pytest.raises(QuadratureError) as exc:
        log_integrate_halfline_logv(lambda lv: -0.999 * lv - np.exp(lv), spec)
    assert exc.value.best_estimate is not None
    assert exc.value.error_bound is not None and exc.value.error_bound > 0.0


def test_wrong_shape_integrand_raises():
    # A scalar would broadcast over every node; it is refused, not re-run point by point.
    with pytest.raises(ValueError):
        log_integrate_halfline_logv(lambda lv: -1.0)
    with pytest.raises(ValueError):
        LogDensityGridSampler(lambda lv: -1.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.5)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


def _log_gamma_density_lv(shape):
    def log_f(lv):
        lv = np.asarray(lv, float)
        v = np.exp(np.minimum(lv, 700.0))
        return (shape - 1.0) * lv - v
    return log_f


def test_grid_sampler_gamma_moments():
    # Shapes below 1 put a v^(shape-1) singularity at v = 0 that the sampler
    # must resolve.
    for shape in (0.1, 0.2, 0.5, 3.0):
        sampler = LogDensityGridSampler(_log_gamma_density_lv(shape))
        rng = np.random.default_rng(31)
        draws = np.exp([sampler.sample_lv(rng) for _ in range(100_000)])
        assert np.all(draws > 0.0)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - shape) < 3.0 * se
        assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 0.001


def test_grid_sampler_deterministic():
    sampler = LogDensityGridSampler(_log_gamma_density_lv(2.0))
    other = LogDensityGridSampler(_log_gamma_density_lv(2.0))
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    a = [other.sample(rng_a) for _ in range(50)]
    b = [sampler.sample(rng_b) for _ in range(50)]
    assert a == b


def test_grid_sampler_sample_lv_consistent():
    sampler = LogDensityGridSampler(_log_gamma_density_lv(2.0))
    lv = sampler.sample_lv(np.random.default_rng(11))
    v = sampler.sample(np.random.default_rng(11))
    assert v == pytest.approx(math.exp(lv))


def test_grid_sampler_degenerate_raises():
    with pytest.raises(ValueError):
        LogDensityGridSampler(lambda lv: np.full_like(np.asarray(lv, float), -np.inf))
