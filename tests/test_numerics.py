"""Quadrature and grid-sampler tests against analytic integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from nbpk import numerics
from nbpk.levy_models import LevyModel, ModelParamsR
from nbpk.numerics import (
    LogDensityGridSampler,
    QuadratureError,
    QuadratureSpec,
    log_integrate_halfline_logv,
)
from nbpk.partitions import Configuration
from nbpk.posterior import log_eppf
from nbpk.sampler import _v_sampler, sample_v


def test_kronrod_weights_integrate_polynomials_to_degree_22():
    # K15 is exact for degree 3*7 + 1 = 22: int_{-1}^{1} x^j dx = 2/(j+1) for even j, else 0.
    for j in range(23):
        want = 0.0 if j % 2 else 2.0 / (j + 1)
        got = numerics._K15_WEIGHTS @ numerics._K15_NODES ** j
        assert got == pytest.approx(want, abs=1e-14)


def test_embedded_gauss_rule_is_legendre_7():
    x, w = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(numerics._K15_NODES[1::2], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(numerics._G7_WEIGHTS[1::2], w, rtol=0, atol=1e-15)
    # The Kronrod-only nodes carry no G7 weight.
    assert not numerics._G7_WEIGHTS[::2].any()


def test_smooth_eppf_converges_on_the_initial_panels(monkeypatch):
    # gengamma(0.5) r=2 at (2, 1) needs no split: one round of 16 panels x 15 nodes.
    seen = []
    quad = numerics.log_integrate_halfline_logv

    def counting(log_f_lv, *args):
        def log_f(lv):
            seen.append(np.size(lv))
            return log_f_lv(lv)
        return quad(log_f, *args)

    monkeypatch.setattr("nbpk.posterior.log_integrate_halfline_logv", counting)
    log_eppf(ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0), Configuration((2, 1)))
    assert seen == [16 * 15]


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


def _stacked_gamma_rows(lv, extra_rows=()):
    # rows v^(a-1) e^-v for a = 0.3, 1, 5; v^1 e^-v shifted by +700 nats; zero everywhere
    v = np.exp(lv)
    rows = [(a - 1.0) * lv - v for a in (0.3, 1.0, 5.0)]
    rows += [lv - v + 700.0, np.full_like(lv, -np.inf), *extra_rows]
    return np.array(rows)


def test_vector_integrand_rows_converge_separately():
    got = log_integrate_halfline_logv(_stacked_gamma_rows)
    assert got.shape == (5,)
    # Each row is what its own pass gives; the shared panels only refine it.
    for j in range(4):
        alone = log_integrate_halfline_logv(lambda lv: _stacked_gamma_rows(lv)[j])
        assert got[j] == pytest.approx(alone, abs=1e-12)
    # The a = 0.3 row is checked against Gamma(0.3) in the test below.
    assert got[1:4] == pytest.approx([0.0, math.lgamma(5.0), 700.0], abs=1e-9)
    assert got[4] == -np.inf


@pytest.mark.xfail(strict=True, reason="the K15-G7 difference under-reports the error "
                   "on the panel at the v^(a-1) singularity: -1.1e-9 achieved at a = 0.3")
def test_endpoint_singularity_meets_rel_tol():
    got = log_integrate_halfline_logv(lambda lv: -0.7 * lv - np.exp(lv))
    assert got == pytest.approx(math.lgamma(0.3), abs=1e-9)


def test_vector_integrand_nan_in_one_row_raises():
    with pytest.raises(QuadratureError):
        log_integrate_halfline_logv(
            lambda lv: _stacked_gamma_rows(lv, [np.where(lv > 0.0, np.nan, -np.exp(lv))]))


def test_vector_integrand_nonconvergent_row_carries_its_estimate():
    # int v^-1 e^-v dv diverges at 0; shifted by +700 nats, its best estimate
    # is told apart from the convergent rows' (all below log 24).
    spec = QuadratureSpec(max_subdivisions=200)
    with pytest.raises(QuadratureError) as exc:
        log_integrate_halfline_logv(
            lambda lv: _stacked_gamma_rows(lv, [-lv - np.exp(lv) + 700.0]), spec)
    assert 700.0 < exc.value.best_estimate < 710.0
    assert exc.value.error_bound > spec.rel_tol


def test_three_dimensional_integrand_raises():
    with pytest.raises(ValueError):
        log_integrate_halfline_logv(lambda lv: np.zeros((2, 2, np.size(lv))))


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
    a = [other.sample_lv(rng_a) for _ in range(50)]
    b = [sampler.sample_lv(rng_b) for _ in range(50)]
    assert a == b


def test_grid_sampler_sample_lv_consistent():
    # sample_v reports v = exp of the grid sampler's log-v draw
    params, config = ModelParamsR(LevyModel.gamma(1.0), 2.0), Configuration((2, 1))
    lv = _v_sampler(params, config.sorted_counts()).sample_lv(np.random.default_rng(11))
    v = sample_v(params, config, np.random.default_rng(11))
    assert v == pytest.approx(math.exp(lv))


def test_grid_sampler_degenerate_raises():
    with pytest.raises(ValueError):
        LogDensityGridSampler(lambda lv: np.full_like(np.asarray(lv, float), -np.inf))
