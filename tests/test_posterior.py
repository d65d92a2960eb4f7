"""EPPF, prediction weights and the two normalization identities.

The two-parameter closed forms in nbpk.reference act as quadrature-free
oracles: the generalized-gamma model with r = theta/alpha must reproduce them
exactly, and the stable model must reproduce the theta = 0 case for every r.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammainc

from nbpk import reference
from nbpk.levy_models import LevyModel, ModelParamsR, log_pi_n_lv
from nbpk.numerics import log_integrate_halfline_logv
from nbpk.partitions import Configuration, enumerate_afs
from nbpk.posterior import (
    _log_g_r_lv,
    check_prediction_sum,
    check_partition_normalization,
    log_eppf,
    log_v_moment,
    normalized_predictive,
    predictive_weights,
    sample_jump_given_v,
)

PD_HALF = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)  # theta = 1

FOUR_MODELS = [
    ModelParamsR(LevyModel.stable(0.5), 1.5),
    ModelParamsR(LevyModel.gamma(1.0), 2.0),
    ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
    ModelParamsR(LevyModel.truncated_stable(0.5), 1.5),
]


def test_log_g_r_fixed_value():
    # hand assembly for the generalized-gamma model at v = 1:
    # r^{[k]} = 2, psi = 2^{0.5}, pi_1 = 0.5 * 2^{-0.5}, exponent r+k = 3
    got = _log_g_r_lv(PD_HALF, Configuration((1,)), math.log(1.0))
    assert got == pytest.approx(math.log(0.25), abs=1e-12)


def test_g_r_integrates_to_one_single_block():
    for params in FOUR_MODELS:
        assert log_eppf(params, Configuration((1,))) == pytest.approx(0.0, abs=1e-8)


def test_eppf_pd_fixed_values():
    assert log_eppf(PD_HALF, Configuration((2,))) == pytest.approx(math.log(0.25), abs=1e-8)
    assert log_eppf(PD_HALF, Configuration((1, 1))) == pytest.approx(math.log(0.75), abs=1e-8)


def test_eppf_symmetry():
    rng = np.random.default_rng(5)
    cfg = (4, 2, 1, 1)
    base = log_eppf(PD_HALF, Configuration(cfg))
    for _ in range(4):
        perm = tuple(rng.permutation(cfg))
        assert log_eppf(PD_HALF, Configuration(perm)) == pytest.approx(base, abs=1e-12)


def test_eppf_pd_reduction_grid():
    for alpha, theta in ((0.3, 0.5), (0.5, 2.0), (0.7, 1.0)):
        params = ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)
        for n in range(2, 7):
            for m in enumerate_afs(n):
                cfg = m.to_configuration()
                want = reference.pd_log_eppf(alpha, theta, cfg.counts)
                assert log_eppf(params, cfg) == pytest.approx(want, abs=1e-6)


def test_stable_r_independence():
    cfg = Configuration((2, 1))
    vals = [log_eppf(ModelParamsR(LevyModel.stable(0.6), r), cfg)
            for r in (0.2, 1.0, 5.0, 25.0)]
    assert max(vals) - min(vals) < 1e-8
    want = reference.pd_log_eppf(0.6, 0.0, cfg.counts)
    assert vals[0] == pytest.approx(want, abs=1e-6)


def test_predictive_pd_case():
    probs = normalized_predictive(PD_HALF, Configuration((3, 1)))
    assert probs == pytest.approx([0.4, 0.5, 0.1], abs=1e-6)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("counts", [(5,) * 60 + (100,), (200, 100, 50) + (1,) * 150])
def test_predictive_where_eppf_underflows(counts):
    # log p(n) is about -1377 and -739 here: exp(log_eppf) is 0.0 or subnormal,
    # so linear weights divided by it came out NaN or summed to 0.847.
    cfg = Configuration(counts)
    want = reference.pd_predictive(0.5, 1.0, counts)
    assert normalized_predictive(PD_HALF, cfg) == pytest.approx(want, rel=1e-9, abs=0)
    assert check_prediction_sum(PD_HALF, cfg) < 1e-9


def test_predictive_single_block_sums_to_eppf():
    for params in FOUR_MODELS:
        w = predictive_weights(params, Configuration((1,)))
        assert math.exp(w.log_omega0) + math.exp(w.log_omega[0]) == pytest.approx(1.0, abs=1e-7)


def test_omega0_routes_agree():
    # omega_0 = r/n int v pi_1 g_{r+1} dv as well, since g_{r+1} = g_r (r+k) / (r psi).
    for params in FOUR_MODELS:
        bumped = ModelParamsR(params.model, params.r + 1.0)
        for counts in [(2, 1), (3,), (1, 1, 1)]:
            cfg = Configuration(counts)
            a = predictive_weights(params, cfg).log_omega0
            b = math.log(params.r / cfg.n) + log_integrate_halfline_logv(
                lambda lv: lv + log_pi_n_lv(params.model, 1, lv) + _log_g_r_lv(bumped, cfg, lv))
            assert abs(a - b) < 1e-8


def test_new_cluster_prob_is_crp_value_for_stable():
    # PD(alpha, 0): new-cluster probability is k*alpha/n for any r
    for r in (0.7, 3.0):
        params = ModelParamsR(LevyModel.stable(0.5), r)
        probs = normalized_predictive(params, Configuration((2, 2)))
        assert probs[0] == pytest.approx(2 * 0.5 / 4.0, abs=1e-6)


def test_prediction_sum_residuals():
    cases = [
        (ModelParamsR(LevyModel.stable(0.3), 1.7), Configuration((4, 2, 1))),
        (ModelParamsR(LevyModel.gamma(2.5), 0.8), Configuration((5,))),
        (ModelParamsR(LevyModel.truncated_stable(0.6), 3.0), Configuration((2, 2, 1, 1))),
    ]
    for params, cfg in cases:
        assert check_prediction_sum(params, cfg) < 1e-6


def test_partition_normalization_residuals():
    assert check_partition_normalization(ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0), 4) < 1e-6
    assert check_partition_normalization(ModelParamsR(LevyModel.gamma(1.0), 1.0), 1) < 1e-9
    assert check_partition_normalization(ModelParamsR(LevyModel.stable(0.25), 4.0), 6) < 1e-6
    with pytest.raises(ValueError):
        check_partition_normalization(FOUR_MODELS[0], 13)


def test_addition_rule():
    # p(n) equals the sum of backward terms built from the reduced configs
    for params in FOUR_MODELS:
        for counts in [(2, 1), (3, 1), (2, 2)]:
            cfg = Configuration(counts)
            n = cfg.n
            total = 0.0
            for i, ni in enumerate(cfg.counts):
                red = cfg.remove_one(i)
                w = predictive_weights(params, red)
                if ni > 1:
                    total += ni / n / (n - 1) * math.exp(w.log_omega[i])
                else:
                    total += math.exp(w.log_omega0) / n
            p = math.exp(log_eppf(params, cfg))
            assert total == pytest.approx(p, rel=1e-5)


def test_log_v_moment_against_independent_quadrature():
    from scipy.integrate import quad
    params = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
    cfg = Configuration((2, 1))
    want, _ = quad(lambda v: v * math.exp(_log_g_r_lv(params, cfg, math.log(v))), 0, np.inf,
                   limit=400, epsabs=0, epsrel=1e-10)
    got = math.exp(log_v_moment(params, cfg, 1.0))
    assert got == pytest.approx(want, rel=1e-7)


def _mp_log_eppf(params, counts, limits):
    """log p(n) by mpmath quadrature over log v, from mpmath's own closed forms.

    Integrates g_r(v, n) v d(log v) with
    g_r = Gamma(r+k) / (Gamma(r) Gamma(n)) psi^{-(r+k)} v^{n-1} prod_i pi_{n_i}.
    """
    model, n, k = params.model, sum(counts), len(counts)
    with mpmath.workdps(30):
        r = mpmath.mpf(params.r)
        if model.theta is not None:  # gamma
            th = mpmath.mpf(model.theta)

            def psi(v):
                return 1 + th * mpmath.log1p(v)

            def pi(m, v):
                return th * mpmath.gamma(m) * (1 + v) ** (-m)
        else:  # truncated stable
            a = mpmath.mpf(model.alpha)

            def psi(v):
                return mpmath.exp(-v) + v ** a * mpmath.gammainc(1 - a, 0, v)

            def pi(m, v):
                return a * v ** (a - m) * mpmath.gammainc(m - a, 0, v)

        def integrand(lv):
            v = mpmath.exp(lv)
            out = psi(v) ** (-(r + k)) * v ** n
            for m in counts:
                out *= pi(m, v)
            return out

        const = mpmath.gamma(r + k) / (mpmath.gamma(r) * mpmath.gamma(n))
        return float(mpmath.log(const * mpmath.quad(integrand, limits)))


def test_log_eppf_against_mpmath_oracle():
    # The two families with no closed-form EPPF.  Gamma's tail decays only like
    # a power of log v, so it is integrated to +inf; truncstable's integrand is
    # below e^{-150} outside |log v| <= 200, where mpmath's gammainc stays fast.
    cases = [
        (ModelParamsR(LevyModel.gamma(1.0), 2.0), [-mpmath.inf, 0, mpmath.inf]),
        (ModelParamsR(LevyModel.truncated_stable(0.5), 1.5), [-200, 0, 200]),
    ]
    for params, limits in cases:
        for counts in [(1,), (2, 1), (3, 2, 1)]:
            want = _mp_log_eppf(params, counts, limits)
            got = log_eppf(params, Configuration(counts))
            assert abs(got - want) < 1e-9, (params.model.describe(), counts, got, want)


def test_jump_sampler_gamma_mean():
    rng = np.random.default_rng(17)
    params = ModelParamsR(LevyModel.gamma(1.0), 1.0)
    draws = np.array([sample_jump_given_v(params, 3, 1.0, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 1.5) < 3 * se
    assert np.all(draws > 0.0)


def test_jump_sampler_stable_mean():
    rng = np.random.default_rng(23)
    params = ModelParamsR(LevyModel.stable(0.5), 1.0)
    draws = np.array([sample_jump_given_v(params, 2, 4.0, rng) for _ in range(100_000)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 0.375) < 3 * se


def test_jump_sampler_truncated_support():
    rng = np.random.default_rng(29)
    params = ModelParamsR(LevyModel.truncated_stable(0.5), 1.0)
    draws = [sample_jump_given_v(params, 2, 1.0, rng) for _ in range(2000)]
    assert all(0.0 < s <= 1.0 for s in draws)


def test_jump_sampler_truncated_small_v_mean():
    # at v = 0.001 the untruncated gamma law has mean 1500, far outside (0, 1]
    rng = np.random.default_rng(3)
    params = ModelParamsR(LevyModel.truncated_stable(0.5), 1.0)
    v, k = 0.001, 2 - 0.5
    draws = np.array([sample_jump_given_v(params, 2, v, rng) for _ in range(20_000)])
    assert np.all((draws > 0.0) & (draws <= 1.0))
    # E[s] = gamma(k + 1, v) / (v gamma(k, v)), with gamma(k, v) = P(k, v) Gamma(k)
    want = gammainc(k + 1, v) * math.gamma(k + 1) / (gammainc(k, v) * math.gamma(k)) / v
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - want) < 3 * se
    with pytest.raises(ValueError):
        sample_jump_given_v(params, 200, v, rng)  # P(199.5, 0.001) underflows


def test_jump_sampler_domain_errors():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_jump_given_v(PD_HALF, 2, 0.0, rng)
    with pytest.raises(ValueError):
        sample_jump_given_v(PD_HALF, 0, 1.0, rng)
