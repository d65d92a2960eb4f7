"""Closed forms for psi and pi_n checked against direct integration of their
defining integrals, plus the derivative chain pi_n = (-1)^{n-1} psi^{(n)}."""

import math
import os
import pickle
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nbpk import levy_models
from nbpk.levy_models import (
    LevyModel,
    ModelKind,
    ModelParamsR,
    _kernel_features,
    _log_lower_gammas,
    _shape_constants,
    log_kernels_lv,
    log_pi_n_lv,
    log_psi_lv,
)
from nbpk.numerics import _MESH_LV

V_GRID = (0.01, 0.1, 1.0, 10.0, 100.0)


def psi(model, v):
    """psi(v) from the log-v kernel the package runs."""
    return math.exp(log_psi_lv(model, math.log(v)))


def log_pi_n(model, n, v):
    """log pi_n(v) from the log-v kernel the package runs."""
    return log_pi_n_lv(model, n, math.log(v))


def _oracle_models():
    """Built-in models paired with their raw intensity functions."""
    return [
        (LevyModel.stable(0.4),
         lambda x: 0.4 / math.gamma(0.6) * x ** (-1.4), np.inf),
        (LevyModel.gamma(1.5),
         lambda x: 1.5 * math.exp(-x) / x, np.inf),
        (LevyModel.generalized_gamma(0.6),
         lambda x: 0.6 / math.gamma(0.4) * x ** (-1.6) * math.exp(-x), np.inf),
        (LevyModel.truncated_stable(0.5),
         lambda x: 0.5 * x ** (-1.5), 1.0),
    ]


def test_psi_fixed_values():
    assert math.exp(log_psi_lv(LevyModel.gamma(2.0), -math.inf)) == pytest.approx(1.0)  # v = 0
    assert psi(LevyModel.stable(0.5), 4.0) == pytest.approx(3.0)
    assert psi(LevyModel.generalized_gamma(0.5), 3.0) == pytest.approx(2.0)


def test_log_pi_n_fixed_values():
    # theta * Gamma(3) * 2^{-3} = 0.5
    assert log_pi_n(LevyModel.gamma(2.0), 3, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
    # alpha * v^{alpha-1} at v=1
    assert log_pi_n(LevyModel.stable(0.5), 1, 1.0) == pytest.approx(math.log(0.5), abs=1e-12)
    # truncated stable: pi_1(0+) = alpha/(1-alpha) = 1 for alpha = 1/2
    assert log_pi_n(LevyModel.truncated_stable(0.5), 1, 1e-8) == pytest.approx(0.0, abs=1e-4)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_closed_forms_against_quadrature():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, rho, upper in _oracle_models():
            for v in V_GRID:
                val, _ = quad(lambda x: (1.0 - math.exp(-v * x)) * rho(x),
                              0, upper, limit=400, epsabs=0, epsrel=1e-12)
                assert psi(model, v) == pytest.approx(1.0 + val, rel=1e-8), (model.describe(), v)
                for n in (1, 2, 5, 10):
                    val, _ = quad(lambda x: x ** n * rho(x) * math.exp(-v * x),
                                  0, upper, limit=400, epsabs=0, epsrel=1e-12)
                    got = math.exp(log_pi_n(model, n, v))
                    assert got == pytest.approx(val, rel=1e-8), (model.describe(), n, v)


def test_derivative_chain_finite_differences():
    for model, _, _ in _oracle_models():
        for v in V_GRID:
            h = 1e-5 * v
            d_psi = (psi(model, v + h) - psi(model, v - h)) / (2 * h)
            pi1 = math.exp(log_pi_n(model, 1, v))
            assert abs(pi1 - d_psi) / pi1 < 1e-5
            for n in range(2, 11):
                d_prev = (math.exp(log_pi_n(model, n - 1, v + h))
                          - math.exp(log_pi_n(model, n - 1, v - h))) / (2 * h)
                pin = math.exp(log_pi_n(model, n, v))
                assert abs(pin + d_prev) / pin < 1e-5


def test_monotonicity():
    grid = np.linspace(0.05, 50.0, 60)
    for model, _, _ in _oracle_models():
        psis = np.array([psi(model, v) for v in grid])
        assert np.all(np.diff(psis) >= 0.0)
        assert psis[0] >= 1.0
        for n in (1, 3, 6):
            pis = np.array([log_pi_n(model, n, v) for v in grid])
            assert np.all(np.diff(pis) <= 0.0)


def test_logv_domain_handles_huge_v():
    # values of v far beyond float range, reachable only through log v
    for model, _, _ in _oracle_models():
        for lv in (800.0, 5e3, 1e12):
            lp = log_psi_lv(model, lv)
            assert np.isfinite(lp) and lp > 0.0
            l1 = log_pi_n_lv(model, 1, lv)
            l2 = log_pi_n_lv(model, 2, lv)
            assert np.isfinite(l1) and np.isfinite(l2)
            assert l2 < l1  # tilted moments collapse as v grows


def test_truncated_stable_branch_continuity():
    # psi must join smoothly across v = 700, where exp(-v) is still
    # representable but gamma(1 - alpha, v) equals Gamma(1 - alpha) in floats
    model = LevyModel.truncated_stable(0.3)
    below = log_psi_lv(model, math.log(700.0) - 1e-9)
    above = log_psi_lv(model, math.log(700.0) + 1e-9)
    assert below == pytest.approx(above, abs=1e-8)


def _mp_log_lower_gamma(s, lv):
    with mpmath.workdps(40):
        return float(mpmath.log(mpmath.gammainc(s, 0, mpmath.exp(lv))))


def test_truncated_stable_pi_n_continuous_at_700():
    # gamma(n - alpha, 700) is not Gamma(n - alpha) once n - alpha exceeds about 560
    model = LevyModel.truncated_stable(0.5)
    for n in (600, 700):
        below, above = math.log(700.0) - 1e-9, math.log(700.0) + 1e-9
        got = [log_pi_n_lv(model, n, lv) for lv in (below, above)]
        assert abs(got[1] - got[0]) < 2e-9 * n
        for lv, g in zip((below, above), got):
            want = math.log(0.5) + (0.5 - n) * lv + _mp_log_lower_gamma(n - 0.5, lv)
            assert g == pytest.approx(want, rel=1e-13), (n, lv)


def test_truncated_stable_pi_n_where_v_underflows():
    # pi_n(v) -> alpha / (n - alpha) as v -> 0, also once exp(lv) underflows to 0
    got = log_pi_n_lv(LevyModel.truncated_stable(0.5), 2, -800.0)
    assert got == pytest.approx(math.log(0.5 / 1.5), abs=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_truncated_stable_kernels_at_v_zero(alpha):
    # lv = -inf is v = 0 itself: psi(0) = 1 and pi_m(0) = alpha / (m - alpha), read at one
    # point or in a column, whose finite points keep their bits.
    model, sizes = LevyModel.truncated_stable(alpha), (1, 2, 7, 500)
    want = [math.log(alpha / (m - alpha)) for m in sizes]
    assert log_pi_n_lv(model, 2, -math.inf) == pytest.approx(want[1], rel=1e-15)
    for lv in ([-math.inf], [-math.inf, 0.3]):
        rows = log_kernels_lv(model, sizes, lv)
        assert rows[0, 0] == 0.0
        assert rows[1:, 0] == pytest.approx(want, rel=1e-15)
    finite = log_kernels_lv(model, sizes, [0.3, 0.5])[:, 0]
    assert rows[:, 1].tobytes() == finite.tobytes()


def test_log_lower_gamma_kernel_against_mpmath():
    lvs = np.concatenate([np.linspace(-800.0, 800.0, 81), np.linspace(-3.0, 7.5, 43)])
    shapes = [n - 0.5 for n in (1, 2, 7, 50, 500, 1000)]
    wants, gots = [], []
    for s in shapes:
        want = np.array([_mp_log_lower_gamma(s, lv) for lv in lvs])
        got = _log_lower_gammas(_shape_constants((s,)), lvs)
        assert got.shape == (1, lvs.size)
        np.testing.assert_allclose(got[0], want, rtol=1e-13, atol=0, err_msg=f"s = {s}")
        for lv, w in zip(lvs[::9], want[::9]):
            one = _log_lower_gammas(_shape_constants((s,)), np.array([lv]))
            assert one[0, 0] == pytest.approx(w, rel=1e-13)
        wants.append(want)
        gots.append(got[0])
    # Every shape at once, a row each: the same bits as one shape at a time.
    rows = _log_lower_gammas(_shape_constants(tuple(shapes)), lvs)
    assert rows.shape == (len(shapes), lvs.size)
    np.testing.assert_allclose(rows, np.array(wants), rtol=1e-13, atol=0)
    assert rows.tobytes() == np.array(gots).tobytes()
    # A shape tuple no other call uses, with its constants cache cleared, then warm: the
    # same bits both times, and each row those of its own one-shape call.
    fresh = (0.3, 4.7, 12.25)
    levy_models._shape_constants.cache_clear()
    cold = _log_lower_gammas(_shape_constants(fresh), lvs)
    assert levy_models._shape_constants.cache_info().misses == 1
    assert _log_lower_gammas(_shape_constants(fresh), lvs).tobytes() == cold.tobytes()
    assert levy_models._shape_constants.cache_info().hits == 1
    for s, row in zip(fresh, cold):
        assert row.tobytes() == _log_lower_gammas(_shape_constants((s,)), lvs)[0].tobytes()
        want = [_mp_log_lower_gamma(s, lv) for lv in lvs]
        np.testing.assert_allclose(row, want, rtol=1e-13, atol=0, err_msg=f"s = {s}")


@pytest.mark.parametrize("model", [LevyModel.stable(0.4), LevyModel.gamma(1.5),
                                   LevyModel.generalized_gamma(0.6),
                                   LevyModel.truncated_stable(0.5)], ids=LevyModel.describe)
@pytest.mark.parametrize("lv", [np.linspace(-800.0, 800.0, 3001), np.array([0.3]), _MESH_LV],
                         ids=["wide", "one-point", "mesh"])
def test_kernel_rows_equal_the_one_size_kernels_bitwise(model, lv):
    sizes = (1, 2, 3, 7, 50, 500)
    rows = log_kernels_lv(model, sizes, lv)
    assert rows.shape == (1 + len(sizes), lv.size)
    assert rows[0].tobytes() == log_psi_lv(model, lv).tobytes()
    for m, row in zip(sizes, rows[1:]):
        assert row.tobytes() == log_pi_n_lv(model, m, lv).tobytes(), m
    # psi's row does not depend on the sizes asked for, nor a size's row on the others.
    assert log_kernels_lv(model, (), lv).tobytes() == rows[0].tobytes()
    assert log_kernels_lv(model, sizes[::-1], lv)[1:].tobytes() == rows[:0:-1].tobytes()


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(min_value=0.05, max_value=0.95),
       sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=6),
       lv=st.floats(min_value=-800.0, max_value=800.0))
@example(alpha=0.5, sizes=[1, 2, 3], lv=0.3)
def test_one_point_kernel_rows_equal_a_column_bitwise(alpha, sizes, lv):
    # An lv of one point reads the kernel as an urn step does: the truncated stable in
    # scalars, the other families into a feature array of one column.  A column of two
    # reads it as a quadrature does.  Both give the same bits, also at each truncated
    # stable shape's switch between the series and the complement (x = s + 1) and its
    # neighbours, where v underflows, and where it overflows.  alpha is gamma's theta.
    sizes = tuple(sizes)
    switches = [math.log(s + 1.0) for s in (1.0 - alpha, *(m - alpha for m in sizes))]
    for family in (LevyModel.stable, LevyModel.gamma, LevyModel.generalized_gamma,
                   LevyModel.truncated_stable):
        model = family(alpha)
        for point in (lv, -745.0, 709.78, 800.0, *switches,
                      *(np.nextafter(t, d) for t in switches for d in (-np.inf, np.inf))):
            one = log_kernels_lv(model, sizes, [point])
            column = log_kernels_lv(model, sizes, [point, 0.5])
            assert one.shape == (1 + len(sizes), 1)
            assert one[:, 0].tobytes() == column[:, 0].tobytes(), (model, point)


def test_one_point_kernel_features_against_mpmath():
    # The one-point read's own values: log psi = log(e^-v + v^alpha gamma(1 - alpha, v)),
    # lv twice (as itself and as f), then log gamma(m - alpha, v) per size (log pi_m adds
    # an affine term in lv to it).
    sizes = (1, 2, 7, 50, 500, 1000)
    for alpha in (0.1, 0.5, 0.9):
        model = LevyModel.truncated_stable(alpha)
        for lv in np.concatenate([np.linspace(-800.0, 800.0, 21), np.linspace(-3.0, 7.5, 22)]):
            got = _kernel_features(model, sizes, np.array([lv]))[:, 0]
            assert got[1] == got[2] == lv
            with mpmath.workdps(40):
                v = mpmath.exp(lv)
                psi = mpmath.exp(-v) + v ** alpha * mpmath.gammainc(1 - alpha, 0, v)
            # log psi is near 0 for small v: 1e-13 relative on psi itself
            assert got[0] == pytest.approx(float(mpmath.log(psi)), rel=1e-13, abs=1e-13), lv
            want = [_mp_log_lower_gamma(m - alpha, lv) for m in sizes]
            np.testing.assert_allclose(got[3:], want, rtol=1e-13, atol=0,
                                       err_msg=f"alpha = {alpha}, lv = {lv}")


@pytest.mark.parametrize("lv", [np.array([0.3]), np.linspace(-5.0, 5.0, 7), _MESH_LV],
                         ids=["one-point", "column", "mesh"])
def test_a_warm_kernel_call_looks_its_shape_constants_up_once(lv):
    model, sizes = LevyModel.truncated_stable(0.35), (1, 2, 5)
    _kernel_features(model, sizes, lv)  # warm
    before = levy_models._shape_constants.cache_info()
    _kernel_features(model, sizes, lv)
    after = levy_models._shape_constants.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_parameter_validation():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            LevyModel.stable(bad)
        with pytest.raises(ValueError):
            LevyModel.generalized_gamma(bad)
        with pytest.raises(ValueError):
            LevyModel.truncated_stable(bad)
    with pytest.raises(ValueError):
        LevyModel.gamma(0.0)
    with pytest.raises(ValueError):
        ModelParamsR(LevyModel.gamma(1.0), 0.0)
    # A parameter the family does not read: the gamma EPPF has alpha = 0, but the urn
    # seats blocks with n_i - alpha from model.alpha, so it would sample another law.
    for kind in ModelKind:
        with pytest.raises(ValueError):
            LevyModel(kind, alpha=0.5, theta=1.0)


def test_log_pi_n_domain_errors():
    with pytest.raises(ValueError):
        log_pi_n_lv(LevyModel.stable(0.5), 0, 0.0)


def test_a_model_unpickled_from_another_process_hashes_as_a_fresh_one():
    # The hash is computed once, and a string (the kind's name) hashes differently in
    # every process, so a pickled model must not carry its hash along.
    code = ("import pickle, sys; from nbpk import LevyModel, ModelParamsR; "
            "sys.stdout.buffer.write(pickle.dumps(ModelParamsR(LevyModel.gamma(1.5), 2.0)))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        params = pickle.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                             capture_output=True, check=True).stdout)
        fresh = ModelParamsR(LevyModel(ModelKind.GAMMA, theta=1.5), 2.0)
        assert params == fresh and hash(params) == hash(fresh)
        assert hash(params.model) == hash(fresh.model)
        assert {fresh: "cached"}.get(params) == "cached"
