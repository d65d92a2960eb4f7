"""Auxiliary-variable density, EPPF, predictive weights and identity checks.

Everything is assembled in log space from log v: products of tilted moments
over blocks are sums of ``log_pi_n_lv`` values, and all half-line integrals go
through the shift-invariant quadrature in :mod:`nbpk.numerics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import gammainc, gammaincinv

from .levy_models import ModelKind, ModelParamsR, log_pi_n_lv, log_psi_lv
from .numerics import log_integrate_halfline_logv
from .partitions import Configuration, enumerate_afs, log_partition_coefficient

__all__ = [
    "PredictiveWeights",
    "log_eppf",
    "log_v_moment",
    "predictive_weights",
    "normalized_predictive",
    "check_prediction_sum",
    "check_partition_normalization",
    "sample_jump_given_v",
]

@dataclass(frozen=True)
class PredictiveWeights:
    """Logs of the raw prediction weights (new cluster, per block) and of their normalizer.

    The raw weights satisfy omega0 + (1/n) sum_i omega_i = exp(log_eppf);
    they are *not* probabilities until divided by the EPPF value.  They are
    kept as logs because the EPPF underflows a float once n reaches a few
    hundred.
    """

    log_omega0: float
    log_omega: Tuple[float, ...]
    log_eppf: float

    def _log_terms(self, config: Configuration) -> np.ndarray:
        """log omega0 and log(omega_i / n): the terms of the prediction sum."""
        log_n = math.log(config.n)
        return np.array([self.log_omega0] + [lw - log_n for lw in self.log_omega])

    def normalized(self, config: Configuration) -> np.ndarray:
        """Probability vector (new cluster, block 1, ..., block k); raises if off 1 by > 1e-6."""
        logs = self._log_terms(config)
        log_total = np.logaddexp.reduce(logs)
        total = math.exp(log_total - self.log_eppf)
        if not abs(total - 1.0) <= 1e-6:
            raise RuntimeError(f"predictive weights sum to {total}, expected 1")
        return np.exp(logs - log_total)


def _assemble_log_g_r(params: ModelParamsR, config: Configuration, lv, log_psi, log_pi):
    """log g_r(v, n) from log psi(v) and log pi_{n_i}(v) keyed by block size."""
    r, n, k = params.r, config.n, config.k
    out = math.lgamma(r + k) - math.lgamma(r) - (r + k) * log_psi + (n - 1) * lv - math.lgamma(n)
    for ni in config.counts:
        out = out + log_pi[ni]
    return out


def _log_g_r_lv(params: ModelParamsR, config: Configuration, lv):
    """log g_r(v, n) as a function of lv = log v.

    Working from log v keeps the Gamma-family tail (where v overflows a float
    but log v does not) evaluable; every integral below runs in this domain.
    """
    lv = np.asarray(lv, float)
    log_pi = {ni: log_pi_n_lv(params.model, ni, lv) for ni in set(config.counts)}
    out = _assemble_log_g_r(params, config, lv, log_psi_lv(params.model, lv), log_pi)
    return float(out) if np.ndim(lv) == 0 else out


def log_eppf(params: ModelParamsR, config: Configuration) -> float:
    """log p(n): the auxiliary density integrated over the half line."""
    return log_integrate_halfline_logv(lambda lv: _log_g_r_lv(params, config, lv))


def log_v_moment(params: ModelParamsR, config: Configuration, power: float) -> float:
    """log int v^power g_r(v, n) dv; subtract log_eppf for the posterior moment."""
    return log_integrate_halfline_logv(
        lambda lv: power * lv + _log_g_r_lv(params, config, lv))


def predictive_weights(params: ModelParamsR, config: Configuration) -> PredictiveWeights:
    """Raw prediction weights (omega_0, omega_1..omega_k) and the log EPPF.

    All are moments of g_r(v, n) from one quadrature pass on shared panels:
    g_r (the EPPF), omega_0 = (r+k)/n int v pi_1/psi g_r dv and, once per
    distinct block size, omega_i = int v pi_{n_i+1}/pi_{n_i} g_r dv.  They are
    checked by the prediction-sum identity (``check_prediction_sum``,
    ``PredictiveWeights.normalized``).  The tilted form r/n int v pi_1 g_{r+1} dv
    of omega_0 is no second check: g_{r+1} = g_r (r+k) / (r psi) pointwise.
    """
    model = params.model
    sizes = sorted(set(config.counts))
    needed = {1, *sizes, *(s + 1 for s in sizes)}

    def log_f(lv):
        log_psi = log_psi_lv(model, lv)
        log_pi = {m: log_pi_n_lv(model, m, lv) for m in needed}
        log_g = _assemble_log_g_r(params, config, lv, log_psi, log_pi)
        rows = [log_g, lv + log_pi[1] - log_psi + log_g]
        rows += [lv + log_pi[s + 1] - log_pi[s] + log_g for s in sizes]
        return np.array(rows)

    logs = log_integrate_halfline_logv(log_f)
    log_omega = dict(zip(sizes, logs[2:].tolist()))
    log_omega0 = math.log(params.r + config.k) - math.log(config.n) + float(logs[1])
    return PredictiveWeights(log_omega0, tuple(log_omega[ni] for ni in config.counts),
                             float(logs[0]))


def normalized_predictive(params: ModelParamsR, config: Configuration) -> np.ndarray:
    """Probability vector (new cluster, block 1, ..., block k); sums to 1."""
    return predictive_weights(params, config).normalized(config)


def check_prediction_sum(params: ModelParamsR, config: Configuration) -> float:
    """Relative residual of omega_0 + (1/n) sum_i omega_i = int g_r dv."""
    w = predictive_weights(params, config)
    return abs(math.expm1(np.logaddexp.reduce(w._log_terms(config)) - w.log_eppf))


def check_partition_normalization(params: ModelParamsR, n: int) -> float:
    """|sum over all multiplicity classes of coefficient * EPPF - 1| at sample size n."""
    if n > 12:
        raise ValueError("full-normalization check is intended for small n (<= 12)")
    total = 0.0
    for m in enumerate_afs(n):
        config = m.to_configuration()
        total += math.exp(log_partition_coefficient(m) + log_eppf(params, config))
    return abs(total - 1.0)


def sample_jump_given_v(params: ModelParamsR, n_i: int, v: float, rng) -> float:
    """One draw of a tied jump size given the auxiliary variable.

    The target density is s^{n_i} e^{-vs} rho(s) / pi_{n_i}(v), a gamma law,
    truncated to (0, 1] for the truncated stable model.
    """
    if v <= 0.0:
        raise ValueError("v must be positive")
    if n_i < 1:
        raise ValueError("n_i must be >= 1")
    model = params.model
    a = model.alpha
    if model.kind is ModelKind.GAMMA:
        return rng.gamma(n_i, 1.0 / (1.0 + v))
    if model.kind is ModelKind.GENERALIZED_GAMMA:
        return rng.gamma(n_i - a, 1.0 / (1.0 + v))
    if model.kind is ModelKind.STABLE:
        return rng.gamma(n_i - a, 1.0 / v)
    # Truncated stable: invert the gamma(n_i - alpha, rate v) CDF restricted to (0, 1].
    mass = gammainc(n_i - a, v)
    if mass == 0.0:
        raise ValueError(f"the truncated jump law underflows at v={v}, n_i={n_i}")
    s = gammaincinv(n_i - a, (1.0 - rng.random()) * mass) / v
    return min(s, 1.0)
