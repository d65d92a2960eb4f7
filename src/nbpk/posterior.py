"""Auxiliary-variable density, EPPF, predictive weights and identity checks.

Every integral here is an EPPF.  ``_log_g_r_rows`` assembles log g_r(v, c) for
a stack of configurations c from log v alone, as one coefficient matrix times
the kernel features (log psi, log v, f), and the shift-invariant quadrature in
:mod:`nbpk.numerics` integrates the stack on one panel set, unless every class
(n, k) of a Gibbs-type stack converges on its first-round mesh: such a class is
integrated once for its log V_{n,k}, which serves each member's EPPF in Python floats
(``_log_eppfs``).  The prediction weights are EPPFs of the configurations enlarged by
one observation, and the backward terms (n_i/n) p(n) need only p(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
from scipy.special import gammainc, gammaincinv

from .levy_models import ModelKind, ModelParamsR, _kernel_features, _pi_coefficients
from .numerics import _MESH_LV, _log_integrate_mesh, log_integrate_halfline_logv
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


def _log_g_r_rows(params: ModelParamsR, configs):
    """log g_r(v, c) for every configuration c, stacked: lv of shape (N,) -> (len(configs), N).

    This is the one place g_r is assembled.  Row c is const_c - (r + k_c) log psi +
    (n_c - 1) lv + sum_i log pi_{n_i}, const_c = log Gamma(r + k_c) - log Gamma(r) -
    log Gamma(n_c), where log pi_m = c_m + b_m f(lv) (plus a log gamma(m - alpha, v) column
    per size m for the truncated stable).  So all rows are one product of a coefficient
    matrix, built here once, with the features [log psi, lv, f, ...], one matrix per
    Gibbs-type model.  Working from
    lv = log v keeps the Gamma-family tail (where v overflows a float but log v does not)
    evaluable.  A configuration may be a tuple.
    """
    model, r = params.model, params.r
    stack = [c.counts if isinstance(c, Configuration) else c for c in configs]
    all_sizes = tuple(sorted(set().union(*stack)))
    pi = _pi_coefficients(model, all_sizes)
    sizes = all_sizes if model.kind is ModelKind.TRUNCATED_STABLE else ()
    lgamma_r, rows = math.lgamma(r), []
    for c in stack:  # as lists: item assignment into numpy arrays costs more than the pass
        k, n = len(c), sum(c)
        const_c, b = math.lgamma(r + k) - lgamma_r - math.lgamma(n), 0.0
        for m in c:  # log pi_m's affine part, as plain float sums
            c_m, b_m = pi[m]
            const_c += c_m
            b += b_m
        rows.append([const_c, -(r + k), n - 1, b, *map(c.count, sizes)])  # then counts per size
    rows = np.array(rows)
    const, coef = rows[:, :1], rows[:, 1:]

    def log_g(lv):
        if lv is _MESH_LV:
            return const + coef @ _mesh_features(model, sizes)
        return const + coef @ _kernel_features(model, sizes, lv)

    return log_g


@lru_cache(maxsize=256)
def _mesh_features(model, sizes) -> np.ndarray:
    """``_kernel_features`` on the mesh, computed once per (model, block sizes)."""
    features = _kernel_features(model, sizes, _MESH_LV)
    features.flags.writeable = False  # every caller shares it
    return features


def _log_g_r_row(params: ModelParamsR, config):
    """lv -> log g_r(v, n) at a 1-d lv = log v: one row of ``_log_g_r_rows``, built here once,
    so a quadrature that calls it every refinement round does not rebuild it."""
    rows = _log_g_r_rows(params, [config])
    return lambda lv: rows(lv)[0]


def _enlarged(counts):
    """n + a new block, then n + e_s for each distinct size s in increasing order, as
    tuples of block sizes: an EPPF depends on the sizes only, not their order."""
    return [counts + (1,)] + [counts[:i] + (counts[i] + 1,) + counts[i + 1:]
                              for i in map(counts.index, sorted(set(counts)))]


def _gibbs(params: ModelParamsR) -> bool:
    """Whether the model's EPPF is of Gibbs type, so its configuration classes are (n, k)."""
    return params.model.kind is not ModelKind.TRUNCATED_STABLE


def _representative(params: ModelParamsR, key):
    """The sorted counts standing for class key: (n - k + 1, 1, ..., 1) if Gibbs type, else key."""
    return (key[0] - key[1] + 1,) + (1,) * (key[1] - 1) if _gibbs(params) else key


@lru_cache(maxsize=4096)
def _log_v(params: ModelParamsR, key):
    """log p(rep) - sum_i log Gamma(rep_i - alpha), rep the Gibbs-type class key = (n, k)'s
    representative and alpha = 0 for gamma: log V_{n,k} up to a factor Gamma(1 - alpha)^k, so
    log p(c) = this + sum_i log Gamma(c_i - alpha) in the class; None if rep's mesh pass refines."""
    rep = _representative(params, key)
    log_p = _log_integrate_mesh(_log_g_r_rows(params, [rep]))
    a = params.model.alpha or 0.0
    return None if log_p is None else float(log_p[0]) - sum(math.lgamma(m - a) for m in rep)


def _log_eppfs(params: ModelParamsR, configs) -> list:
    """log p(c) in Python floats for every tuple of block sizes c, the one entry of every EPPF
    here: ``_log_v`` + sum_i log Gamma(c_i - alpha) when every Gibbs-type class (n, k) of the
    stack converges on the mesh, else one shared-panel pass (its panels depend on the stack)."""
    if _gibbs(params):
        a = params.model.alpha or 0.0
        logs = [_log_v(params, (sum(c), len(c))) for c in configs]
        if None not in logs:
            return [v + sum([math.lgamma(m - a) for m in c]) for v, c in zip(logs, configs)]
    return log_integrate_halfline_logv(_log_g_r_rows(params, configs)).tolist()


def log_eppf(params: ModelParamsR, config: Configuration) -> float:
    """log p(n): the auxiliary density integrated over the half line."""
    return _log_eppfs(params, [config.counts])[0]


def log_v_moment(params: ModelParamsR, config: Configuration, power: float) -> float:
    """log int v^power g_r(v, n) dv; subtract log_eppf for the posterior moment.

    Raises ValueError for a power at which the integral diverges, from the tails of g_r:
    v^(-1 - alpha r) as v -> inf (gamma: v^-1 (log v)^-(r + k), r + k > 1), and as v -> 0
    v^(k alpha - 1) for stable, v^(n - 1) for the others.
    """
    model, gamma = params.model, params.model.kind is ModelKind.GAMMA
    lo = -config.k * model.alpha if model.kind is ModelKind.STABLE else -config.n
    hi = 0.0 if gamma else model.alpha * params.r
    if not (lo < power < hi or gamma and power == hi):
        raise ValueError(f"the V moment of power {power} diverges for {model.describe()}, "
                         f"r = {params.r}, n = {config.counts}: it needs {lo} < power "
                         f"{'<=' if gamma else '<'} {hi}")
    log_g = _log_g_r_row(params, config)
    return log_integrate_halfline_logv(lambda lv: power * lv + log_g(lv))


def predictive_weights(params: ModelParamsR, config: Configuration) -> PredictiveWeights:
    """Raw prediction weights (omega_0, omega_1..omega_k) and the log EPPF.

    The weights are EPPFs of enlarged configurations: omega_0 = p(n + new
    block) and omega_i = n p(n + e_i), because pointwise in v
    v (r+k) pi_1/psi g_r(v, n) = n g_r(v, n + new) and
    v pi_{n_i+1}/pi_{n_i} g_r(v, n) = n g_r(v, n + e_i).  p(n), the new-block
    EPPF and one enlarged EPPF per distinct block size are one ``_log_eppfs``
    stack; the prediction-sum identity (``check_prediction_sum``) checks them.
    """
    counts = config.counts
    logs = _log_eppfs(params, [counts, *_enlarged(counts)])
    log_omega = {s: math.log(config.n) + lw for s, lw in zip(sorted(set(counts)), logs[2:])}
    return PredictiveWeights(logs[1], tuple(map(log_omega.get, counts)), logs[0])


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
    classes = enumerate_afs(n)
    log_coef = np.array([log_partition_coefficient(m) for m in classes])
    log_p = _log_eppfs(params, [m.to_configuration().counts for m in classes])
    return abs(float(np.exp(log_coef + log_p).sum()) - 1.0)


def sample_jump_given_v(params: ModelParamsR, n_i: int, v: float, rng) -> float:
    """One draw of a tied jump size given the auxiliary variable.

    The target density is s^{n_i} e^{-vs} rho(s) / pi_{n_i}(v), a gamma law,
    truncated to (0, 1] for the truncated stable model.
    """
    if not 0.0 < v < math.inf:
        raise ValueError(f"v must be positive and finite, got {v}")
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
