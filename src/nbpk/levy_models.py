"""Jump intensity families and their Laplace-exponent functionals.

Four intensities are supported.  For each model the package needs two
functionals of the intensity rho: ``psi(v) = 1 + int (1 - e^{-vx}) rho(x) dx``
and the tilted moments ``pi_n(v) = int x^n rho(x) e^{-vx} dx``, both evaluated
in closed form and only from log v, for a tuple of block sizes at once
(:func:`log_kernels_lv`; :func:`log_psi_lv` and :func:`log_pi_n_lv` read one row).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gammaincc, hyp1f1

__all__ = [
    "ModelKind",
    "LevyModel",
    "ModelParamsR",
    "log_kernels_lv",
    "log_psi_lv",
    "log_pi_n_lv",
]


class ModelKind(enum.Enum):
    STABLE = "stable"
    GAMMA = "gamma"
    GENERALIZED_GAMMA = "gengamma"
    TRUNCATED_STABLE = "truncstable"


@dataclass(frozen=True)
class LevyModel:
    """An intensity specification.

    alpha is the stability index in (0,1) (Stable, GeneralizedGamma,
    TruncatedStable); theta > 0 is the mass parameter of the Gamma model, and
    only that family's: the urn reads alpha wherever it is set.
    """

    kind: ModelKind
    alpha: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.kind is ModelKind.GAMMA:
            if self.theta is None or not (0.0 < self.theta < math.inf):
                raise ValueError(f"theta must be positive and finite, got {self.theta}")
            if self.alpha is not None:
                raise ValueError(f"the gamma family takes no alpha, got {self.alpha}")
        else:
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValueError(f"alpha must lie strictly in (0,1), got {self.alpha}")
            if self.theta is not None:
                raise ValueError(f"the {self.kind.value} family takes no theta, got {self.theta}")
        object.__setattr__(self, "_hash", hash((self.kind, self.alpha, self.theta)))

    def __hash__(self):  # hashed once: every lru_cache lookup hashes the model
        return self._hash

    def __reduce__(self):  # unpickle through __init__: a string's hash differs per process
        return LevyModel, (self.kind, self.alpha, self.theta)

    @staticmethod
    def stable(alpha: float) -> "LevyModel":
        return LevyModel(ModelKind.STABLE, alpha=alpha)

    @staticmethod
    def gamma(theta: float) -> "LevyModel":
        return LevyModel(ModelKind.GAMMA, theta=theta)

    @staticmethod
    def generalized_gamma(alpha: float) -> "LevyModel":
        return LevyModel(ModelKind.GENERALIZED_GAMMA, alpha=alpha)

    @staticmethod
    def truncated_stable(alpha: float) -> "LevyModel":
        return LevyModel(ModelKind.TRUNCATED_STABLE, alpha=alpha)

    def describe(self) -> str:
        if self.kind is ModelKind.GAMMA:
            return f"gamma(theta={self.theta})"
        return f"{self.kind.value}(alpha={self.alpha})"


@dataclass(frozen=True)
class ModelParamsR:
    """A model together with the shape parameter r > 0 of the point process."""

    model: LevyModel
    r: float

    def __post_init__(self):
        if not (0.0 < self.r < math.inf):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        object.__setattr__(self, "_hash", hash((self.model, self.r)))

    def __hash__(self):  # as LevyModel's
        return self._hash

    def __reduce__(self):  # as LevyModel's
        return ModelParamsR, (self.model, self.r)


# ---------------------------------------------------------------------------
# Incomplete gamma kernel
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _shape_constants(shapes) -> tuple:
    """Shared read-only arrays s, log s and log Gamma(s) for a tuple of shapes."""
    out = tuple(np.array([f(c) for c in shapes]) for f in (float, math.log, math.lgamma))
    for array in out:
        array.flags.writeable = False
    return out


def _log_lower_gammas(constants, lv):
    """log gamma(s, e^lv) from ``_shape_constants``: a row per shape, a column per point of 1-d lv.

    v = e^lv may underflow or overflow.  Below x = s + 1 it uses
    gamma(s, x) = x^s e^{-x} M(1, s + 1, x) / s with Kummer's function M;
    above, Gamma(s) (1 - Q(s, x)) with the regularised upper function Q, where
    x = inf gives Gamma(s).  log s and log Gamma(s) come from ``math`` per shape, cached
    per tuple of shapes, so each row has the bits of a one-shape call.
    """
    s, log_s, lgamma_s = constants
    with np.errstate(over="ignore"):
        x = np.exp(lv)
    series = x < s[:, None] + 1.0  # one row per shape, one column per point
    (si, sj), (ti, tj) = series.nonzero(), (~series).nonzero()  # in the masks' order
    out = np.empty(series.shape)
    ss, xs = s[si], x[sj]
    out[series] = ss * lv[sj] - xs - log_s[si] + np.log(hyp1f1(1.0, ss + 1.0, xs))
    out[~series] = lgamma_s[ti] + np.log1p(-gammaincc(s[ti], x[tj]))
    return out


# ---------------------------------------------------------------------------
# psi and pi_n
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _pi_coefficients(model: LevyModel, sizes) -> dict:
    """{m: (c_m, b_m)} for the sizes m: log pi_m = c_m + b_m f(lv), plus log gamma(m - alpha, v)
    for the truncated stable.  b_m = alpha - m (alpha = 0 for gamma).  Shared: read only."""
    a, th, kind = model.alpha, model.theta, model.kind
    if kind is ModelKind.GAMMA:
        return {m: (math.log(th) + math.lgamma(m), -m) for m in sizes}
    if kind is ModelKind.TRUNCATED_STABLE:
        return {m: (math.log(a), a - m) for m in sizes}
    return {m: (math.log(a) + math.lgamma(m - a) - math.lgamma(1.0 - a), a - m) for m in sizes}


def _kernel_features(model: LevyModel, sizes, lv) -> np.ndarray:
    """[log psi, lv, f] at v = exp(lv), f = lv (stable, truncstable) or softplus(lv), then for the
    truncated stable only log gamma(m - alpha, v) per m in sizes, psi's shape in the same pass:
    the g_r builder's features, in one array filled row by row (stacking rows cost an urn step)."""
    lv = np.asarray(lv, float)
    a, th, kind = model.alpha, model.theta, model.kind
    f = lv if kind in (ModelKind.STABLE, ModelKind.TRUNCATED_STABLE) else np.logaddexp(0.0, lv)
    if kind is not ModelKind.TRUNCATED_STABLE:
        out = np.empty((3,) + lv.shape)
        out[0] = (np.logaddexp(0.0, a * lv) if kind is ModelKind.STABLE
                  else np.log1p(th * f) if kind is ModelKind.GAMMA else a * f)
        out[1], out[2] = lv, f
        return out
    # psi by integration by parts of its defining integral over (0, 1]
    constants = _shape_constants((1.0 - a, *(m - a for m in sizes)))
    with np.errstate(over="ignore"):  # v = e^lv may overflow to inf
        if lv.size != 1:
            g = _log_lower_gammas(constants, lv.ravel()).reshape((-1,) + lv.shape)
            psi = np.logaddexp(-np.exp(lv), a * lv + g[0])
            return np.concatenate([psi[None], lv[None], f[None], g[1:]])
        lv1 = lv.item()  # one point, as an urn step reads it: numpy scalars, the column's bits
        x = np.exp(lv1)
    g = [s * lv1 - x - log_s + np.log(hyp1f1(1.0, s + 1.0, x)) if x < s + 1.0
         else lgamma_s + np.log1p(-gammaincc(s, x)) for s, log_s, lgamma_s in zip(*constants)]
    return np.array([np.logaddexp(-x, a * lv1 + g[0]), lv1, lv1, *g[1:]]).reshape((-1,) + lv.shape)


def log_kernels_lv(model: LevyModel, sizes, lv) -> np.ndarray:
    """Rows [log psi, log pi_m for each m >= 1 in sizes] at v = exp(lv), shape (1 + S,) + lv.shape.

    Both functionals from log v (Gamma-family integrands carry mass where v overflows a
    float), from the two parts the g_r builder reads; each row has a one-size call's bits.
    """
    if any(m < 1 for m in sizes):
        raise ValueError(f"block sizes must be >= 1, got {sizes}")
    features = _kernel_features(model, sizes, lv)  # rows: log psi, lv, f, log gamma ...
    pi = _pi_coefficients(model, tuple(sizes))
    coef = np.reshape([pi[m] for m in sizes], (len(sizes), 2) + (1,) * (features.ndim - 1))
    out = np.concatenate([features[:1], coef[:, 0] + coef[:, 1] * features[2]])
    if model.kind is ModelKind.TRUNCATED_STABLE:
        with np.errstate(invalid="ignore"):  # inf - inf at v = 0, replaced by its limit
            out[1:] += features[3:]
        # v^(alpha - m) gamma(m - alpha, v) -> 1/(m - alpha) as v -> 0
        at_zero = coef[:, 0] - np.log(np.subtract(sizes, model.alpha)).reshape(coef[:, 0].shape)
        out[1:] = np.where(features[2] == -np.inf, at_zero, out[1:])
    return out


def log_psi_lv(model: LevyModel, lv):
    """log psi(v) at v = exp(lv), scalar or array: row 0 of ``log_kernels_lv``."""
    out = log_kernels_lv(model, (), np.atleast_1d(np.asarray(lv, float)))[0]
    return float(out[0]) if np.ndim(lv) == 0 else out


def log_pi_n_lv(model: LevyModel, n: int, lv):
    """log pi_n(v) at v = exp(lv) for n >= 1, scalar or array: row 1 of ``log_kernels_lv``."""
    out = log_kernels_lv(model, (n,), np.atleast_1d(np.asarray(lv, float)))[1]
    return float(out[0]) if np.ndim(lv) == 0 else out
