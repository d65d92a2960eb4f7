"""Jump intensity families and their Laplace-exponent functionals.

Four intensities are supported.  For each model the package needs two
functionals of the intensity rho: ``psi(v) = 1 + int (1 - e^{-vx}) rho(x) dx``
and the tilted moments ``pi_n(v) = int x^n rho(x) e^{-vx} dx``, both evaluated
in closed form and only from log v (:func:`log_psi_lv`, :func:`log_pi_n_lv`).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaincc, hyp1f1

__all__ = [
    "ModelKind",
    "LevyModel",
    "ModelParamsR",
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
    TruncatedStable); theta > 0 is the mass parameter of the Gamma model.
    """

    kind: ModelKind
    alpha: Optional[float] = None
    theta: Optional[float] = None

    def __post_init__(self):
        if self.kind in (ModelKind.STABLE, ModelKind.GENERALIZED_GAMMA,
                         ModelKind.TRUNCATED_STABLE):
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValueError(f"alpha must lie strictly in (0,1), got {self.alpha}")
        elif self.kind is ModelKind.GAMMA:
            if self.theta is None or not (0.0 < self.theta < math.inf):
                raise ValueError(f"theta must be positive and finite, got {self.theta}")

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


# ---------------------------------------------------------------------------
# Incomplete gamma kernel
# ---------------------------------------------------------------------------

def _log_lower_gamma_lv(s: float, lv):
    """log gamma(s, e^lv), vectorised over lv; v = e^lv may underflow or overflow.

    Below x = s + 1 it uses gamma(s, x) = x^s e^{-x} M(1, s + 1, x) / s with
    Kummer's function M; above, Gamma(s) (1 - Q(s, x)) with the regularised
    upper function Q, where x = inf gives Gamma(s).
    """
    lv = np.asarray(lv, float)
    with np.errstate(over="ignore"):
        x = np.exp(lv)
    out = np.empty(lv.shape)
    series = x < s + 1.0
    xs = x[series]
    out[series] = s * lv[series] - xs - math.log(s) + np.log(hyp1f1(1.0, s + 1.0, xs))
    out[~series] = math.lgamma(s) + np.log1p(-gammaincc(s, x[~series]))
    return out


# ---------------------------------------------------------------------------
# psi and pi_n
# ---------------------------------------------------------------------------

def log_psi_lv(model: LevyModel, lv):
    """log psi(v) at v = exp(lv), stable for lv far beyond float overflow of v.

    psi(0) = 1 and psi increases with v.

    Posterior integrands of the Gamma family carry mass at astronomically
    large v (the tail decays only like a power of log v), so the auxiliary
    integrals must be evaluated from log v directly.
    """
    scalar = np.ndim(lv) == 0
    lv = np.atleast_1d(np.asarray(lv, float))
    a, th = model.alpha, model.theta
    if model.kind is ModelKind.STABLE:
        out = np.logaddexp(0.0, a * lv)
    elif model.kind is ModelKind.GAMMA:
        out = np.log1p(th * np.logaddexp(0.0, lv))
    elif model.kind is ModelKind.GENERALIZED_GAMMA:
        out = a * np.logaddexp(0.0, lv)
    else:  # truncated stable: integration by parts of the defining integral over (0, 1]
        with np.errstate(over="ignore"):
            out = np.logaddexp(-np.exp(lv), a * lv + _log_lower_gamma_lv(1.0 - a, lv))
    return float(out[0]) if scalar else out


def log_pi_n_lv(model: LevyModel, n: int, lv):
    """log pi_n(v) = log int x^n rho(x) e^{-vx} dx at v = exp(lv), for n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scalar = np.ndim(lv) == 0
    lv = np.atleast_1d(np.asarray(lv, float))
    a, th = model.alpha, model.theta
    if model.kind is ModelKind.STABLE:
        out = math.log(a) + math.lgamma(n - a) - math.lgamma(1.0 - a) + (a - n) * lv
    elif model.kind is ModelKind.GAMMA:
        out = math.log(th) + math.lgamma(n) - n * np.logaddexp(0.0, lv)
    elif model.kind is ModelKind.GENERALIZED_GAMMA:
        out = (math.log(a) + math.lgamma(n - a) - math.lgamma(1.0 - a)
               + (a - n) * np.logaddexp(0.0, lv))
    else:  # truncated stable
        out = math.log(a) + (a - n) * lv + _log_lower_gamma_lv(n - a, lv)
    return float(out[0]) if scalar else out
