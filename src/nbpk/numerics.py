"""Log-space adaptive quadrature on (0, infinity) and inverse-CDF sampling on its panels.

Every integral in this package is of the form ``log I = log int_0^infty exp(log_f(v)) dv``
where ``exp(log_f)`` would overflow or underflow in linear space.  The integrand
is supplied as a numpy-vectorised function of log v.  The integrator keeps a
running maximum of the log integrand, works on shifted values, and restores
the shift at the end, so adding a constant to ``log_f`` shifts the result exactly.
The engine bisects panels with the nested Gauss-Kronrod rule: one evaluation
at a panel's 15 Kronrod nodes gives its mass and, through the embedded 7-point
Gauss rule, its error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "log_integrate_halfline_logv",
    "LogDensityGridSampler",
]


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9
    max_subdivisions: int = 20000

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError(f"rel_tol must be in (0, 1e-2], got {self.rel_tol}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


# The tolerances every integral and every V sampler reads, and that
# ``nbpk --show-config`` prints.
_DEFAULT_SPEC = QuadratureSpec()


class QuadratureError(RuntimeError):
    """Raised when the adaptive integrator cannot reach the requested tolerance.

    Carries the best available estimate (log scale) and the relative error bound.
    """

    def __init__(self, message, best_estimate=None, error_bound=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


# The 15-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk15): nonnegative nodes
# from the right end, their Kronrod weights, and the weights of the 7-point
# Gauss rule embedded at every second node.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# Mirrored about x = 0 into all 15 nodes in ascending order.
_K15_NODES = np.concatenate([-np.array(_XGK), _XGK[-2::-1]])
_K15_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
_G7_HALF = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3])
_G7_WEIGHTS = np.concatenate([_G7_HALF, _G7_HALF[-2::-1]])
# Columns: the K15 mass and the signed K15 - G7 difference, from one product.
_RULE_COLUMNS = np.column_stack([_K15_WEIGHTS, _K15_WEIGHTS - _G7_WEIGHTS])
# The rule and the number of equal panels refinement starts from, as
# ``nbpk --show-config`` prints them.
_RULE_NAME = "gauss-kronrod G7/K15"
_INITIAL_PANELS = 16


def _panel_log_values(log_g, a, b):
    """log_g at the K15 nodes of panels [a_i, b_i]; shape rows + (panels, 15)."""
    t = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _K15_NODES
    vals = log_g(t.ravel())
    if np.isnan(vals).any():
        raise QuadratureError("log integrand returned NaN")
    return vals.reshape(vals.shape[:-1] + t.shape)


class _Panels(NamedTuple):
    """Converged panels in refinement order; rows is () for a 1-d integrand, else (m,)."""
    a: np.ndarray       # left edges
    b: np.ndarray       # right edges
    l15: np.ndarray     # log integrand at each panel's K15 nodes, shape rows + (panels, 15)
    shift: np.ndarray   # log scale of each row's masses, shape rows; -inf for a row that is zero
    mass: np.ndarray    # K15 estimate of each panel's integral / e^shift, shape rows + (panels,)


def _log_integrate_unit(log_g, rel_tol, max_subdivisions) -> _Panels:
    """Adaptive Gauss-Kronrod bisection of (0, 1) until every row's K15 total converges.

    This is the package's one adaptive engine: the integrator sums the returned
    panel masses and the grid sampler builds its CDF from the same panels.  All
    rows share the panels; each row has its own shift and its own test
    err_j <= rel_tol * total_j, with |K15 - G7| as each panel's error.
    """
    edges = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)
    a, b = edges[:-1], edges[1:]
    l15 = _panel_log_values(log_g, a, b)
    splits = 0

    while True:
        m = l15.max(axis=(-2, -1), initial=-np.inf)
        # A row that is -inf everywhere is identically zero: zero masses, shift -inf.
        dead = ~np.isfinite(m)
        live_m = np.where(dead, 0.0, m)[..., None, None]
        sums = (0.5 * (b - a))[:, None] * (np.exp(l15 - live_m) @ _RULE_COLUMNS)
        mass = sums[..., 0]
        err = np.abs(sums[..., 1])
        total = mass.sum(axis=-1)
        total_err = err.sum(axis=-1)
        done = dead | ((total > 0.0) & (total_err <= rel_tol * total))
        if done.all():
            return _Panels(a, b, l15, m, mass)

        # Split every panel whose error exceeds an unconverged row's fair share
        # of that row's budget; always split at least the worst one.
        thresh = np.where(total > 0.0, rel_tol * total / len(a), np.inf)
        open_err = np.where(done[..., None], -np.inf, err).reshape(-1, len(a))
        to_split = np.flatnonzero((open_err > thresh.reshape(-1, 1)).any(axis=0))
        if to_split.size == 0:
            to_split = np.array([int(np.argmax(open_err.max(axis=0)))])
        if splits + to_split.size > max_subdivisions:
            # Report the unconverged row with the largest relative error.
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(total > 0.0, total_err / total, np.inf)
            j = np.unravel_index(np.argmax(np.where(done, -np.inf, rel)), rel.shape)
            raise QuadratureError(
                "adaptive quadrature did not converge within "
                f"{max_subdivisions} subdivisions",
                best_estimate=m[j] + math.log(total[j]) if total[j] > 0 else -np.inf,
                error_bound=float(rel[j]),
            )
        splits += to_split.size

        keep = np.ones(len(a), dtype=bool)
        keep[to_split] = False
        mid = 0.5 * (a[to_split] + b[to_split])
        new_a = np.concatenate([a[to_split], mid])
        new_b = np.concatenate([mid, b[to_split]])
        a = np.concatenate([a[keep], new_a])
        b = np.concatenate([b[keep], new_b])
        l15 = np.concatenate([l15[..., keep, :], _panel_log_values(log_g, new_a, new_b)],
                             axis=-2)


def _log_expm1(w):
    """log(e^w - 1), elementwise, stable for both tiny and huge w."""
    w = np.asarray(w, float)
    out = np.empty_like(w)
    small = w < 0.7
    out[small] = np.log(np.expm1(w[small]))
    out[~small] = w[~small] + np.log1p(-np.exp(-w[~small]))
    return out


def _compound_log_g(log_f_lv):
    """Pull a log integrand of log v back to t in (0, 1) by v = exp(w) - 1, w = t/(1-t).

    ``log_f_lv`` maps N values of log v to shape (N,), or (m, N) for m stacked
    integrands.  Nodes that round onto t = 0 or t = 1 map to v = 0 or v = inf;
    an integrable integrand vanishes there, so they score -inf.
    """
    def log_g(t):
        ok = (t > 0.0) & (t < 1.0)
        w = t[ok] / (1.0 - t[ok])
        lv = _log_expm1(w)
        with np.errstate(all="ignore"):
            vals = log_f_lv(lv)
            if np.ndim(vals) not in (1, 2) or np.shape(vals)[-1] != lv.size:
                raise ValueError(f"log integrand returned shape {np.shape(vals)} "
                                 f"for {lv.shape} points of log v")
            out = np.full(np.shape(vals)[:-1] + t.shape, -np.inf)
            # dv = e^w dw contributes the +w term.
            out[..., ok] = vals + w - 2.0 * np.log1p(-t[ok])
        return out

    return log_g


def log_integrate_halfline_logv(log_f_lv: Callable, spec: QuadratureSpec = _DEFAULT_SPEC):
    """log int_0^infty exp(log_f(v)) dv with the integrand given as a function of log v.

    Uses the compound map v = exp(w) - 1, w = t/(1-t).  Integrands whose tail
    decays only like a power of log v (the Gamma intensity family) keep a
    non-negligible share of their mass at v far beyond float range; in the w
    coordinate that tail is algebraic and the panel refinement resolves it.

    A 1-d integrand gives a float; one returning (m, N) gives m logs from one
    shared panel set, each to its own relative tolerance.
    """
    panels = _log_integrate_unit(_compound_log_g(log_f_lv), spec.rel_tol, spec.max_subdivisions)
    with np.errstate(divide="ignore"):
        logs = panels.shift + np.log(panels.mass.sum(axis=-1))
    return float(logs) if logs.ndim == 0 else logs


def _cell_log_masses(t, logg):
    """Log mass of each piecewise-exponential cell defined by nodes t, values logg.

    Within a cell the log density is linear between the endpoint values; the
    cell integral then has the closed form h * (e^{l1} - e^{l0}) / (l1 - l0).
    Cells with a -inf endpoint are handled by clamping the slope.
    """
    h = np.diff(t)
    l0 = logg[:-1].copy()
    l1 = logg[1:].copy()
    top = np.maximum(l0, l1)
    both_dead = ~np.isfinite(top)
    # Clamp -inf endpoints 45 nats below the live endpoint: the resulting mass
    # error is below e^-45 relative and keeps the exponential inversion finite.
    l0 = np.maximum(l0, top - 45.0)
    l1 = np.maximum(l1, top - 45.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        d = l1 - l0
        # mass = h * e^top * (1 - e^{-|d|}) / |d|, with the d -> 0 limit h*e^top.
        ad = np.abs(d)
        ratio = np.where(ad < 1e-12, 1.0 - 0.5 * ad, -np.expm1(-ad) / np.where(ad == 0, 1.0, ad))
        logm = top + np.log(h) + np.log(ratio)
    logm[both_dead] = -np.inf
    return logm, l0, l1


class LogDensityGridSampler:
    """Inverse-CDF sampler for an unnormalized log density on (0, infinity).

    The log density is supplied as a function of log v.  The half line is
    mapped to (0, 1) by the compound coordinate of the log-v integrator, and
    the integrator's converged panels (at the default ``QuadratureSpec``
    tolerances) carry the CDF: each panel holds its K15 mass, spread over
    piecewise-exponential cells through the panel edges and its 15 Kronrod nodes.
    Draws invert the exponential within the selected cell and are returned as
    log v.  A density the integrator cannot resolve raises ``QuadratureError``.
    """

    def __init__(self, log_density_lv):
        log_g = _compound_log_g(log_density_lv)
        panels = _log_integrate_unit(log_g, _DEFAULT_SPEC.rel_tol, _DEFAULT_SPEC.max_subdivisions)
        if panels.shift == -np.inf:
            raise ValueError("degenerate grid: log density is -inf everywhere")
        order = np.argsort(panels.a)
        a, b = panels.a[order], panels.b[order]
        nodes = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * _K15_NODES
        ledge = log_g(np.append(a, 1.0))
        if np.isnan(ledge).any():
            raise QuadratureError("log integrand returned NaN")
        t = np.append(np.column_stack([a, nodes]).ravel(), 1.0)
        logg = np.append(np.column_stack([ledge[:-1], panels.l15[order]]).ravel(), ledge[-1])
        logm, l0, l1 = _cell_log_masses(t, logg)
        # Rescale each panel's 16 cells to the panel's K15 mass.
        logm = logm.reshape(len(a), 16)
        top = logm.max(axis=1, keepdims=True)
        rel = np.exp(logm - np.where(np.isfinite(top), top, 0.0))
        masses = rel * (panels.mass[order] / np.maximum(rel.sum(axis=1), 1.0))[:, None]
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        self._t = t
        self._cdf = cdf / cdf[-1]
        self._l0 = l0
        self._l1 = l1
        self._h = np.diff(t)

    def sample_lv(self, rng) -> float:
        """One draw, returned as log v; exact even where v overflows a float."""
        u = rng.random()
        i = int(np.searchsorted(self._cdf, u, side="right")) - 1
        i = min(max(i, 0), len(self._h) - 1)
        w = self._cdf[i + 1] - self._cdf[i]
        frac = (u - self._cdf[i]) / w if w > 0 else rng.random()
        d = self._l1[i] - self._l0[i]
        if abs(d) < 1e-10:
            x = frac
        else:
            # Invert F(x) = (e^{d x} - 1)/(e^d - 1) on the unit cell.
            x = math.log1p(frac * math.expm1(d)) / d
        t = self._t[i] + x * self._h[i]
        t = min(max(t, 1e-300), 1.0 - 1e-16)
        w = t / (1.0 - t)
        return float(_log_expm1(w))
