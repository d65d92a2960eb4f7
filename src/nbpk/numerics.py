"""Log-space adaptive quadrature on (0, infinity) and inverse-CDF sampling on its panels.

Every integral in this package is of the form ``log I = log int_0^infty exp(log_f(v)) dv``
where ``exp(log_f)`` would overflow or underflow in linear space.  The integrand
is supplied as a numpy-vectorised function of log v.  The integrator keeps a
running maximum of the log integrand, works on shifted values, and restores
the shift at the end, so adding a constant to ``log_f`` shifts the result exactly.
The engine bisects panels with the nested Gauss-Kronrod rule: one evaluation
at a panel's 15 Kronrod nodes gives its mass and, through the embedded 7-point
Gauss rule, its error.  Every integral's first round is one fixed, precomputed
mesh, whose lv array ``_MESH_LV`` an integrand may recognise and cache columns on.
Every panel is a mesh panel or a dyadic half of one, so each panel's mapped nodes
are computed once per process and cached on its edges (``_panel_map``).
The grid sampler's CDF integrates the interpolant of each converged panel's K15
values up to its nodes, so sampling reads the same panels and the same rule.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial import legendre

__all__ = [
    "QuadratureError",
    "log_integrate_halfline_logv",
    "LogDensityGridSampler",
]


# The tolerances every integral and every V sampler reads, and that
# ``nbpk --show-config`` prints.
_REL_TOL = 1e-9
_MAX_SUBDIVISIONS = 20000


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
# Row j: the integral from -1 to node j (last row: to +1) of each node's Lagrange
# basis polynomial, by way of the Legendre basis; the last row is _K15_WEIGHTS.
_CUM_WEIGHTS = (legendre.legvander(np.append(_K15_NODES, 1.0), 15)
                @ legendre.legint(np.linalg.inv(legendre.legvander(_K15_NODES, 14)), lbnd=-1))
# The rule and the number of equal panels refinement starts from, as
# ``nbpk --show-config`` prints them.
_RULE_NAME = "gauss-kronrod G7/K15"
_INITIAL_PANELS = 16
_EDGES = np.linspace(0.0, 1.0, _INITIAL_PANELS + 1)


def _panel_nodes(a, b):
    """The K15 nodes of panels [a_i, b_i], or of one panel [a, b], in one flat array."""
    # One halving, after the sum: halving is exact, so these are 0.5 (a + b) + 0.5 (b - a) x's bits.
    mid2, width = np.asarray(a + b)[..., None], np.asarray(b - a)[..., None]
    return (0.5 * (mid2 + width * _K15_NODES)).ravel()


def _log_expm1(w):
    """log(e^w - 1), elementwise, stable for both tiny and huge w."""
    w = np.asarray(w, float)
    out = np.empty_like(w)
    small = w < 0.7
    out[small] = np.log(np.expm1(w[small]))
    out[~small] = w[~small] + np.log1p(-np.exp(-w[~small]))
    return out


@functools.lru_cache(maxsize=4096)
def _panel_map(a, b):
    """Panel [a, b]'s K15 nodes t mapped once: read-only rows [lv, w, 2 log(1-t)] at the
    nodes strictly inside (0, 1), and those nodes' mask among the 15.

    lv = log v for v = exp(w) - 1, w = t/(1-t), and w - 2 log(1-t) = log dv/dt.  A
    node that rounds onto t = 0 or t = 1 maps to v = 0 or v = inf; an integrable
    integrand vanishes there, so refinement scores it -inf.  The panels are the 16
    mesh panels and their dyadic halves, a fixed tree whatever the integrand.
    """
    t = _panel_nodes(a, b)
    ok = (t > 0.0) & (t < 1.0)
    t = t[ok]
    w = t / (1.0 - t)
    rows = np.array([_log_expm1(w), w, 2.0 * np.log1p(-t)])
    rows.flags.writeable = ok.flags.writeable = False
    return rows, ok


# The first round's nodes, all inside (0, 1), mapped once and read-only.
_MESH_T = _panel_nodes(_EDGES[:-1], _EDGES[1:])
_MESH_LV, _MESH_W, _MESH_2LOG1M = np.concatenate(
    [_panel_map(a, b)[0] for a, b in zip(_EDGES[:-1].tolist(), _EDGES[1:].tolist())], axis=1)
for _a in (_MESH_T, _MESH_LV, _MESH_W, _MESH_2LOG1M):
    _a.flags.writeable = False
_MESH_RULE = (0.5 / _INITIAL_PANELS) * _RULE_COLUMNS  # times the panels' half-width: exact


def _log_f(log_f_lv, lv):
    """log_f_lv at the points lv, checked to give shape (N,), or (m, N) for m stacked rows."""
    vals = log_f_lv(lv)
    if np.ndim(vals) not in (1, 2) or np.shape(vals)[-1] != lv.size:
        raise ValueError(f"log integrand returned shape {np.shape(vals)} for {lv.shape} points")
    return vals


class _Panels(NamedTuple):
    """Converged panels in refinement order; rows is () for a 1-d integrand, else (m,)."""
    a: np.ndarray          # left edges
    b: np.ndarray          # right edges
    l15: np.ndarray        # log integrand at each panel's K15 nodes, shape rows + (panels, 15)
    log_total: np.ndarray  # log of each row's integral, shape rows; -inf for a row that is zero


def _mesh_round(log_f_lv):
    """Round 1, on the mesh, under the caller's ``np.errstate``: l15 (the log integrand plus the
    Jacobian terms, shape rows + (16, 15)), each row's max m and its panels' rule sums."""
    l15 = _log_f(log_f_lv, _MESH_LV) + _MESH_W - _MESH_2LOG1M
    l15 = l15.reshape(l15.shape[:-1] + (_INITIAL_PANELS, 15))
    m = l15.max(axis=(-2, -1))
    return l15, m, np.exp(l15 - m[..., None, None]) @ _MESH_RULE


def _log_integrate_mesh(log_f_lv):
    """Each row's log integral from round 1 alone, as the engine's; None if a row would refine."""
    with np.errstate(all="ignore"):
        _, m, sums = _mesh_round(log_f_lv)
        total = sums[..., 0].sum(axis=-1)
        if (np.abs(sums[..., 1]).sum(axis=-1) <= _REL_TOL * total).all():
            return m + np.log(total)


def _log_integrate_unit(log_f_lv) -> _Panels:
    """Adaptive Gauss-Kronrod bisection of (0, 1) until every row's K15 total converges.

    This is the package's one adaptive engine: the integrator reads the
    returned totals and the grid sampler builds its CDF from the same panels.
    All rows share the panels; each row has its own test
    err_j <= _REL_TOL * total_j, with |K15 - G7| as each panel's error.  Round 1 is
    ``_mesh_round``; refinement starts from its values, maxima and panel sums (bit for
    bit a later round's: the half-width 1/32 is a power of two), and each later round reads
    the new panels' cached maps and evaluates the integrand once on their nodes.
    """
    a, b, splits = _EDGES[:-1], _EDGES[1:], 0
    with np.errstate(all="ignore"):
        l15, m, sums = _mesh_round(log_f_lv)
        while True:
            err = np.abs(sums[..., 1])
            total, total_err = sums[..., 0].sum(axis=-1), err.sum(axis=-1)
            # A row whose max is not finite has NaN sums and fails this test.
            budget = _REL_TOL * total
            done = total_err <= budget
            if done.all():
                return _Panels(a, b, l15, m + np.log(total))
            if not np.isfinite(m).all():
                # A row that is -inf everywhere is identically zero: zero sums pass the
                # test (0 <= 0) and, with its max taken as 0, its log total is -inf.
                dead = ~np.isfinite(m)
                if not np.isneginf(m[dead]).all():  # a row's max: NaN if it holds one
                    raise QuadratureError(f"log integrand returned {m[dead].max()}")
                m, sums[dead] = np.where(dead, 0.0, m), 0.0
                continue

            # Split every panel whose error exceeds an unconverged row's fair share
            # of that row's budget; always split at least the worst one.
            split = (err > budget / len(a) if err.ndim == 1  # one row, not done
                     else (err > np.where(done, np.inf, budget / len(a))[:, None]).any(axis=0))
            if (count := np.count_nonzero(split)) == 0:
                open_err = np.where(done[..., None], -np.inf, err).reshape(-1, len(a))
                split[np.argmax(open_err.max(axis=0))], count = True, 1
            if splits + count > _MAX_SUBDIVISIONS:
                # Report the unconverged row with the largest relative error.
                rel = np.where(total > 0.0, total_err / total, np.inf)
                j = np.unravel_index(np.argmax(np.where(done, -np.inf, rel)), rel.shape)
                raise QuadratureError(
                    "adaptive quadrature did not converge within "
                    f"{_MAX_SUBDIVISIONS} subdivisions",
                    best_estimate=m[j] + math.log(total[j]) if total[j] > 0 else -np.inf,
                    error_bound=float(rel[j]),
                )
            splits += count

            # Kept panels, left halves, right halves: the order fixes each total's bits.
            keep = ~split
            split_a, split_b = a[split], b[split]
            mid = 0.5 * (split_a + split_b)
            a = np.concatenate([a[keep], split_a, mid])
            b = np.concatenate([b[keep], mid, split_b])
            # The new panels' cached maps, one integrand call, Jacobian terms as in round 1.
            maps, oks = zip(*map(_panel_map, a[-2 * count:].tolist(), b[-2 * count:].tolist()))
            lv, w, two_log1m_t = np.concatenate(maps, axis=1)
            new = _log_f(log_f_lv, lv) + w - two_log1m_t
            if lv.size < 30 * count:  # a node that rounds onto t = 0 or 1 scores -inf
                full = np.full(new.shape[:-1] + (30 * count,), -np.inf)
                full[..., np.concatenate(oks)] = new
                new = full
            l15 = np.concatenate([l15[..., keep, :], new.reshape(new.shape[:-1] + (-1, 15))],
                                 axis=-2)
            m = l15.max(axis=(-2, -1))
            sums = (0.5 * (b - a))[:, None] * (np.exp(l15 - m[..., None, None]) @ _RULE_COLUMNS)


def log_integrate_halfline_logv(log_f_lv: Callable):
    """log int_0^infty exp(log_f(v)) dv with the integrand given as a function of log v.

    Uses the compound map v = exp(w) - 1, w = t/(1-t).  Integrands whose tail
    decays only like a power of log v (the Gamma intensity family) keep a
    non-negligible share of their mass at v far beyond float range; in the w
    coordinate that tail is algebraic and the panel refinement resolves it.

    A 1-d integrand gives a float; one returning (m, N) gives m logs from one
    shared panel set, each to its own relative tolerance.  The lv array it gets
    is read-only and may be shared between calls: it must not be modified.
    """
    logs = _log_integrate_unit(log_f_lv).log_total
    return float(logs) if logs.ndim == 0 else logs


class LogDensityGridSampler:
    """Inverse-CDF sampler for an unnormalized log density on (0, infinity).

    The log density is supplied as a function of log v.  The half line is
    mapped to (0, 1) by the compound coordinate of the log-v integrator, and
    the integrator's converged panels (at ``_REL_TOL`` and ``_MAX_SUBDIVISIONS``)
    carry the CDF: each panel is cut at its 15 Kronrod nodes into 16 cells, whose
    masses integrate the interpolant of the panel's K15 values (``_CUM_WEIGHTS``),
    so no point beyond the integrator's nodes is evaluated.  Draws invert the
    exponential through a cell's end values (flat in a panel's two outer cells)
    and are returned as log v.  A density the integrator cannot resolve raises
    ``QuadratureError``.  As for the integrator, the lv array it gets is
    read-only and may be shared.
    """

    def __init__(self, log_density_lv):
        panels = _log_integrate_unit(log_density_lv)
        if not np.isfinite(panels.log_total):  # -inf everywhere: the engine refuses NaN and +inf
            raise ValueError(f"degenerate grid: log density integrates to {panels.log_total}")
        order = np.argsort(panels.a)
        a, b, l15 = panels.a[order], panels.b[order], panels.l15[order]
        cum = (0.5 * (b - a))[:, None] * (np.exp(l15 - l15.max()) @ _CUM_WEIGHTS.T)
        masses = np.maximum(np.diff(cum, axis=1, prepend=0.0), 0.0)
        # Each cell's end values; a panel's outer cells are flat at their node's.
        l0 = np.column_stack([l15[:, 0], l15])
        l1 = np.column_stack([l15, l15[:, -1]])
        masses[np.isneginf(np.maximum(l0, l1))] = 0.0
        with np.errstate(invalid="ignore"):
            # A -inf end gives a 45-nat ramp; two -inf ends (no mass) a flat cell.
            slope = np.nan_to_num(np.clip(l1 - l0, -45.0, 45.0), nan=0.0)
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        t = np.append(np.column_stack([a, _panel_nodes(a, b).reshape(-1, 15)]).ravel(), 1.0)
        self._t, self._cdf, self._slope, self._h = t, cdf / cdf[-1], slope.ravel(), np.diff(t)

    def sample_lv(self, rng) -> float:
        """One draw, returned as log v; exact even where v overflows a float."""
        u = rng.random()
        # The CDF ends at exactly 1 > u, and side="right" steps over zero-mass cells.
        i = int(np.searchsorted(self._cdf, u, side="right")) - 1
        frac = (u - self._cdf[i]) / (self._cdf[i + 1] - self._cdf[i])
        d = self._slope[i]
        if abs(d) < 1e-10:
            x = frac
        else:
            # Invert F(x) = (e^{d x} - 1)/(e^d - 1) on the unit cell.
            x = math.log1p(frac * math.expm1(d)) / d
        t = self._t[i] + x * self._h[i]
        t = min(max(t, 1e-300), 1.0 - 1e-16)
        w = t / (1.0 - t)
        return float(_log_expm1(w))
