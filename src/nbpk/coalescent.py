"""Backward-in-time ancestral recursion over block configurations.

A configuration shrinks by one observation per event: a within-block
coalescence when the block has more than one member, or the removal of a
singleton block.  By the EPPF addition rule, block i's event term is
(n_i/n) p(n), so the terms of a configuration need its EPPF only; the
continuous-time version attaches a configuration-level total rate and splits
it across blocks in proportion to their sizes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .levy_models import ModelParamsR
from .partitions import _ENUM_LIMIT, Configuration
from .posterior import _log_eppfs, log_eppf

__all__ = [
    "EventKind",
    "AncestralEvent",
    "CoalescentHistory",
    "RateKind",
    "RateFunction",
    "backward_event_probabilities",
    "transition_rates",
    "simulate_backward",
    "h_solver_exact",
    "ratio_integrals",
    "history_to_json_lines",
]

_LATTICE_LIMIT = 12


class EventKind(enum.Enum):
    COALESCENCE = "coalescence"
    SINGLETON_REMOVAL = "singleton_removal"


@dataclass(frozen=True)
class AncestralEvent:
    time: float
    kind: EventKind
    block_index: int
    config_after: Optional[Configuration]

    def __post_init__(self):
        if self.time < 0.0:
            raise ValueError("event time must be nonnegative")


@dataclass(frozen=True)
class CoalescentHistory:
    start: Configuration
    events: Tuple[AncestralEvent, ...]
    seed: int


class RateKind(enum.Enum):
    TOTAL_N = "n"
    TOTAL_N_CHOOSE_2 = "n_choose_2"
    CUSTOM = "custom"


@dataclass(frozen=True)
class RateFunction:
    """Total event rate phi(n) per configuration; the clock of the backward chain."""

    kind: RateKind = RateKind.TOTAL_N
    custom: Optional[Callable[[Configuration], float]] = None

    def __call__(self, config: Configuration) -> float:
        if self.kind is RateKind.TOTAL_N:
            rate = float(config.n)
        elif self.kind is RateKind.TOTAL_N_CHOOSE_2:
            rate = config.n * (config.n - 1) / 2.0
        else:
            if self.custom is None:
                raise ValueError("custom rate function not provided")
            rate = float(self.custom(config))
        if config.n >= 2 and not 0.0 < rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {rate} at {config}")
        return rate


def backward_event_probabilities(params: ModelParamsR, config: Configuration):
    """Unnormalized backward event terms per block, and their total.

    Block i's term is (n_i/n) p(n), whatever the block's size: the reduced
    configuration n - e_i rebuilds n with predictive probability
    p(n)/p(n - e_i), so one integral gives every term, and the total is p(n).
    Both are linear floats: a term that underflows (to 0 or a subnormal) raises FloatingPointError.
    """
    if config.n < 2:
        raise ValueError("need a configuration with at least two observations")
    p = math.exp(log_eppf(params, config))
    if p * min(config.counts) / config.n < 2.0 ** -1022:  # the least term: few or no bits
        raise FloatingPointError(f"p(n) = {p} puts a term below the normal floats at {config}")
    return np.array([p * ni for ni in config.counts]) / config.n, p


def transition_rates(config: Configuration, phi: RateFunction) -> np.ndarray:
    """Rates of n -> n - e_i: phi(n) * n_i / n for every block; they sum to phi(n)."""
    if config.n < 2:
        raise ValueError("need a configuration with at least two observations")
    # n_i/n first: phi(n) * n_i alone may overflow where the rate does not.
    return phi(config) * (np.array(config.counts, float) / config.n)


def simulate_backward(config: Configuration, phi: RateFunction, seed: int) -> CoalescentHistory:
    """Simulate the backward chain to a single lineage; deterministic given seed."""
    rng = np.random.default_rng(seed)
    events: List[AncestralEvent] = []
    t = 0.0
    current = config
    while current.n > 1:
        rates = transition_rates(current, phi)
        total = rates.sum()
        t += rng.exponential(1.0 / total)
        i = int(rng.choice(len(rates), p=rates / total))
        kind = EventKind.COALESCENCE if current.counts[i] > 1 else EventKind.SINGLETON_REMOVAL
        current = current.remove_one(i)
        events.append(AncestralEvent(t, kind, i, current))
    return CoalescentHistory(start=config, events=tuple(events), seed=seed)


def _decrements(state: Tuple[int, ...]):
    """(n_i, the sorted state with one observation removed from block i) for every block i."""
    for i, ni in enumerate(state):
        yield ni, tuple(sorted(state[:i] + (ni - 1,) * (ni > 1) + state[i + 1:], reverse=True))


@lru_cache(maxsize=32)  # the largest entry, at n = 40, holds 13710 states in about 6 MB
def _lattice(start: Tuple[int, ...]):
    """The backward lattice of a start class (its sorted counts), enumerated once.

    Returns the reachable states as ``Configuration``s ordered by (n, sorted
    counts), so (1,) comes first and every later state has events; the start's
    index; for each (state n, block i) in that order, the indices of n and
    of n - e_i and the weight n_i/n; and each state's n and the probability
    that the removal chain from the start, which takes an observation from
    block i with probability n_i/n, visits it.
    """
    seen, frontier = {start}, [start]
    while frontier:
        state = frontier.pop()
        if sum(state) > 1:
            new = {nxt for _, nxt in _decrements(state)} - seen
            seen |= new
            frontier.extend(new)
    states = sorted(seen, key=lambda s: (sum(s), s))
    index = {s: i for i, s in enumerate(states)}
    pattern = [(row, index[nxt], ni / sum(s))
               for row, s in enumerate(states[1:], start=1) for ni, nxt in _decrements(s)]
    visit = np.zeros(len(states))
    visit[index[start]] = 1.0
    for row, col, weight in reversed(pattern):  # n falls: a state's mass is whole before it moves
        visit[col] += visit[row] * weight
    rows, cols, weights = np.array(pattern, float).reshape(-1, 3).T
    configs = tuple(map(Configuration, states))
    level = np.array([c.n for c in configs])
    return configs, index[start], rows.astype(int), cols.astype(int), weights, level, visit


# The Taylor coefficients 1/j!, j = 0..18, and a zero: row k weighs I, A, A^2, A^3 in (A^4)^k.
_TAYLOR_BLOCKS = np.append(1.0 / np.cumprod([1.0, *range(1, 19)]), 0.0).reshape(5, 4)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for one square matrix a, by scaling and squaring.

    a is scaled to 1-norm <= 1/2, where a degree-18 Taylor polynomial has
    truncation error below 0.5^19 / 19! ~ 2e-23 relative, and squared back.
    Paterson-Stockmeyer evaluates it in 7 products: Horner's rule in A^4.
    """
    norm = np.abs(a).sum(axis=0).max()
    # A zero matrix needs no squaring; a non-finite one raises FloatingPointError.
    with np.errstate(divide="ignore", invalid="raise"):
        squarings = np.maximum(np.ceil(np.log2(2.0 * norm)), 0.0).astype(int)
    a = a / 2.0 ** squarings
    a2 = a @ a
    powers = np.array([np.eye(len(a)), a, a2, a2 @ a])
    blocks = (_TAYLOR_BLOCKS @ powers.reshape(4, -1)).reshape((5,) + a.shape)
    a4, out = a2 @ a2, blocks[4]
    for block in blocks[3::-1]:
        out = out @ a4 + block
    for _ in range(squarings):
        out = out @ out
    return out


def _expm_times(t_grid: np.ndarray, gen: np.ndarray, i: int) -> np.ndarray:
    """Row i of exp(t G) for every t in t_grid, one time at a time (a stack would hold a dozen
    d x d matrices per time: 1 GB for 10 times at d = 1000); raises where t G leaves float range."""
    rows = []
    for t in t_grid:
        with np.errstate(over="ignore"):  # _expm scales t G by twice its 1-norm: finite too
            tg = t * gen
            if not np.isfinite(2.0 * np.abs(tg).sum(axis=0)).all():
                raise ValueError("t G leaves float range: a rate or a time is too large")
        rows.append(_expm(tg)[i])
    return np.array(rows).reshape(-1, len(gen))


def _log_absorbed(n: int, t: np.ndarray) -> np.ndarray:
    """log P(L(t) = 1 | L(0) = n) under phi = n: the binomial's m = 0 and m = 1 terms."""
    q = -np.expm1(-t)  # (1 - e^-t)^(n-1) (1 - e^-t + n e^-t), with 0 log 0 = 0 at t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 1, 0.0, (n - 1) * np.log(q)) + np.log(q + n * np.exp(-t))


@lru_cache(maxsize=32)
def _level_law(n: int, kind: RateKind, times: Tuple[float, ...]) -> np.ndarray:
    """P(L(t) = m | L(0) = n) for m = 1..n, a row per time, under a built-in clock; read-only,
    computed once per (n, clock, times).

    The clock depends on n alone, so the number of observations L is a pure
    death chain n -> n - 1 at rate phi(n), stopped at one lineage.
    """
    t, m = np.array(times)[:, None], np.arange(1.0, n + 1.0)
    if kind is RateKind.TOTAL_N:
        # Each of n lineages dies at rate 1: binomial for m >= 2, in positive log terms only
        # (1 minus a sum loses small probabilities), with 0 log 0 = 0, so t = 0 gives level n.
        log_fact, q = np.array([math.lgamma(j + 1.0) for j in range(n + 1)]), -np.expm1(-t)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_law = (log_fact[n] - log_fact[1:] - log_fact[n - 1::-1] - m * t
                       + np.where(m == n, 0.0, (n - m) * np.log(q)))
        log_law[:, :1] = _log_absorbed(n, t)
        law = np.exp(log_law)
    else:
        rate = m * (m - 1.0) / 2.0
        law = _expm_times(t[:, 0], np.diag(-rate) + np.diag(rate[1:], -1), -1)  # level n's row
    law.flags.writeable = False  # every caller shares it
    return law


def h_solver_exact(config: Configuration, phi: RateFunction,
                   h0: Optional[Callable[[Configuration], float]] = None,
                   t_grid: Sequence[float] = (0.0, 1.0)) -> np.ndarray:
    """Solve the linear backward system for H(start, t) on the requested times.

    dH(n,t)/dt = -phi(n) H(n,t) + phi(n) sum_i (n_i/n) H(n - e_i, t), with the
    single-lineage state absorbing.  h0 defaults to the indicator of the
    terminal state, which makes H the absorption probability by time t.

    Under a built-in clock the number of observations L(t) is a death chain,
    independent of X_m, the removal chain's class at level m, so
    H(start, t) = sum_m P(L(t) = m) E[h0(X_m)]: the default h0 needs
    P(L(t) = 1) alone, at any n.  Another h0 reads the lattice's visit
    probabilities, so it needs n <= 40 (``partitions._ENUM_LIMIT``); a custom phi
    exponentiates t G on the lattice of classes, so it needs n <= 12.
    """
    t_grid = np.asarray(t_grid, float)
    if t_grid.ndim != 1 or not np.all(np.isfinite(t_grid) & (t_grid >= 0.0)):
        raise ValueError("times must be a one-dimensional sequence, finite and nonnegative")
    built_in = phi.kind is not RateKind.CUSTOM
    if built_in and h0 is None:  # P(L(t) = 1); under phi = n in closed form, no n-wide law
        return (np.exp(_log_absorbed(config.n, t_grid)) if phi.kind is RateKind.TOTAL_N
                else _level_law(config.n, phi.kind, tuple(t_grid.tolist()))[:, 0].copy())
    if config.n > (limit := _ENUM_LIMIT if built_in else _LATTICE_LIMIT):
        raise ValueError(
            f"configuration lattice for n = {config.n} is too large to enumerate "
            f"(limit {limit}); use Monte Carlo via simulate_backward")
    if h0 is None:
        h0 = lambda c: 1.0 if c.sorted_counts() == (1,) else 0.0

    configs, start, rows, cols, weights, level, visit = _lattice(config.sorted_counts())
    y0 = np.array([h0(c) for c in configs], float)
    if built_in:  # E[h0(X_m)] per level m, from the visit probabilities
        return _level_law(config.n, phi.kind, tuple(t_grid.tolist())) @ np.bincount(
            level, visit * y0, minlength=config.n + 1)[1:]
    rate = np.array([0.0] + [phi(c) for c in configs[1:]])  # no event leaves (1,)
    gen = np.zeros((rate.size, rate.size))
    live = np.arange(1, rate.size)
    gen[live, live] = -rate[1:]
    np.add.at(gen, (rows, cols), rate[rows] * weights)  # phi(n) * (n_i/n): no overflow
    return _expm_times(t_grid, gen, start) @ y0  # H(t) = exp(t G) h0 for the generator G


def ratio_integrals(params: ModelParamsR, config: Configuration, i: int) -> float:
    """Normalized backward weight for block i: the event term over p(n - e_i).

    That is (n_i/n) p(n) / p(n - e_i), with both EPPFs from one shared-panel
    pass; it equals the reduced configuration's predictive probability of
    rebuilding n, times n_i/n.
    """
    if config.n < 2:
        raise ValueError("need a configuration with at least two observations")
    log_p, log_reduced = _log_eppfs(params, [config, config.remove_one(i)])
    return config.counts[i] / config.n * math.exp(log_p - log_reduced)


def history_to_json_lines(history: CoalescentHistory) -> str:
    """One JSON object per event: time, kind, block_index, config_after."""
    lines = []
    for ev in history.events:
        lines.append(json.dumps({
            "time": ev.time,
            "kind": ev.kind.value,
            "block_index": ev.block_index,
            "config_after": list(ev.config_after.counts) if ev.config_after else [],
        }))
    return "\n".join(lines)
