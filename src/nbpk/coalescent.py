"""Backward-in-time ancestral recursion over block configurations.

A configuration shrinks by one observation per event: a within-block
coalescence when the block has more than one member, or the removal of a
singleton block.  The event probabilities come from the prediction weights on
the reduced configurations, all integrated in log space in one stacked
quadrature pass per configuration; the continuous-time version attaches a
configuration-level total rate and splits it across blocks in proportion to
their sizes.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .levy_models import ModelParamsR, log_pi_n_lv, log_psi_lv
from .numerics import log_integrate_halfline_logv
from .partitions import Configuration
from .posterior import _assemble_log_g_r, _log_g_r_lv, log_eppf

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
    "history_to_newick",
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
        if config.n >= 2 and not rate > 0.0:
            raise ValueError(f"rate must be positive for n >= 2, got {rate} at {config}")
        return rate


def _log_backward_terms(params: ModelParamsR, config: Configuration) -> np.ndarray:
    """log of every block's backward event term, from one stacked quadrature pass.

    Block i of size s > 1 contributes (s/n) (1/(n-1)) omega_i and a singleton
    (1/n) omega_0, both prediction weights of the reduced configuration
    n - e_i: omega_i = int v pi_s/pi_{s-1} g_r(v, n - e_i) dv and
    omega_0 = (r+k-1)/(n-1) int v pi_1/psi g_r(v, n - e_i) dv.  Blocks of equal
    size leave the same reduced multiset, so there is one row per distinct size.
    """
    model = params.model
    n, k = config.n, config.k
    sizes = sorted(set(config.counts))
    reduced = [config.remove_one(config.counts.index(s)) for s in sizes]
    needed = {1, *sizes, *(s - 1 for s in sizes if s > 1)}

    def log_f(lv):
        log_psi = log_psi_lv(model, lv)
        log_pi = {m: log_pi_n_lv(model, m, lv) for m in needed}
        rows = []
        for s, red in zip(sizes, reduced):
            tilt = log_pi[s] - log_pi[s - 1] if s > 1 else log_pi[1] - log_psi
            rows.append(lv + tilt + _assemble_log_g_r(params, red, lv, log_psi, log_pi))
        return np.array(rows)

    logs = log_integrate_halfline_logv(log_f)
    log_factor = [math.log(s / n / (n - 1)) if s > 1
                  else math.log((params.r + k - 1) / (n - 1) / n) for s in sizes]
    by_size = dict(zip(sizes, (logs + log_factor).tolist()))
    return np.array([by_size[s] for s in config.counts])


def backward_event_probabilities(params: ModelParamsR, config: Configuration):
    """Unnormalized backward event terms per block, and their total.

    The total equals the EPPF value of the full configuration.  The terms are
    computed as logs (``_log_backward_terms``) and returned as linear floats,
    so they underflow where the EPPF does.
    """
    if config.n < 2:
        raise ValueError("need a configuration with at least two observations")
    log_terms = _log_backward_terms(params, config)
    return np.exp(log_terms), math.exp(np.logaddexp.reduce(log_terms))


def transition_rates(config: Configuration, phi: RateFunction) -> np.ndarray:
    """Rates of n -> n - e_i: phi(n) * n_i / n for every block; they sum to phi(n)."""
    if config.n < 2:
        raise ValueError("need a configuration with at least two observations")
    total = phi(config)
    counts = np.array(config.counts, float)
    return total * counts / config.n


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


def _reachable_states(start: Configuration) -> List[Tuple[int, ...]]:
    """All block-size multisets reachable by repeated single decrements."""
    seen = set()
    frontier = [start.sorted_counts()]
    while frontier:
        state = frontier.pop()
        if state in seen:
            continue
        seen.add(state)
        if sum(state) == 1:
            continue
        for i in range(len(state)):
            nxt = list(state)
            nxt[i] -= 1
            if nxt[i] == 0:
                del nxt[i]
            nxt = tuple(sorted(nxt, reverse=True))
            if nxt not in seen:
                frontier.append(nxt)
    return sorted(seen, key=lambda s: (sum(s), s))


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: a degree-18 Taylor polynomial at 1-norm <= 1/2.

    The truncation error there is below 0.5^19 / 19! ~ 2e-23 relative.
    """
    norm = np.abs(a).sum(axis=0).max()
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0
    a = a / 2.0 ** squarings
    term = out = np.eye(len(a))
    for j in range(1, 19):
        term = term @ a / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def h_solver_exact(config: Configuration, phi: RateFunction,
                   h0: Optional[Callable[[Configuration], float]] = None,
                   t_grid: Sequence[float] = (0.0, 1.0)) -> np.ndarray:
    """Solve the linear backward system for H(start, t) on the requested times.

    dH(n,t)/dt = -phi(n) H(n,t) + phi(n) sum_i (n_i/n) H(n - e_i, t), with the
    single-lineage state absorbing.  h0 defaults to the indicator of the
    terminal state, which makes H the absorption probability by time t.
    """
    if config.n > _LATTICE_LIMIT:
        raise ValueError(
            f"configuration lattice for n = {config.n} is too large to enumerate "
            f"(limit {_LATTICE_LIMIT}); use Monte Carlo via simulate_backward")
    if h0 is None:
        h0 = lambda c: 1.0 if c.sorted_counts() == (1,) else 0.0
    t_grid = np.asarray(t_grid, float)
    if not np.all(np.isfinite(t_grid) & (t_grid >= 0.0)):
        raise ValueError("times must be finite and nonnegative")

    states = _reachable_states(config)
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    gen = np.zeros((dim, dim))
    for s, row in index.items():
        if sum(s) == 1:
            continue
        c = Configuration(s)
        total = phi(c)
        gen[row, row] = -total
        for i, ni in enumerate(s):
            nxt = list(s)
            nxt[i] -= 1
            if nxt[i] == 0:
                del nxt[i]
            col = index[tuple(sorted(nxt, reverse=True))]
            gen[row, col] += total * ni / sum(s)

    y0 = np.array([h0(Configuration(s)) for s in states], float)
    start_row = index[config.sorted_counts()]
    # H(t) = exp(t G) h0 for the generator G; exp(0) is the identity.
    return np.array([_expm(t * gen)[start_row] @ y0 if t > 0.0 else y0[start_row]
                     for t in t_grid])


def ratio_integrals(params: ModelParamsR, config: Configuration, i: int,
                    route: str = "weights") -> float:
    """Normalized backward weight for block i: the event term over p(n - e_i).

    route="weights" divides the backward term by the reduced EPPF; route
    "direct" evaluates the equivalent explicit ratio of two half-line
    integrals.  The two routes agree up to quadrature tolerance.
    """
    n, k = config.n, config.k
    if n < 2:
        raise ValueError("need a configuration with at least two observations")
    if route == "weights":
        log_term = _log_backward_terms(params, config)[i]
        return math.exp(log_term - log_eppf(params, config.remove_one(i)))
    if route != "direct":
        raise ValueError(f"unknown route {route!r}")

    ni = config.counts[i]
    reduced = config.remove_one(i)

    def log_kernel(cfg, kk):
        # v^{n'-1} psi^{-(r+kk)} prod_j pi_{n_j}; no gamma-function prefactors.
        def log_f(lv):
            lv = np.asarray(lv, float)
            lg = _log_g_r_lv(params, cfg, lv)
            # Strip g_r's own prefactors to recover the bare kernel, then
            # adjust the psi exponent from r + cfg.k to r + kk.
            lg = lg - (math.lgamma(params.r + cfg.k) - math.lgamma(params.r)) \
                + math.lgamma(cfg.n)
            return lg + (cfg.k - kk) * log_psi_lv(params.model, lv)

        return log_integrate_halfline_logv(log_f)

    if ni > 1:
        num = log_kernel(config, k)
        den = log_kernel(reduced, k)
        return ni / (n * (n - 1)) * math.exp(num - den)
    num = log_kernel(config, k)
    den = log_kernel(reduced, k - 1)
    return (params.r + k - 1) / (n * (n - 1)) * math.exp(num - den)


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


def history_to_newick(history: CoalescentHistory) -> str:
    """Bracket serialization of the event nesting for an all-singleton start.

    With every starting block a singleton the events are removals; the tips
    are joined onto the ancestral line in event order (a caterpillar shape).
    The choice of which lineage pair merges inside a block is not determined
    by the configuration-level process; for general starts use the JSON form.
    """
    if any(c != 1 for c in history.start.counts):
        raise ValueError("newick serialization requires an all-singleton start")
    labels = [f"L{i + 1}" for i in range(history.start.k)]
    # Track which original label each current block index refers to.
    alive = list(labels)
    spine = None
    for ev in history.events:
        removed = alive.pop(ev.block_index)
        spine = removed if spine is None else f"({spine},{removed})"
    if alive:
        last = alive[0]
        spine = last if spine is None else f"({spine},{last})"
    return spine + ";"
