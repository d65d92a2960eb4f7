"""The sequential urn scheme: auxiliary-variable draws alternating with cluster picks.

A chain grows one observation at a time.  The auxiliary variable V and the
next observation's block have one joint law: (V, join a block of size s) has
density proportional to g_r(v, n + e_s), and (V, open a new block) to
g_r(v, n + new).  Each step draws V from the marginal of that law, then the
block from its conditional given V.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .levy_models import ModelParamsR
from .numerics import LogDensityGridSampler
from .partitions import AFSVector, Configuration, afs
from .posterior import _enlarged, _gibbs, _log_g_r_row, _log_g_r_rows, _representative

__all__ = [
    "GibbsSampleRecord",
    "sample_v",
    "urn_step",
    "run_chain",
    "kn_posterior_mc",
]


@dataclass(frozen=True)
class GibbsSampleRecord:
    final_config: Configuration
    k: int
    afs: AFSVector
    seed: int
    v_trace: Optional[Tuple[float, ...]] = None

    def to_json(self) -> str:
        rec = {
            "seed": self.seed,
            "n": self.final_config.n,
            "k": self.k,
            "counts": list(self.final_config.counts),
            "afs": list(self.afs.m),
        }
        if self.v_trace is not None:
            rec["v_trace"] = list(self.v_trace)
        return json.dumps(rec)


def _capped_exp(lv: float) -> float:
    """exp(lv) for reporting, capped so the stored v stays a finite float."""
    return min(math.exp(lv) if lv < 690.0 else math.inf, 1e300)


@lru_cache(maxsize=4096)
def _v_sampler(params: ModelParamsR, key) -> LogDensityGridSampler:
    """The V sampler of a class of ``_class_key``, built on the class's representative."""
    return LogDensityGridSampler(_log_g_r_row(params, _representative(params, key)))


def sample_v(params: ModelParamsR, config: Configuration, rng) -> float:
    """One draw from the density proportional to g_r(v, n), from its urn class's cached grid."""
    return _capped_exp(_v_sampler(params, _class_key(params, config)).sample_lv(rng))


class _Urn(NamedTuple):
    """What one configuration class gives the urn: its rows and the V sampler."""
    # lv of shape (N,) -> log g_r at n + new block (row 0), then the join rows, shape (rows, N)
    log_g: Callable
    row: Optional[Dict[int, int]]  # block size s -> the row of n + e_s; None: the one join row
    sampler: LogDensityGridSampler


def _class_key(params: ModelParamsR, config: Configuration):
    """The urn class of config: (n, k) for a Gibbs-type model, else its sorted counts."""
    return (config.n, config.k) if _gibbs(params) else config.sorted_counts()


@lru_cache(maxsize=4096)
def _urn(params: ModelParamsR, key) -> _Urn:
    """The urn's rows and V sampler for a class of ``_class_key``; the empty class has one row.

    Jointly with V, joining block i has density proportional to g_r(v, n + e_i) and
    opening a new block to g_r(v, n + new): V's marginal density sums the rows over the
    blocks (V from g_r(v, n) would give a wrong partition law), and the choice given V
    reads the same rows at V.  The truncated stable keeps a row n + e_s per block size s.
    A Gibbs-type model has p(n) = V_{n,k} prod (1 - alpha)_{n_i - 1}, so
    g_r(v, n + e_i) = (n_i - alpha) J(v) with one join row J, and the rows of
    (n - k + 1, 1, ..., 1) serve its whole (n, k) class up to a common factor.
    """
    if not key or not _gibbs(params):
        sizes = sorted(set(key))
        log_g, row = _log_g_r_rows(params, _enlarged(key)), {s: j for j, s in enumerate(sizes, 1)}
        log_mult = np.log([1] + [key.count(s) for s in sizes])[:, None]
    else:
        (n, k), a, c = key, params.model.alpha or 0.0, _representative(params, key)
        rows = _log_g_r_rows(params, [c + (1,), (c[0] + 1,) + c[1:]])  # c + new, c + e_1
        shift = np.log([[1.0], [c[0] - a]])  # J: the join row without its seat weight
        log_g, log_mult, row = (lambda lv: rows(lv) - shift), np.log([[1.0], [n - k * a]]), None
    sampler = LogDensityGridSampler(
        lambda lv: np.logaddexp.reduce(log_g(lv) + log_mult, axis=0))
    return _Urn(log_g, row, sampler)


def urn_step(params: ModelParamsR, config: Optional[Configuration], lv: float,
             rng) -> Configuration:
    """Add one observation to config at the freshly drawn log v = lv.

    It opens a block or joins block i with probability proportional to
    g_r(v, n + new) or g_r(v, n + e_i); for a Gibbs-type model these are the
    two values of the class's rows at lv, block i seated with weight n_i - alpha.
    The first observation (config None) always opens a block and draws no uniform.
    """
    if not math.isfinite(lv):
        raise ValueError(f"log v must be finite, got {lv}")
    if config is None:
        return Configuration((1,))
    urn = _urn(params, _class_key(params, config))
    logs = urn.log_g(np.array([lv]))[:, 0].tolist()
    top, a = max(logs), params.model.alpha or 0.0
    if not math.isfinite(top):  # x - top would be NaN and the pick the last block
        raise ValueError(f"class rows at log v = {lv} are not finite: {logs}")
    w = [math.exp(x - top) for x in logs]  # row 0 is the new block's
    blocks = ([(ni - a) * w[1] for ni in config.counts] if urn.row is None  # seated n_i - alpha
              else [w[urn.row[ni]] for ni in config.counts])
    cum = list(accumulate([w[0]] + blocks))
    idx = min(bisect_right(cum, rng.random() * cum[-1]), config.k)
    return config.append_block() if idx == 0 else config.add_one(idx - 1)


def run_chain(params: ModelParamsR, n_target: int, seed: int,
              keep_v_trace: bool = False) -> GibbsSampleRecord:
    """Grow a partition of n_target observations; deterministic given the seed."""
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    rng = np.random.default_rng(seed)
    trace = [] if keep_v_trace else None
    config = Configuration((1,))  # the first observation opens a block whatever V_1 is
    for _ in range(n_target - 1):
        lv = _urn(params, _class_key(params, config)).sampler.sample_lv(rng)
        if trace is not None:
            trace.append(_capped_exp(lv))
        config = urn_step(params, config, lv, rng)
    if trace is not None:  # V_1 comes last, so the trace leaves the partition as it is
        trace.insert(0, _capped_exp(_urn(params, ()).sampler.sample_lv(rng)))
    return GibbsSampleRecord(
        final_config=config,
        k=config.k,
        afs=afs(config),
        seed=seed,
        v_trace=tuple(trace) if trace is not None else None,
    )


def kn_posterior_mc(params: ModelParamsR, n: int, replications: int,
                    seed: int) -> Dict[int, int]:
    """Monte Carlo histogram of the number of blocks after n observations; replication j
    runs with chain seed seed + j, one chain after another in this process."""
    if replications < 1:
        raise ValueError("replications must be >= 1")
    hist: Dict[int, int] = {}
    for j in range(replications):
        rec = run_chain(params, n, seed + j)
        hist[rec.k] = hist.get(rec.k, 0) + 1
    return hist
