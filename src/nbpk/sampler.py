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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .levy_models import ModelParamsR
from .numerics import LogDensityGridSampler
from .partitions import AFSVector, Configuration, afs
from .posterior import _enlarged, _log_g_r_lv, _log_g_r_rows

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
def _v_sampler(params: ModelParamsR, sorted_counts: Tuple[int, ...]) -> LogDensityGridSampler:
    config = Configuration(sorted_counts)
    return LogDensityGridSampler(lambda lv: _log_g_r_lv(params, config, lv))


def sample_v(params: ModelParamsR, config: Configuration, rng) -> float:
    """One draw from the density proportional to g_r(v, n).

    The sampler grid depends on the configuration only through the block-size
    multiset, so grids are cached on the sorted counts.
    """
    return _capped_exp(_v_sampler(params, config.sorted_counts()).sample_lv(rng))


class _Urn(NamedTuple):
    """What one configuration class gives the urn: its enlarged rows and the V sampler."""
    # lv of shape (N,) -> log g_r at n + new block (row 0) and at n + e_s, shape (rows, N)
    log_g: Callable
    row: Dict[int, int]  # block size s -> the row of n + e_s
    sampler: LogDensityGridSampler


@lru_cache(maxsize=4096)
def _urn(params: ModelParamsR, sorted_counts: Tuple[int, ...]) -> _Urn:
    """The urn's rows and V sampler for the class of the sorted counts; () before the first draw.

    Jointly with V, joining a block of size s has density proportional to
    g_r(v, n + e_s) and opening a new block to g_r(v, n + new).  So V's
    marginal density is the sum of the rows, each size s weighted by its m_s
    blocks, and the choice given V is read from the same rows at that V.  Each
    step then reproduces the exact marginal predictive, and given the enlarged
    configuration V again follows its auxiliary density.  Drawing V from the
    plain g_r(v, n) instead gives a measurably wrong partition law whenever
    the choice depends on v.  The empty class has the one row g_r(v, (1,)).
    """
    sizes = sorted(set(sorted_counts))
    log_g = _log_g_r_rows(params, _enlarged(sorted_counts))
    log_mult = np.log([1] + [sorted_counts.count(s) for s in sizes])[:, None]
    sampler = LogDensityGridSampler(
        lambda lv: np.logaddexp.reduce(log_g(lv) + log_mult, axis=0))
    return _Urn(log_g, {s: j for j, s in enumerate(sizes, start=1)}, sampler)


def urn_step(params: ModelParamsR, config: Optional[Configuration], lv: float,
             rng) -> Configuration:
    """Add one observation to config at the freshly drawn log v = lv.

    It opens a block or joins block i with probability proportional to
    g_r(v, n + new) or g_r(v, n + e_i).  The first observation (config None)
    always opens a block and draws no uniform.
    """
    if not math.isfinite(lv):
        raise ValueError(f"log v must be finite, got {lv}")
    if config is None:
        return Configuration((1,))
    urn = _urn(params, config.sorted_counts())
    logs = urn.log_g(np.array([lv]))[:, 0]
    logw = logs[[0] + [urn.row[ni] for ni in config.counts]]
    w = np.exp(logw - logw.max())
    probs = w / w.sum()
    idx = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    idx = min(idx, len(probs) - 1)
    return config.append_block() if idx == 0 else config.add_one(idx - 1)


def run_chain(params: ModelParamsR, n_target: int, seed: int,
              keep_v_trace: bool = False) -> GibbsSampleRecord:
    """Grow a partition of n_target observations; deterministic given the seed."""
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    rng = np.random.default_rng(seed)
    trace = [] if keep_v_trace else None
    config = None
    for _ in range(n_target):
        counts = () if config is None else config.sorted_counts()
        lv = _urn(params, counts).sampler.sample_lv(rng)
        if trace is not None:
            trace.append(_capped_exp(lv))
        config = urn_step(params, config, lv, rng)
    return GibbsSampleRecord(
        final_config=config,
        k=config.k,
        afs=afs(config),
        seed=seed,
        v_trace=tuple(trace) if trace is not None else None,
    )


def kn_posterior_mc(params: ModelParamsR, n: int, replications: int,
                    seed: int) -> Dict[int, int]:
    """Monte Carlo histogram of the number of blocks after n observations.

    Replication j runs with chain seed seed + j, so results merge
    deterministically across workers.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    hist: Dict[int, int] = {}
    for j in range(replications):
        rec = run_chain(params, n, seed + j)
        hist[rec.k] = hist.get(rec.k, 0) + 1
    return hist
