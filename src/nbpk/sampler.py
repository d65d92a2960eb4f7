"""The sequential urn scheme: auxiliary-variable draws alternating with cluster picks.

A chain grows one observation at a time.  Before each new observation the
auxiliary variable V is redrawn from its conditional density given the current
configuration, then the observation joins an existing block or opens a new one
with weights evaluated at that fixed V.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .levy_models import ModelParamsR, log_pi_n_lv, log_psi_lv
from .numerics import LogDensityGridSampler
from .partitions import AFSVector, Configuration, afs
from .posterior import _log_g_r_lv, _log_g_r_rows

__all__ = [
    "ChainState",
    "GibbsSampleRecord",
    "sample_v",
    "urn_step",
    "run_chain",
    "kn_posterior_mc",
]


@dataclass
class ChainState:
    config: Optional[Configuration]
    # The auxiliary variable as log v: with the gamma intensity the chain
    # visits v beyond float range while log v stays representable.
    lv: float
    step: int
    rng: np.random.Generator


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


def _log_step_weights_lv(params: ModelParamsR, counts: Tuple[int, ...], lv):
    """Log conditional prediction weights at log v; shape (k+1,) + lv shape."""
    model = params.model
    rows = [math.log(params.r + len(counts))
            + log_pi_n_lv(model, 1, lv) - log_psi_lv(model, lv)]
    for ni in counts:
        rows.append(log_pi_n_lv(model, ni + 1, lv) - log_pi_n_lv(model, ni, lv))
    return np.array(rows)


@lru_cache(maxsize=4096)
def _chain_v_sampler(params: ModelParamsR,
                     sorted_counts: Tuple[int, ...]) -> LogDensityGridSampler:
    """Sampler for the V draw that precedes an assignment step.

    The density is proportional to v * A(v) * g_r(v, n), where A(v) is the sum
    of the conditional prediction weights.  Term by term that is
    n * (g_r(v, n + new) + sum_i g_r(v, n + e_i)), so the log density is the
    log-sum-exp of the enlarged configurations' rows.  Drawing V this way and
    then assigning with the normalized weights makes each step reproduce the
    exact marginal predictive: the joint density of (V, join block i) is
    proportional to g_r(v, n + e_i), so conditionally on the realized enlarged
    configuration V again follows its auxiliary density.  Drawing V from the
    plain g_r(v, n) instead gives a measurably wrong partition law whenever
    the conditional weights depend on v.
    """
    config = Configuration(sorted_counts)
    enlarged = [config.append_block()] + [config.add_one(i) for i in range(config.k)]
    log_g = _log_g_r_rows(params, enlarged)
    return LogDensityGridSampler(lambda lv: np.logaddexp.reduce(log_g(lv), axis=0))


def urn_step(params: ModelParamsR, state: ChainState) -> ChainState:
    """Assign the next observation given the freshly sampled state.lv."""
    if state.config is None:
        # First observation always opens a block.
        return ChainState(Configuration((1,)), state.lv, state.step + 1, state.rng)
    logw = _log_step_weights_lv(params, state.config.counts, state.lv)
    w = np.exp(logw - logw.max())
    probs = w / w.sum()
    u = state.rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, len(probs) - 1)
    if idx == 0:
        config = state.config.append_block()
    else:
        config = state.config.add_one(idx - 1)
    return ChainState(config, state.lv, state.step + 1, state.rng)


def run_chain(params: ModelParamsR, n_target: int, seed: int,
              keep_v_trace: bool = False) -> GibbsSampleRecord:
    """Grow a partition of n_target observations; deterministic given the seed."""
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    rng = np.random.default_rng(seed)
    trace = [] if keep_v_trace else None
    # The initial auxiliary draw uses the single-block density (n = k = 1).
    lv0 = _v_sampler(params, (1,)).sample_lv(rng)
    if trace is not None:
        trace.append(_capped_exp(lv0))
    state = urn_step(params, ChainState(None, lv0, 0, rng))
    while state.step < n_target:
        # Each subsequent V is drawn from the prediction-tilted density (see
        # _chain_v_sampler); the assignment step then uses the conditional
        # prediction rule at that V.
        sampler = _chain_v_sampler(params, state.config.sorted_counts())
        lv = sampler.sample_lv(rng)
        if trace is not None:
            trace.append(_capped_exp(lv))
        state = urn_step(params, ChainState(state.config, lv, state.step, rng))
    config = state.config
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
