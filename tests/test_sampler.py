"""Auxiliary-variable draws and the sequential urn chain."""

import json
import math

import numpy as np
import pytest

from nbpk.levy_models import LevyModel, ModelParamsR
from nbpk.partitions import Configuration, enumerate_afs, log_partition_coefficient
from nbpk.posterior import log_eppf, log_v_moment
from nbpk.sampler import (
    ChainState,
    _chain_v_sampler,
    _log_step_weights_lv,
    kn_posterior_mc,
    run_chain,
    sample_v,
    urn_step,
)

# alpha * r = 7, so the first and second V moments are finite with a usable
# standard error
GG_HEAVY_R = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
PD_HALF = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)  # theta = 1


def test_sample_v_moments_match_quadrature():
    cfg = Configuration((2, 1))
    rng = np.random.default_rng(101)
    lz = log_eppf(GG_HEAVY_R, cfg)
    mean = math.exp(log_v_moment(GG_HEAVY_R, cfg, 1.0) - lz)
    second = math.exp(log_v_moment(GG_HEAVY_R, cfg, 2.0) - lz)
    draws = np.array([sample_v(GG_HEAVY_R, cfg, rng) for _ in range(20_000)])
    assert np.all(draws > 0.0)
    se1 = draws.std(ddof=1) / math.sqrt(len(draws))
    se2 = (draws ** 2).std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - mean) < 3 * se1
    assert abs((draws ** 2).mean() - second) < 3 * se2


def _step_probs(params, config, v):
    """Normalized (new block, block 1, ..., block k) weights at fixed v."""
    logw = _log_step_weights_lv(params, config.counts, math.log(v))
    w = np.exp(logw - logw.max())
    return w / w.sum()


def test_step_weights_fixed_value():
    # generalized-gamma at v = 1: new-block weight 3 * pi_1/psi = 0.75,
    # join weight pi_2/pi_1 = 0.25, so p(new) = 0.75
    probs = _step_probs(PD_HALF, Configuration((1,)), 1.0)
    assert probs == pytest.approx([0.75, 0.25], abs=1e-12)
    assert probs.sum() == pytest.approx(1.0)


def test_urn_step_first_observation():
    rng = np.random.default_rng(0)
    state = ChainState(None, 0.0, 0, rng)
    nxt = urn_step(PD_HALF, state)
    assert nxt.config.counts == (1,) and nxt.step == 1


def test_run_chain_n1():
    rec = run_chain(PD_HALF, 1, seed=9)
    assert rec.final_config.counts == (1,) and rec.k == 1
    with pytest.raises(ValueError):
        run_chain(PD_HALF, 0, seed=9)


def test_run_chain_deterministic():
    a = run_chain(PD_HALF, 6, seed=33, keep_v_trace=True)
    b = run_chain(PD_HALF, 6, seed=33, keep_v_trace=True)
    assert a == b
    assert len(a.v_trace) == 6
    assert a.afs.m == tuple(x for x in a.afs.m)  # tuple typed


def test_run_chain_pair_probability():
    # p((2)) = 0.25 for the two-parameter (0.5, 1) case
    reps = 20_000
    hits = sum(run_chain(PD_HALF, 2, seed=500 + j).k == 1 for j in range(reps))
    se = math.sqrt(0.25 * 0.75 / reps)
    assert abs(hits / reps - 0.25) < 3 * se


def _chain_chi2_p(params, n, reps, seed0):
    """Chi-square p of run_chain's multiplicity classes against the EPPF."""
    from scipy.stats import chisquare
    classes = enumerate_afs(n)
    probs = np.array([math.exp(log_partition_coefficient(m)
                               + log_eppf(params, m.to_configuration()))
                      for m in classes])
    index = {m.m: j for j, m in enumerate(classes)}
    counts = np.zeros(len(classes))
    for j in range(reps):
        counts[index[run_chain(params, n, seed0 + j).afs.m]] += 1
    return chisquare(counts, probs / probs.sum() * reps)[1]


def test_chain_matches_partition_distribution_small_n():
    # a fast version of the exactness check, one non-trivial model
    assert _chain_chi2_p(ModelParamsR(LevyModel.stable(0.5), 1.5), 3, 20_000, 9000) > 0.001


def test_chain_matches_partition_distribution_small_alpha_stable():
    # The v^(k alpha - 1) singularity of the V density at v = 0 is sharp for
    # alpha = 0.2; a V sampler that does not resolve it biases the partition law.
    assert _chain_chi2_p(ModelParamsR(LevyModel.stable(0.2), 0.5), 4, 40_000, 2_000_000) > 0.001


def test_chain_v_conditional_matches_enlarged_density():
    # conditionally on the realized enlarged configuration, the V used at a
    # step follows the auxiliary density of that enlarged configuration
    params = GG_HEAVY_R
    cfg = Configuration((1,))
    sampler = _chain_v_sampler(params, cfg.sorted_counts())
    rng = np.random.default_rng(71)
    joined, opened = [], []
    for _ in range(20_000):
        v = math.exp(sampler.sample_lv(rng))
        probs = _step_probs(params, cfg, v)
        if rng.random() < probs[0]:
            opened.append(v)
        else:
            joined.append(v)
    for draws, counts in ((np.array(joined), (2,)), (np.array(opened), (1, 1))):
        enlarged = Configuration(counts)
        want = math.exp(log_v_moment(params, enlarged, 1.0)
                        - log_eppf(params, enlarged))
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - want) < 3 * se


def test_kn_posterior_mc():
    hist = kn_posterior_mc(PD_HALF, 1, 50, seed=3)
    assert hist == {1: 50}
    params = ModelParamsR(LevyModel.stable(0.5), 2.0)
    reps = 20_000
    hist = kn_posterior_mc(params, 3, reps, seed=100)
    assert sum(hist.values()) == reps
    se = math.sqrt(0.375 * 0.625 / reps)
    assert abs(hist.get(1, 0) / reps - 0.375) < 3 * se
    with pytest.raises(ValueError):
        kn_posterior_mc(PD_HALF, 2, 0, seed=1)


def test_record_json_fields():
    rec = run_chain(PD_HALF, 4, seed=77, keep_v_trace=True)
    obj = json.loads(rec.to_json())
    assert obj["seed"] == 77 and obj["n"] == 4
    assert obj["k"] == rec.k
    assert obj["counts"] == list(rec.final_config.counts)
    assert obj["afs"] == list(rec.afs.m)
    assert len(obj["v_trace"]) == 4
