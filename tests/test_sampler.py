"""Auxiliary-variable draws and the sequential urn chain."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from nbpk import checks, sampler
from nbpk.levy_models import LevyModel, ModelKind, ModelParamsR, log_pi_n_lv, log_psi_lv
from nbpk.partitions import Configuration, enumerate_afs, log_partition_coefficient
from nbpk.posterior import _log_g_r_rows, log_eppf, log_v_moment
from nbpk.sampler import _class_key, _urn, kn_posterior_mc, run_chain, sample_v, urn_step

# alpha * r = 7, so the first and second V moments are finite with a usable
# standard error
GG_HEAVY_R = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
PD_HALF = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)  # theta = 1
GAMMA_1 = ModelParamsR(LevyModel.gamma(1.0), 2.0)


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


def _normalized(logw):
    w = np.exp(logw - logw.max(axis=0))
    return w / w.sum(axis=0)


def _urn_probs(params, config, lv):
    """The urn's (new block, block 1, ..., block k) probabilities at each lv, from its class;
    a Gibbs-type class seats block i on its one join row with weight n_i - alpha."""
    urn = _urn(params, _class_key(params, config))
    rows = urn.log_g(np.atleast_1d(lv))
    if urn.row is None:
        a = params.model.alpha or 0.0
        return _normalized(np.array(
            [rows[0]] + [rows[1] + math.log(ni - a) for ni in config.counts]))
    return _normalized(rows[[0] + [urn.row[ni] for ni in config.counts]])


def _kernel_probs(params, config, lv):
    """The same probabilities from the kernels: (r + k) pi_1/psi and pi_{n_i+1}/pi_{n_i}."""
    model = params.model
    rows = [math.log(params.r + config.k)
            + log_pi_n_lv(model, 1, lv) - log_psi_lv(model, lv)]
    for ni in config.counts:
        rows.append(log_pi_n_lv(model, ni + 1, lv) - log_pi_n_lv(model, ni, lv))
    return _normalized(np.array(rows))


URN_MODELS = [
    ModelParamsR(LevyModel.stable(0.5), 1.5),
    ModelParamsR(LevyModel.gamma(1.0), 2.0),
    ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
    ModelParamsR(LevyModel.truncated_stable(0.5), 1.5),
    ModelParamsR(LevyModel.stable(0.2), 0.5),
    ModelParamsR(LevyModel.gamma(2.5), 0.8),
]
URN_CONFIGS = [(1,), (2, 1), (3, 2, 1), (1, 1, 1, 1), (5, 3, 2, 1, 1),
               (40, 20, 10, 5, 3, 1, 1), (60,) * 5 + (100,)]


@pytest.mark.parametrize("lim, tol", [(30.0, 1e-12), (700.0, 1e-10)])
def test_urn_choice_matches_kernel_formula(lim, tol):
    lv = np.linspace(-lim, lim, 601)
    for params in URN_MODELS:
        for counts in URN_CONFIGS:
            config = Configuration(counts)
            got = _urn_probs(params, config, lv)
            want = _kernel_probs(params, config, lv)
            # Each row carries (n - 1) lv against the kernels' opposite terms,
            # so rows of one class lose about 2 n |lv| eps to cancellation.
            bound = tol + 2 * config.n * np.abs(lv) * np.finfo(float).eps
            assert np.all(np.abs(got - want) <= bound), (params, counts)


def test_step_weights_fixed_value():
    # generalized-gamma at v = 1: new-block weight 3 * pi_1/psi = 0.75,
    # join weight pi_2/pi_1 = 0.25, so p(new) = 0.75
    probs = _urn_probs(PD_HALF, Configuration((1,)), 0.0)[:, 0]
    assert probs == pytest.approx([0.75, 0.25], abs=1e-12)
    assert probs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("counts", [(2, 2, 1), (1, 1, 1, 1)])
def test_urn_v_density_sums_the_enlarged_rows_per_block(counts, monkeypatch):
    # The V density weights each join row by its blocks' seating weights; that is
    # the log-sum-exp over n + new and n + e_i for every block i.  A Gibbs-type
    # class reads the rows of its representative configuration, which differ from
    # config's by a constant, so the density is compared up to an additive constant.
    config = Configuration(counts)
    lv = np.linspace(-30.0, 30.0, 601)
    for params in URN_MODELS[:4]:
        densities = []
        monkeypatch.setattr(sampler, "LogDensityGridSampler", densities.append)
        sampler._urn.__wrapped__(params, _class_key(params, config))
        per_block = _log_g_r_rows(
            params, [config.append_block()] + [config.add_one(i) for i in range(config.k)])
        diff = densities[0](lv) - np.logaddexp.reduce(per_block(lv), axis=0)
        assert np.abs(diff - diff[300]).max() <= 1e-12


@pytest.mark.parametrize("params", URN_MODELS[:4], ids=lambda p: p.model.describe())
def test_configurations_with_the_same_n_and_k_share_one_gibbs_class(params):
    # A Gibbs-type step depends on the configuration only through (n, k) and the
    # seating weights n_i - alpha; the truncated stable keeps one class per multiset.
    sampler._urn.cache_clear()
    rng = np.random.default_rng(5)
    for counts in [(3, 1), (2, 2), (1, 3)]:
        urn_step(params, Configuration(counts), 0.0, rng)
    gibbs = params.model.kind is not ModelKind.TRUNCATED_STABLE
    assert sampler._urn.cache_info().misses == (1 if gibbs else 2)


@pytest.mark.parametrize("params", [PD_HALF, URN_MODELS[3]], ids=lambda p: p.model.describe())
def test_v_samplers_are_keyed_on_the_urn_class(params):
    # A Gibbs-type g_r(v, n) depends on the configuration only through (n, k), up to a
    # constant factor, so (3, 1), (2, 2) and (1, 3) share one V sampler.
    sampler._v_sampler.cache_clear()
    rng = np.random.default_rng(5)
    for counts in [(3, 1), (2, 2), (1, 3)]:
        sample_v(params, Configuration(counts), rng)
    gibbs = params.model.kind is not ModelKind.TRUNCATED_STABLE
    assert sampler._v_sampler.cache_info().misses == (1 if gibbs else 2)


def test_truncstable_pick_matches_the_cumulative_sum_reference():
    # The step bisects the accumulated per-block values over Python floats; the reference
    # normalises the same rows with numpy and searches the cumulative sum.  Rounding may
    # part them only where u lies on a boundary between two blocks.
    params, rng = URN_MODELS[3], np.random.default_rng(23)
    configs, picked = checks.configs_up_to(5), set()
    for _ in range(10_000):
        config = configs[rng.integers(len(configs))]
        lv, u = rng.uniform(-15.0, 15.0), rng.random()
        urn = _urn(params, _class_key(params, config))
        logw = urn.log_g(np.array([lv]))[[0] + [urn.row[ni] for ni in config.counts], 0]
        w = np.exp(logw - logw.max())
        cum = np.cumsum(w / w.sum())
        want = int(np.searchsorted(cum, u, side="right"))
        step = urn_step(params, config, lv, SimpleNamespace(random=lambda: u))  # rng stub
        got = 0 if step.k > config.k else 1 + next(
            i for i, (a, b) in enumerate(zip(step.counts, config.counts)) if a != b)
        assert got == want or np.abs(cum - u).min() <= 1e-12, (config.counts, lv, u, got)
        picked.add(got)
    assert picked == set(range(6))  # the new block and every block of a 5-block class


@pytest.mark.parametrize("params", [ModelParamsR(LevyModel.truncated_stable(0.2), 0.5),
                                    ModelParamsR(LevyModel.truncated_stable(0.8), 3.0)],
                         ids=["alpha0.2-r0.5", "alpha0.8-r3"])
def test_truncstable_chain_law_across_alpha_and_r(params):
    # Criterion 7 checks the truncated stable at alpha = 0.5, r = 1.5 alone.
    [(_, pval, ok)] = checks.urn_exactness([params], 4, 10_000, 10_000)
    assert ok, pval


def test_urn_step_first_observation():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert urn_step(PD_HALF, None, 0.0, rng).counts == (1,)
    assert rng.bit_generator.state == before  # no uniform spent


@pytest.mark.parametrize("params,config,lv", [
    *(pytest.param(GAMMA_1, config, lv, id=f"{name}-{lv}")
      for name, config in (("None", None), ("config1", Configuration((1,))))
      for lv in (math.nan, math.inf, -math.inf)),
    # A finite lv at which the class rows overflow: [inf, inf] and [-inf, -inf].
    pytest.param(GAMMA_1, Configuration((3, 1)), 1e308, id="gamma-rows-inf"),
    pytest.param(ModelParamsR(LevyModel.truncated_stable(0.5), 1.5), Configuration((1,)), 1e308,
                 id="truncstable-rows-neginf")])
def test_urn_step_rejects_non_finite_lv(params, config, lv):
    # The overflow itself is expected at lv = 1e308; the step must not pick past it.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        urn_step(params, config, lv, np.random.default_rng(0))


def test_run_chain_n1():
    rec = run_chain(PD_HALF, 1, seed=9, keep_v_trace=True)
    assert rec.final_config.counts == (1,) and rec.k == 1
    # The first V is a draw from g_r(v, (1,)).
    assert rec.v_trace[0] == sample_v(PD_HALF, Configuration((1,)), np.random.default_rng(9))
    with pytest.raises(ValueError):
        run_chain(PD_HALF, 0, seed=9)


def test_run_chain_deterministic():
    a = run_chain(PD_HALF, 6, seed=33, keep_v_trace=True)
    b = run_chain(PD_HALF, 6, seed=33, keep_v_trace=True)
    assert a == b
    assert len(a.v_trace) == 6
    assert a.afs.m == tuple(x for x in a.afs.m)  # tuple typed


@pytest.mark.parametrize("params", URN_MODELS[:4], ids=lambda p: p.model.describe())
def test_v_trace_leaves_the_partition_as_it_is(params):
    # No pick reads V_1, so the walk draws V_2..V_n and the trace draws V_1 after it.
    for seed in range(200):
        plain, traced = run_chain(params, 5, seed), run_chain(params, 5, seed, keep_v_trace=True)
        assert traced.final_config == plain.final_config and plain.v_trace is None
        assert len(traced.v_trace) == 5


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
    v_sampler = _urn(params, _class_key(params, cfg)).sampler
    rng = np.random.default_rng(71)
    joined, opened = [], []
    for _ in range(20_000):
        lv = v_sampler.sample_lv(rng)
        step = urn_step(params, cfg, lv, rng)
        (opened if step.k == 2 else joined).append(math.exp(lv))
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
