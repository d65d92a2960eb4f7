"""The acceptance criteria, one generator of ``(label, value, ok)`` rows per criterion.

``nbpk validate`` and the acceptance tests run the same checks on their own grids; a
check's parameters are what those grids differ in, and its bar is fixed here.  Only the
public API of the package modules and :mod:`nbpk.reference` are used, so the checks
stay independent of the internals they test.
"""

from __future__ import annotations

import math

import numpy as np

from . import reference
from .coalescent import (RateFunction, RateKind, backward_event_probabilities, h_solver_exact,
                         ratio_integrals, simulate_backward)
from .levy_models import LevyModel, ModelParamsR, log_pi_n_lv, log_psi_lv
from .partitions import Configuration, enumerate_afs, log_partition_coefficient
from .posterior import (check_partition_normalization, check_prediction_sum, log_eppf,
                        log_v_moment, normalized_predictive, predictive_weights)
from .sampler import run_chain, sample_v


def configs_up_to(n_max, n_min=1):
    """Every configuration with n_min <= n <= n_max, one per block-size multiset."""
    return [m.to_configuration() for n in range(n_min, n_max + 1) for m in enumerate_afs(n)]


def _pd_params(alpha, theta):
    # The generalized gamma model with r = theta/alpha is the two-parameter family.
    return ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)


def pd_eppf(pairs, configs):
    """Criterion 1: log EPPF against the two-parameter closed form, per (alpha, theta)."""
    for alpha, theta in pairs:
        params = _pd_params(alpha, theta)
        worst = max(abs(log_eppf(params, c) - reference.pd_log_eppf(alpha, theta, c.counts))
                    for c in configs)
        yield f"alpha={alpha} theta={theta}", worst, worst < 1e-6


def r_independence(configs):
    """Criterion 2: the stable(0.6) EPPF is the same for every r, and equals PD(0.6, 0)."""
    worst_pair = worst_pd = 0.0
    for config in configs:
        vals = [log_eppf(ModelParamsR(LevyModel.stable(0.6), r), config)
                for r in (0.2, 1.0, 5.0, 25.0)]
        worst_pair = max(worst_pair, max(vals) - min(vals))
        want = reference.pd_log_eppf(0.6, 0.0, config.counts)
        worst_pd = max(worst_pd, max(abs(v - want) for v in vals))
    yield "r-pairs", worst_pair, worst_pair < 1e-8
    yield "pd(alpha,0)", worst_pd, worst_pd < 1e-6


def prediction_sum(cases):
    """Criterion 3: omega0 + (1/n) sum_i omega_i = p(n), per (params, configuration)."""
    for params, config in cases:
        res = check_prediction_sum(params, config)
        yield f"{params.model.describe()} {config}", res, res < 1e-6


def partition_normalization(models, n_max):
    """Criterion 4: the EPPF sums to one over the partitions of every n <= n_max."""
    for params in models:
        worst = max(check_partition_normalization(params, n) for n in range(1, n_max + 1))
        yield params.model.describe(), worst, worst < 1e-6


def pd_predictive(pairs, configs):
    """Criterion 5: prediction probabilities against the two-parameter closed form."""
    for alpha, theta in pairs:
        params = _pd_params(alpha, theta)
        worst = max(float(np.abs(normalized_predictive(params, c)
                                 - reference.pd_predictive(alpha, theta, c.counts)).max())
                    for c in configs)
        yield f"alpha={alpha} theta={theta}", worst, worst < 1e-6


def derivative_identities(models, n_max):
    """Criterion 6: pi_1 = psi' and pi_n = -pi_{n-1}', n <= n_max, by central differences."""
    for params in models:
        model = params.model

        def kernel(n, v):  # psi for n = 0, else pi_n
            lv = math.log(v)
            return math.exp(log_pi_n_lv(model, n, lv) if n else log_psi_lv(model, lv))

        worst = 0.0
        for v in (0.01, 0.1, 1.0, 10.0, 100.0):
            h = 1e-5 * v
            for n in range(1, n_max + 1):
                slope = (kernel(n - 1, v + h) - kernel(n - 1, v - h)) / (2 * h)
                pin = kernel(n, v)
                worst = max(worst, abs(pin - slope if n == 1 else pin + slope) / pin)
        yield model.describe(), worst, worst < 1e-5


def urn_exactness(models, n, reps, seed):
    """Criterion 7: chi-square p-value of reps urn chains (seeds seed + j) against the EPPF."""
    from scipy.stats import chisquare  # here, so importing the CLI leaves scipy.stats unloaded
    classes = enumerate_afs(n)
    index = {m.m: j for j, m in enumerate(classes)}
    for params in models:
        probs = np.array([math.exp(log_partition_coefficient(m)
                                   + log_eppf(params, m.to_configuration()))
                          for m in classes])
        probs /= probs.sum()
        counts = np.zeros(len(classes))
        for j in range(reps):
            counts[index[run_chain(params, n, seed + j).afs.m]] += 1
        _, pval = chisquare(counts, probs * reps)
        yield params.model.describe(), pval, pval > 0.001


def v_moments(configs, reps, rng):
    """Criterion 8: z-scores of reps V draws' first two moments against log_v_moment.

    gengamma(0.7) r = 10 has tail index alpha * r = 7, well above the 4 a stable
    standard error of the second moment needs.  configs is read lazily, so a
    generator may draw them from rng between the V draws.
    """
    params = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
    for config in configs:
        lz = log_eppf(params, config)
        moments = [math.exp(log_v_moment(params, config, m) - lz) for m in (1.0, 2.0)]
        draws = np.array([sample_v(params, config, rng) for _ in range(reps)])
        for name, x, want in (("mean", draws, moments[0]),
                              ("second-moment", draws ** 2, moments[1])):
            z = abs(x.mean() - want) / (x.std(ddof=1) / math.sqrt(reps))
            yield f"{config} {name}", z, z < 3.0


def backward_recursion(models, configs):
    """Criterion 9: each backward term (n_i/n) p(n) against the reduced configuration's route.

    That route is (n_i/n) p(n - e_i) times n - e_i's predictive probability of
    rebuilding n.  Then PD(0.5, 1)'s ratios at (3,1), 3/4 * 3/8 and 1/4 * 3/8.
    """
    for params in models:
        worst = 0.0
        for config in configs:
            terms, _ = backward_event_probabilities(params, config)
            for i, ni in enumerate(config.counts):
                reduced = config.remove_one(i)
                w = predictive_weights(params, reduced)
                j = i + 1 if ni > 1 else 0  # rebuilding n joins block i or opens one
                want = ni / config.n * math.exp(w.log_eppf) * w.normalized(reduced)[j]
                worst = max(worst, abs(terms[i] - want) / want)
        yield f"terms={params.model.describe()}", worst, worst < 1e-5
    params = _pd_params(0.5, 1.0)
    for label, i, want in (("pd-ratio-coalesce", 0, 0.28125), ("pd-ratio-singleton", 1, 0.09375)):
        err = abs(ratio_integrals(params, Configuration((3, 1)), i) - want)
        yield label, err, err < 1e-6


def h_solver(config, t_grid, reps, seed):
    """Criterion 10: the H solver with phi(n) = n keeps a constant h0 on t_grid from config.

    Its absorption probability by t = 1 from (2,2,1) must match the share of
    reps simulated histories (seeds seed + j) that reach one lineage by then.
    """
    phi = RateFunction(RateKind.TOTAL_N)
    vals = h_solver_exact(config, phi, h0=lambda c: 1.0, t_grid=t_grid)
    dev = float(np.abs(vals - 1.0).max())
    yield "constant-preservation", dev, dev < 1e-9
    start = Configuration((2, 2, 1))
    exact = h_solver_exact(start, phi, t_grid=(1.0,))[0]
    hits = sum(simulate_backward(start, phi, seed + j).events[-1].time <= 1.0
               for j in range(reps))
    z = abs(hits / reps - exact) / math.sqrt(exact * (1.0 - exact) / reps)
    yield "monte-carlo", z, z < 3.0
