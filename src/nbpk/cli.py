"""Command-line front end.

Subcommands: ``eppf`` (partition probability), ``predict`` (raw and normalized
prediction weights), ``gibbs`` (stream sampled partitions as JSON lines),
``coalescent`` (stream backward histories or solve the H system) and
``validate`` (run the identity suites and print a pass/fail table).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import List, Optional

import numpy as np

from . import reference
from .coalescent import (
    RateFunction,
    RateKind,
    backward_event_probabilities,
    h_solver_exact,
    history_to_json_lines,
    ratio_integrals,
    simulate_backward,
)
from .levy_models import LevyModel, ModelParamsR, log_pi_n_lv, log_psi_lv
from .numerics import _DEFAULT_SPEC, _INITIAL_PANELS, _RULE_NAME, QuadratureError
from .partitions import Configuration, enumerate_afs
from .posterior import (
    check_partition_normalization,
    check_prediction_sum,
    log_eppf,
    normalized_predictive,
    predictive_weights,
)
from .sampler import run_chain

DEFAULT_SEED = 1729

_SUITES = ("derivatives", "pd", "rfree", "predsum", "partnorm", "predict",
           "coalescent", "hsolver", "vmoments", "gibbs")


def _add_model_args(p):
    p.add_argument("--model", choices=["stable", "gamma", "gengamma", "truncstable"],
                   help="built-in intensity family")
    p.add_argument("--alpha", type=float, help="stability index in (0,1)")
    p.add_argument("--theta", type=float, help="mass parameter of the gamma family")
    p.add_argument("--r", type=float, default=None, help="shape parameter r > 0")


def _build_model(args) -> LevyModel:
    if args.model is None:
        raise SystemExit("error: --model is required")
    if args.model == "stable":
        return LevyModel.stable(_require(args.alpha, "--alpha"))
    if args.model == "gamma":
        return LevyModel.gamma(_require(args.theta, "--theta"))
    if args.model == "gengamma":
        return LevyModel.generalized_gamma(_require(args.alpha, "--alpha"))
    return LevyModel.truncated_stable(_require(args.alpha, "--alpha"))


def _require(value, flag):
    if value is None:
        raise SystemExit(f"error: {flag} is required for this model")
    return value


def _build_params(args) -> ModelParamsR:
    return ModelParamsR(_build_model(args), _require(args.r, "--r"))


def _configs_from_args(args) -> List[Configuration]:
    if args.counts_file:
        with open(args.counts_file) as fh:
            return [Configuration.parse(line.strip())
                    for line in fh if line.strip()]
    if args.counts is None:
        raise SystemExit("error: provide --counts or --counts-file")
    return [Configuration.parse(args.counts)]


def _emit_table(rows, header, csv_mode, out=None):
    if out is None:
        out = sys.stdout
    if csv_mode:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(str(c) for c in row) + "\n")
        return
    cols = [header] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(header))]
    for r in cols:
        out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _cmd_eppf(args) -> int:
    params = _build_params(args)
    rows = []
    for config in _configs_from_args(args):
        lp = log_eppf(params, config)
        rows.append([str(config), f"{lp:.12g}", f"{math.exp(lp):.12g}"])
    _emit_table(rows, ["counts", "log_p", "p"], args.csv)
    return 0


def _cmd_predict(args) -> int:
    params = _build_params(args)
    rows = []
    for config in _configs_from_args(args):
        w = predictive_weights(params, config)
        probs = w.normalized(config)
        rows.append([str(config), "new", f"{math.exp(w.log_omega0):.12g}", f"{probs[0]:.12g}"])
        for i, (log_raw, pr) in enumerate(zip(w.log_omega, probs[1:]), start=1):
            rows.append([str(config), f"block{i}", f"{math.exp(log_raw):.12g}", f"{pr:.12g}"])
    _emit_table(rows, ["counts", "target", "raw_weight", "probability"], args.csv)
    return 0


def _open_out(args):
    if args.out:
        return open(args.out, "w")
    return sys.stdout


def _cmd_gibbs(args) -> int:
    params = _build_params(args)
    out = _open_out(args)
    try:
        for j in range(args.reps):
            rec = run_chain(params, args.n, args.seed + j, keep_v_trace=args.v_trace)
            out.write(rec.to_json() + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_coalescent(args) -> int:
    phi = RateFunction(RateKind.TOTAL_N if args.phi == "n" else RateKind.TOTAL_N_CHOOSE_2)
    configs = _configs_from_args(args)
    if args.solve_h:
        t_grid = [float(t) for t in args.t_grid.split(",")]
        rows = []
        for config in configs:
            vals = h_solver_exact(config, phi, t_grid=t_grid)
            for t, h in zip(t_grid, vals):
                rows.append([str(config), f"{t:g}", f"{h:.12g}"])
        _emit_table(rows, ["counts", "t", "H"], args.csv)
        return 0
    out = _open_out(args)
    try:
        for config in configs:
            for j in range(args.reps):
                hist = simulate_backward(config, phi, args.seed + j)
                out.write(history_to_json_lines(hist) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _default_models(args):
    if args.model is not None:
        r = args.r if args.r is not None else 2.0
        return [ModelParamsR(_build_model(args), r)]
    r = args.r if args.r is not None else 2.0
    return [
        ModelParamsR(LevyModel.stable(0.5), r),
        ModelParamsR(LevyModel.gamma(1.0), r),
        ModelParamsR(LevyModel.generalized_gamma(0.5), r),
        ModelParamsR(LevyModel.truncated_stable(0.5), r),
    ]


def _configs_up_to(n_max):
    out = []
    for n in range(1, n_max + 1):
        out.extend(m.to_configuration() for m in enumerate_afs(n))
    return out


def _suite_derivatives(args, add):
    # psi' = pi_1 and pi_n = -pi_{n-1}' by central differences of the log-v kernels.
    vgrid = [0.01, 0.1, 1.0, 10.0, 100.0]
    for params in _default_models(args):
        model = params.model

        def psi(v):
            return math.exp(log_psi_lv(model, math.log(v)))

        def pi(n, v):
            return math.exp(log_pi_n_lv(model, n, math.log(v)))

        worst = 0.0
        for v in vgrid:
            h = 1e-5 * v
            d_psi = (psi(v + h) - psi(v - h)) / (2 * h)
            pi1 = pi(1, v)
            worst = max(worst, abs(pi1 - d_psi) / pi1)
            for n in range(2, min(args.n_max, 10) + 1):
                d_prev = (pi(n - 1, v + h) - pi(n - 1, v - h)) / (2 * h)
                pin = pi(n, v)
                worst = max(worst, abs(pin + d_prev) / pin)
        add("derivatives", model.describe(), worst, worst < 1e-5)


def _suite_pd(args, add):
    for alpha in (0.3, 0.7):
        for theta in (1.0, 2.0):
            params = ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)
            worst = 0.0
            for config in _configs_up_to(min(args.n_max, 8)):
                got = log_eppf(params, config)
                want = reference.pd_log_eppf(alpha, theta, config.counts)
                worst = max(worst, abs(got - want))
            add("pd", f"alpha={alpha} theta={theta}", worst, worst < 1e-6)


def _suite_rfree(args, add):
    alpha = 0.6
    rs = (0.2, 1.0, 5.0, 25.0)
    worst_pair = 0.0
    worst_pd = 0.0
    for config in _configs_up_to(min(args.n_max, 8)):
        vals = [log_eppf(ModelParamsR(LevyModel.stable(alpha), r), config) for r in rs]
        worst_pair = max(worst_pair, max(vals) - min(vals))
        want = reference.pd_log_eppf(alpha, 0.0, config.counts)
        worst_pd = max(worst_pd, max(abs(v - want) for v in vals))
    add("rfree", "r-pairs", worst_pair, worst_pair < 1e-8)
    add("rfree", "pd(alpha,0)", worst_pd, worst_pd < 1e-6)


def _suite_predsum(args, add):
    cases = [
        (ModelParamsR(LevyModel.stable(0.3), 1.7), Configuration((4, 2, 1))),
        (ModelParamsR(LevyModel.gamma(2.5), 0.8), Configuration((5,))),
        (ModelParamsR(LevyModel.truncated_stable(0.6), 3.0), Configuration((2, 2, 1, 1))),
        (ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0), Configuration((3, 1))),
    ]
    for params, config in cases:
        res = check_prediction_sum(params, config)
        add("predsum", f"{params.model.describe()} {config}", res, res < 1e-6)


def _suite_partnorm(args, add):
    for params in _default_models(args):
        worst = 0.0
        for n in range(1, min(args.n_max, 7) + 1):
            worst = max(worst, check_partition_normalization(params, n))
        add("partnorm", params.model.describe(), worst, worst < 1e-6)


def _suite_predict(args, add):
    for alpha, theta in ((0.3, 1.0), (0.5, 1.0), (0.7, 2.0)):
        params = ModelParamsR(LevyModel.generalized_gamma(alpha), theta / alpha)
        worst = 0.0
        for config in _configs_up_to(min(args.n_max, 5)):
            got = normalized_predictive(params, config)
            want = reference.pd_predictive(alpha, theta, config.counts)
            worst = max(worst, np.abs(got - want).max())
        add("predict", f"alpha={alpha} theta={theta}", worst, worst < 1e-6)


def _suite_coalescent(args, add):
    for params in _default_models(args):
        worst = 0.0
        for config in _configs_up_to(min(args.n_max, 5)):
            if config.n < 2:
                continue
            _, total = backward_event_probabilities(params, config)
            p = math.exp(log_eppf(params, config))
            worst = max(worst, abs(total - p) / p)
        add("coalescent", f"sum={params.model.describe()}", worst, worst < 1e-5)
    params = ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)
    config = Configuration((3, 1))
    r0 = ratio_integrals(params, config, 0)
    r1 = ratio_integrals(params, config, 1)
    add("coalescent", "pd-ratio-coalesce", abs(r0 - 0.28125), abs(r0 - 0.28125) < 1e-6)
    add("coalescent", "pd-ratio-singleton", abs(r1 - 0.09375), abs(r1 - 0.09375) < 1e-6)


def _suite_hsolver(args, add):
    phi = RateFunction(RateKind.TOTAL_N)
    vals = h_solver_exact(Configuration((3, 2, 1)), phi, h0=lambda c: 1.0,
                          t_grid=[0.0, 0.5, 1.0, 2.0])
    dev = float(np.abs(vals - 1.0).max())
    add("hsolver", "constant-preservation", dev, dev < 1e-9)


def _suite_vmoments(args, add):
    from .posterior import log_v_moment
    from .sampler import sample_v
    rng = np.random.default_rng(args.seed)
    # The auxiliary-variable moment E[V^m] is finite only when the psi tail
    # grows fast enough (alpha * r > m for the power-tail models; never for
    # the logarithmic gamma family).  The V tail index is alpha * r, so keep
    # it well above 4 for a stable standard error on the second moment.
    params = ModelParamsR(LevyModel.generalized_gamma(0.7), 10.0)
    config = Configuration((2, 1))
    lz = log_eppf(params, config)
    lm1 = log_v_moment(params, config, 1.0)
    lm2 = log_v_moment(params, config, 2.0)
    mean = math.exp(lm1 - lz)
    second = math.exp(lm2 - lz)
    draws = np.array([sample_v(params, config, rng) for _ in range(args.reps)])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    z1 = abs(draws.mean() - mean) / se
    se2 = (draws ** 2).std(ddof=1) / math.sqrt(len(draws))
    z2 = abs((draws ** 2).mean() - second) / se2
    add("vmoments", "mean", z1, z1 < 3.0)
    add("vmoments", "second-moment", z2, z2 < 3.0)


def _suite_gibbs(args, add):
    from scipy.stats import chisquare
    from .partitions import log_partition_coefficient
    n = min(args.n_max, 4)
    for params in _default_models(args):
        classes = enumerate_afs(n)
        probs = np.array([
            math.exp(log_partition_coefficient(m)
                     + log_eppf(params, m.to_configuration()))
            for m in classes])
        probs /= probs.sum()
        index = {m.m: j for j, m in enumerate(classes)}
        counts = np.zeros(len(classes))
        for j in range(args.reps):
            rec = run_chain(params, n, args.seed + j)
            counts[index[rec.afs.m]] += 1
        stat, pval = chisquare(counts, probs * args.reps)
        add("gibbs", params.model.describe(), pval, pval > 0.001)


_SUITE_FUNCS = {
    "derivatives": _suite_derivatives,
    "pd": _suite_pd,
    "rfree": _suite_rfree,
    "predsum": _suite_predsum,
    "partnorm": _suite_partnorm,
    "predict": _suite_predict,
    "coalescent": _suite_coalescent,
    "hsolver": _suite_hsolver,
    "vmoments": _suite_vmoments,
    "gibbs": _suite_gibbs,
}


def _cmd_validate(args) -> int:
    suites = args.suite or list(_SUITES)
    rows = []
    all_ok = True

    def add(suite, label, value, ok):
        nonlocal all_ok
        all_ok = all_ok and ok
        rows.append([suite, label, f"{value:.3g}", "PASS" if ok else "FAIL"])

    for name in suites:
        start = time.perf_counter()
        _SUITE_FUNCS[name](args, add)
        print(f"suite {name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    _emit_table(rows, ["suite", "check", "value", "status"], args.csv)
    return 0 if all_ok else 1


def _show_config():
    print("quadrature.rule           =", _RULE_NAME)
    print("quadrature.initial_panels =", _INITIAL_PANELS)
    print("quadrature.rel_tol        =", _DEFAULT_SPEC.rel_tol)
    print("quadrature.max_subdiv     =", _DEFAULT_SPEC.max_subdivisions)
    print("default.seed              =", DEFAULT_SEED)
    print("default.phi               =", RateFunction().kind.value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbpk",
        description="Partition models on negative binomial processes: "
                    "EPPF, prediction, urn sampling, backward recursions.")
    parser.add_argument("--show-config", action="store_true",
                        help="print default tolerances and seeds, then exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("eppf", help="print log p(n) and p(n)")
    _add_model_args(p)
    p.add_argument("--counts", help="comma-separated block sizes, e.g. 3,2,1")
    p.add_argument("--counts-file", help="file with one configuration per line")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_eppf)

    p = sub.add_parser("predict", help="print raw and normalized prediction weights")
    _add_model_args(p)
    p.add_argument("--counts")
    p.add_argument("--counts-file")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gibbs", help="stream sampled partitions as JSON lines")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True, help="observations per chain")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--v-trace", action="store_true", help="include the auxiliary draws")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_gibbs)

    p = sub.add_parser("coalescent", help="simulate backward histories or solve H")
    p.add_argument("--counts")
    p.add_argument("--counts-file")
    p.add_argument("--phi", choices=["n", "n2"], default="n",
                   help="total rate: sample size (n) or n(n-1)/2 (n2)")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--solve-h", action="store_true",
                   help="solve the backward linear system instead of simulating")
    p.add_argument("--t-grid", default="0,0.5,1",
                   help="comma-separated times for --solve-h")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_coalescent)

    p = sub.add_parser("validate", help="run identity suites; exit 0 iff all pass")
    _add_model_args(p)
    p.add_argument("--suite", action="append", choices=list(_SUITES),
                   help="suite to run (repeatable; default: all)")
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--reps", type=int, default=20000,
                   help="replications for the sampling suites")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.show_config:
        _show_config()
        return 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Input the parser accepted but the model rejects, or a file that cannot
        # be opened, reported as argparse would.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
