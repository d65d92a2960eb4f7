"""Command-line front end.

Subcommands: ``eppf`` (partition probability), ``predict`` (raw and normalized
prediction weights), ``gibbs`` (stream sampled partitions as JSON lines),
``coalescent`` (stream backward histories or solve the H system) and
``validate`` (run the identity suites and print a pass/fail table).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from typing import List, Optional

import numpy as np

from . import checks
from .coalescent import (_LATTICE_LIMIT, RateFunction, RateKind, _lattice, _level_law,
                         h_solver_exact, history_to_json_lines, simulate_backward)
from .levy_models import LevyModel, ModelParamsR, _pi_coefficients, _shape_constants
from .numerics import (_INITIAL_PANELS, _MAX_SUBDIVISIONS, _MESH_T, _REL_TOL, _RULE_NAME,
                       QuadratureError, _panel_map)
from .partitions import _ENUM_LIMIT, Configuration
from .posterior import _log_v, _mesh_features, log_eppf, predictive_weights
from .sampler import _urn, _v_sampler, run_chain

DEFAULT_SEED = 1729


def _add_model_args(p):
    p.add_argument("--model", choices=["stable", "gamma", "gengamma", "truncstable"],
                   help="built-in intensity family")
    p.add_argument("--alpha", type=float, help="stability index in (0,1)")
    p.add_argument("--theta", type=float, help="mass parameter of the gamma family")
    p.add_argument("--r", type=float, default=None, help="shape parameter r > 0")


def _build_model(args) -> LevyModel:
    if args.model is None:
        raise ValueError("--model is required")
    if args.model == "stable":
        return LevyModel.stable(_require(args.alpha, "--alpha"))
    if args.model == "gamma":
        return LevyModel.gamma(_require(args.theta, "--theta"))
    if args.model == "gengamma":
        return LevyModel.generalized_gamma(_require(args.alpha, "--alpha"))
    return LevyModel.truncated_stable(_require(args.alpha, "--alpha"))


def _require(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this model")
    return value


def _build_params(args) -> ModelParamsR:
    return ModelParamsR(_build_model(args), _require(args.r, "--r"))


def _configs_from_args(args) -> List[Configuration]:
    if args.counts_file:
        with open(args.counts_file) as fh:
            return [Configuration.parse(line.strip())
                    for line in fh if line.strip()]
    if args.counts is None:
        raise ValueError("provide --counts or --counts-file")
    return [Configuration.parse(args.counts)]


def _emit_table(rows, header, csv_mode, out=None):
    if out is None:
        out = sys.stdout
    if csv_mode:  # quoted where a field holds a comma, as a configuration's counts do
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
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
    return open(args.out, "w") if args.out else sys.stdout


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
    r = args.r if args.r is not None else 2.0
    if args.model is not None:
        return [ModelParamsR(_build_model(args), r)]
    models = (LevyModel.stable(0.5), LevyModel.gamma(1.0), LevyModel.generalized_gamma(0.5),
              LevyModel.truncated_stable(0.5))
    return [ModelParamsR(model, r) for model in models]


# Each suite runs one acceptance check on a grid read from the flags.
_SUITES = {
    "derivatives": lambda a: checks.derivative_identities(_default_models(a), min(a.n_max, 10)),
    "pd": lambda a: checks.pd_eppf(((0.3, 1.0), (0.3, 2.0), (0.7, 1.0), (0.7, 2.0)),
                                   checks.configs_up_to(min(a.n_max, 8))),
    "rfree": lambda a: checks.r_independence(checks.configs_up_to(min(a.n_max, 8))),
    "predsum": lambda a: checks.prediction_sum([
        (ModelParamsR(LevyModel.stable(0.3), 1.7), Configuration((4, 2, 1))),
        (ModelParamsR(LevyModel.gamma(2.5), 0.8), Configuration((5,))),
        (ModelParamsR(LevyModel.truncated_stable(0.6), 3.0), Configuration((2, 2, 1, 1))),
        (ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0), Configuration((3, 1))),
    ]),
    "partnorm": lambda a: checks.partition_normalization(_default_models(a), min(a.n_max, 7)),
    "predict": lambda a: checks.pd_predictive(((0.3, 1.0), (0.5, 1.0), (0.7, 2.0)),
                                              checks.configs_up_to(min(a.n_max, 5))),
    "coalescent": lambda a: checks.backward_recursion(
        _default_models(a), checks.configs_up_to(min(a.n_max, 5), n_min=2)),
    "hsolver": lambda a: checks.h_solver(Configuration((3, 2, 1)), (0.0, 0.5, 1.0, 2.0),
                                         a.reps, a.seed),
    "vmoments": lambda a: checks.v_moments([Configuration((2, 1))], a.reps,
                                           np.random.default_rng(a.seed)),
    "gibbs": lambda a: checks.urn_exactness(_default_models(a), min(a.n_max, 4), a.reps, a.seed),
}


def _cmd_validate(args) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    rows = []
    all_ok = True
    for name in args.suite or _SUITES:
        start = time.perf_counter()
        for label, value, ok in _SUITES[name](args):
            all_ok = all_ok and ok
            rows.append([name, label, f"{value:.3g}", "PASS" if ok else "FAIL"])
        print(f"suite {name}: {time.perf_counter() - start:.3f} s", file=sys.stderr)
    for name, cache, unit in (("mesh feature", _mesh_features, "matrices"),
                              ("log V_{n,k}", _log_v, "classes"),
                              ("urn class", _urn, "classes"), ("V sampler", _v_sampler, "samplers"),
                              ("lattice", _lattice, "lattices"), ("level law", _level_law, "laws"),
                              ("pi coefficient", _pi_coefficients, "size sets"),
                              ("shape constant", _shape_constants, "shape sets"),
                              ("panel map", _panel_map, "panels")):
        hits, misses, _, size = cache.cache_info()
        print(f"{name} cache: {hits} hits, {misses} misses, {size} {unit}", file=sys.stderr)
    _emit_table(rows, ["suite", "check", "value", "status"], args.csv)
    return 0 if all_ok else 1


def _show_config():
    print("quadrature.rule           =", _RULE_NAME)
    print("quadrature.initial_panels =", _INITIAL_PANELS)
    print("quadrature.initial_points =", _MESH_T.size)
    print("quadrature.rel_tol        =", _REL_TOL)
    print("quadrature.max_subdiv     =", _MAX_SUBDIVISIONS)
    print("default.seed              =", DEFAULT_SEED)
    print("default.phi               =", RateFunction().kind.value)
    print("coalescent.lattice_limit  =", _LATTICE_LIMIT)
    print("coalescent.h0_limit       =", _ENUM_LIMIT)


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
        if getattr(args, "reps", 1) < 1:
            raise ValueError("--reps must be at least 1")
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
