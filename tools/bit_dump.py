"""Hash the package's outputs, one sha256 per group, to show a change keeps every bit.

    python3 tools/bit_dump.py                # this checkout's hashes
    python3 tools/bit_dump.py --parent HEAD  # this checkout against a revision

The script dumps the ``nbpk`` of the checkout it sits in (its ``src``), with
every package cache cleared before each group.  The groups:

* ``table.hsolve``: the benchmark's ``table`` H-solve (phi = n, h0 = 1) for every
  configuration with 2 <= n <= 6;
* ``table.stable``, ``table.gamma``, ``table.gengamma`` and ``table.truncstable``: the
  ``table`` op outputs (``log_eppf``, ``normalized_predictive`` and
  ``backward_event_probabilities``) of the same configurations under each benchmark
  model, one group per model, so a change to one family's route shows which others
  keep every bit;
* ``vsampler``: ``_t``, ``_cdf`` and ``_slope`` of every V sampler that 100
  chains per model at n = 4, then 20 chains per Gibbs-type model at n = 50,
  build, in the order they are built;
* ``chains``: the final counts of ``run_chain`` for 2000 seeds per model at n = 4;
* ``eppf``: ``log_eppf`` of four configurations under stable(0.1) r=1.5,
  gamma(0.3) r=0.5 and truncstable(0.5) r=1.5;
* ``moment``: one convergent ``log_v_moment``.

With ``--parent REV`` the revision's committed files are unpacked into a
temporary directory (``bench_pairs.unpack``), this script runs once in each
checkout, and the exit status is 1 if any group's hash differs.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

# Chain and configuration counts per group; REDUCED is a quick run of the same code.
FULL = {"table_n": 6, "warm_chains": 100, "large_n": 50, "large_chains": 20, "seeds": 2000}
REDUCED = {"table_n": 4, "warm_chains": 10, "large_n": 12, "large_chains": 2, "seeds": 100}


def _feed(h, value):
    """Add a value's exact bits to the hash: arrays by their bytes, the rest by repr."""
    if isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode() + value.tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    else:  # repr round-trips a float exactly
        h.update(repr(value).encode())


def _clear_caches(nbpk):
    for module in (nbpk.levy_models, nbpk.numerics, nbpk.posterior, nbpk.sampler,
                   nbpk.coalescent, nbpk.partitions):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def dump(sizes=FULL) -> dict:
    """{group: sha256 hex} for this checkout's package."""
    import nbpk
    from nbpk import Configuration, LevyModel, ModelParamsR, RateFunction, RateKind

    names = ("stable", "gamma", "gengamma", "truncstable")
    models = [ModelParamsR(LevyModel.stable(0.5), 1.5), ModelParamsR(LevyModel.gamma(1.0), 2.0),
              ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0),
              ModelParamsR(LevyModel.truncated_stable(0.5), 1.5)]
    groups = {}

    def group(name, outputs):
        h = hashlib.sha256()
        _clear_caches(nbpk)
        for value in outputs():
            _feed(h, value)
        groups[name] = h.hexdigest()

    def table_configs():
        for n in range(2, sizes["table_n"] + 1):
            for m in nbpk.enumerate_afs(n):
                yield m.to_configuration()

    def hsolve():
        phi = RateFunction(RateKind.TOTAL_N)
        for config in table_configs():
            yield nbpk.h_solver_exact(config, phi, h0=lambda c: 1.0, t_grid=(0.0, 0.5, 1.0, 2.0))

    def table(params):
        for config in table_configs():
            yield (nbpk.log_eppf(params, config), nbpk.normalized_predictive(params, config),
                   nbpk.backward_event_probabilities(params, config))

    def vsampler():
        built = []
        cls = nbpk.numerics.LogDensityGridSampler
        init = cls.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        cls.__init__ = recording
        try:
            for params in models:
                for seed in range(sizes["warm_chains"]):
                    nbpk.run_chain(params, 4, seed)
            for params in models[:3]:  # the Gibbs-type families
                for seed in range(sizes["large_chains"]):
                    nbpk.run_chain(params, sizes["large_n"], seed)
        finally:
            cls.__init__ = init
        for s in built:
            yield s._t, s._cdf, s._slope

    def chains():
        for params in models:
            for seed in range(sizes["seeds"]):
                yield nbpk.run_chain(params, 4, seed).final_config.counts

    def eppf():
        for params in (ModelParamsR(LevyModel.stable(0.1), 1.5),
                       ModelParamsR(LevyModel.gamma(0.3), 0.5),
                       ModelParamsR(LevyModel.truncated_stable(0.5), 1.5)):
            for counts in ((1,), (2, 1), (3, 2, 1), (5, 3, 2, 1, 1)):
                yield nbpk.log_eppf(params, Configuration(counts))

    def moment():
        yield nbpk.log_v_moment(models[0], Configuration((3, 2, 1)), -0.5)

    group("table.hsolve", hsolve)
    for name, params in zip(names, models):
        group(f"table.{name}", lambda params=params: table(params))
    for name, outputs in (("vsampler", vsampler), ("chains", chains), ("eppf", eppf),
                          ("moment", moment)):
        group(name, outputs)
    return groups


def _run(checkout: Path) -> dict:
    """The hashes of a checkout, from this script run there in a fresh process."""
    out = subprocess.run([sys.executable, str(checkout / "tools" / "bit_dump.py")],
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="git revision to compare against, group by group")
    args = parser.parse_args(argv)
    if args.parent is None:
        sys.path.insert(0, str(ROOT / "src"))
        for name, digest in dump().items():
            print(name, digest)
        return 0

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import unpack

    with tempfile.TemporaryDirectory(prefix="bit-dump-parent-") as tmp:
        parent = Path(tmp)
        commit = unpack(args.parent, parent)
        (parent / "tools").mkdir(exist_ok=True)
        shutil.copy(Path(__file__), parent / "tools" / "bit_dump.py")
        sides = {"parent": _run(parent), "change": _run(ROOT)}
    differ = [name for name, digest in sides["change"].items()
              if sides["parent"].get(name) != digest]
    for name, digest in sides["change"].items():
        print(f"{name} {digest} " + ("DIFFERS from" if name in differ else "equal to")
              + f" {commit[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
