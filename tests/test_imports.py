"""Package imports: each used and imported once, the checks import only public names, and
scipy.special loads only for the truncated stable."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nbpk"


def _import_problems(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, []).append(node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    problems = [f"{path.name}:{lines[0]}: {name} is imported but never used"
                for name, lines in imported.items() if name not in used]
    problems += [f"{path.name}:{lines[1]}: {name} is imported again"
                 for name, lines in imported.items() if len(lines) > 1]
    return problems


def test_no_unused_or_repeated_imports():
    # __init__.py is skipped: its imports are the public re-exports.
    problems = [p for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                for p in _import_problems(path)]
    assert not problems, "\n".join(problems)


def test_checks_import_only_the_public_api():
    # The acceptance checks must not reach the internals they are meant to test:
    # every package name they import is in its module's __all__, or is reference.
    tree = ast.parse((SRC / "checks.py").read_text())
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            problems += [a.name for a in node.names if a.name.split(".")[0] == "nbpk"]
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module or ""
        elif node.module.split(".")[0] == "nbpk":
            module = node.module.partition(".")[2]
        else:
            continue  # numpy, scipy
        if not module:  # from . import x
            problems += [a.name for a in node.names if a.name != "reference"]
        elif module != "reference":
            public = importlib.import_module(f"nbpk.{module}").__all__
            problems += [f"{module}.{a.name}" for a in node.names if a.name not in public]
    assert not problems, problems


def _definitions_and_references(path):
    """The module-level functions and classes of a file, and every name it reads outside them."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = [node for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    read = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            read.append((node.attr, node.lineno))
    return defined, read


def test_every_package_function_and_class_has_a_caller():
    # Code that only the tests reach is not part of the package.  reference.py is the
    # oracle the tests and the benchmark read, so it is the one module exempt.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = {path.name: _definitions_and_references(path) for path in sorted(SRC.glob("*.py"))}
    problems = []
    for name, (defined, _) in modules.items():
        if name == "reference.py":
            continue
        for node in defined:
            own = range(node.lineno, node.end_lineno + 1)
            if node.name not in exported and not any(
                    ref == node.name and not (other == name and line in own)
                    for other, (_, read) in modules.items() for ref, line in read):
                problems.append(f"{name}:{node.lineno}: {node.name} has no caller in the package")
    assert not problems, "\n".join(problems)


def _fresh(code):
    """Run `code` in a fresh interpreter on this checkout's package; its stdout lines."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}
                          ).stdout.split()


_MODELS = """
import sys
import numpy as np
from nbpk import (Configuration, LevyModel, ModelParamsR, RateFunction, RateKind,
                  backward_event_probabilities, h_solver_exact, log_eppf, normalized_predictive,
                  run_chain, sample_jump_given_v)
config = Configuration((3, 2, 1))
truncstable = ModelParamsR(LevyModel.truncated_stable(0.5), 1.5)
"""


def test_only_the_truncated_stable_loads_scipy_special():
    # The Gibbs-type families' table rows and chains, and every H-solve, run on numpy alone.
    code = _MODELS + """
for params in (ModelParamsR(LevyModel.stable(0.5), 1.5), ModelParamsR(LevyModel.gamma(1.0), 2.0),
               ModelParamsR(LevyModel.generalized_gamma(0.5), 2.0)):
    log_eppf(params, config), normalized_predictive(params, config)
    backward_event_probabilities(params, config), run_chain(params, 5, 1)
for kind in (RateKind.TOTAL_N, RateKind.TOTAL_N_CHOOSE_2):
    for h0 in (None, lambda c: float(c.k)):
        h_solver_exact(config, RateFunction(kind), h0=h0, t_grid=(0.5, 1.0))
print(any(m.startswith("scipy") for m in sys.modules))
log_eppf(truncstable, config)
print("scipy.special" in sys.modules)
"""
    assert _fresh(code) == ["False", "True"]


def test_a_jump_draw_can_be_the_first_truncated_stable_call():
    code = _MODELS + """
print("scipy.special" in sys.modules)
s = sample_jump_given_v(truncstable, 2, 0.7, np.random.default_rng(3))
print(0.0 < s <= 1.0, "scipy.special" in sys.modules)
"""
    assert _fresh(code) == ["False", "True", "True"]
