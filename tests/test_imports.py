"""Every import in the package modules is used, and imported once."""

import ast
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
