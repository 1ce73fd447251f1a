"""Checks on the package source itself."""

import ast
from pathlib import Path

import topokit

SRC = Path(topokit.__file__).parent

#: Top-level names kept without a caller in the package: the direct LU
#: entry point stays as the oracle that faster solvers are gated against.
UNCALLED = {"assemble_and_solve"}


def _defined(stmt) -> set[str]:
    """Functions, classes and upper-case constants a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}


def _referenced(stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_top_level_name_has_a_caller():
    # Nothing is exported without a caller: a reference inside the name's
    # own definition does not count.
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            defined.update(dict.fromkeys(own, path.name))
            referenced |= _referenced(stmt) - own
    uncalled = sorted(f"{module}:{name}" for name, module in defined.items() if name not in referenced)
    assert uncalled == sorted(f"{defined[name]}:{name}" for name in UNCALLED)
