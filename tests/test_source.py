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


def _assigned_fields(tree) -> set[tuple[str, str]]:
    """(class, name) of every dataclass field and ``self.`` attribute assigned."""
    fields = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        if any("dataclass" in ast.unparse(decorator) for decorator in cls.decorator_list):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.add((cls.name, stmt.target.id))
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    fields.add((cls.name, node.attr))
    return fields


def test_every_assigned_field_has_a_reader():
    # No field exists that nothing reads: each one is loaded as an attribute
    # of that name somewhere in the package, its tests or the benchmark.
    read = set()
    for root in (SRC, Path(__file__).parent, SRC.parents[1] / "perfbench"):
        for path in root.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    unread = sorted(
        f"{path.name}:{cls}.{name}"
        for path in SRC.glob("*.py")
        for cls, name in _assigned_fields(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    )
    assert unread == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_underscore_name():
    # A leading underscore keeps a name inside its module: no other module
    # imports it or reads it as an attribute of the module.
    modules = {path.stem for path in SRC.glob("*.py")}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name -> topokit module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.module is not None and _private(alias.name):
                        reads.append(f"{path.name}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases and _private(node.attr):
                    reads.append(f"{path.name}: {aliases[node.value.id]}.{node.attr}")
    assert reads == []
