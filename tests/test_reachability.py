"""Every definition in `src/lculab` is reached from a program entry point: the
console script `cli.main`, `scripts/*.py` or the benchmark's
`bench/{ops,inputs,run}.py`. API that only tests use belongs in
`tests/oracles.py`.

Definitions are the top-level functions, classes and assignments, and the
methods, properties and class-level attributes (dataclass fields among them)
of each class. A dunder method is reached with its class. The scan follows
names, attribute names and keyword-argument names through the ASTs, so a
field set by a constructor keyword counts as read, and it matches them by
identifier alone, so it errs towards calling a definition reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_FILES = sorted((ROOT / "scripts").glob("*.py")) + [
    ROOT / "bench" / f"{name}.py" for name in ("ops", "inputs", "run")
]


def _names(node: ast.AST) -> set[str]:
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.keyword) and n.arg:
            names.add(n.arg)
    return names


def _targets(stmt: ast.stmt) -> set[str]:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return set().union(*(_names(t) for t in targets))


def _definitions(prefix: str, body: list[ast.stmt], defs: dict, pending: set) -> None:
    """Record each definition of a module or class body under "prefix.name", with
    the nodes whose names it reads once reached; collect what runs on import."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            members = [s for s in stmt.body if isinstance(s, (ast.FunctionDef, ast.ClassDef,
                                                              ast.Assign, ast.AnnAssign))]
            header += [s for s in stmt.body if s not in members]
            for s in members:  # dunder methods run with their class
                if isinstance(s, ast.FunctionDef) and s.name.startswith("__"):
                    header.append(s)
            defs.setdefault(f"{prefix}.{stmt.name}", []).extend(header)
            _definitions(f"{prefix}.{stmt.name}", [s for s in members if s not in header],
                         defs, pending)
        elif isinstance(stmt, ast.FunctionDef):
            defs.setdefault(f"{prefix}.{stmt.name}", []).append(stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for name in _targets(stmt):
                defs.setdefault(f"{prefix}.{name}", []).append(stmt)
        elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pending |= _names(stmt)  # runs at import time


def test_every_package_definition_is_reached():
    defs: dict[str, list[ast.AST]] = {}  # "module.name" or "module.Class.name" -> nodes
    pending = {"main"}
    for path in sorted((ROOT / "src" / "lculab").glob("*.py")):
        if path.stem == "__init__":  # re-exports only
            continue
        _definitions(path.stem, ast.parse(path.read_text(encoding="utf-8")).body, defs, pending)
    for path in ENTRY_FILES:
        pending |= _names(ast.parse(path.read_text(encoding="utf-8")))
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        for key in [k for k in defs if k.rpartition(".")[2] == name and k not in reached]:
            reached.add(key)
            for node in defs[key]:
                pending |= _names(node)
    assert sorted(set(defs) - reached) == []
