"""Every top-level definition in `src/lculab` is reached from a program entry
point: the console script `cli.main`, `scripts/*.py` or the benchmark's
`bench/{ops,inputs,run}.py`. API that only tests use belongs in
`tests/oracles.py`.

The scan follows names and attribute names through the ASTs and matches them
by identifier alone, so it errs towards calling a definition reached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENTRY_FILES = sorted((ROOT / "scripts").glob("*.py")) + [
    ROOT / "bench" / f"{name}.py" for name in ("ops", "inputs", "run")
]


def _names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_package_definition_is_reached():
    defs: dict[str, list[ast.stmt]] = {}  # "module.name" -> defining statements
    pending = {"main"}
    for path in sorted((ROOT / "src" / "lculab").glob("*.py")):
        if path.stem == "__init__":  # re-exports only
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(f"{path.stem}.{stmt.name}", []).append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    for name in _names(target):
                        defs.setdefault(f"{path.stem}.{name}", []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                pending |= _names(stmt)  # runs at import time
    for path in ENTRY_FILES:
        pending |= _names(ast.parse(path.read_text(encoding="utf-8")))
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        for key in [k for k in defs if k.rpartition(".")[2] == name and k not in reached]:
            reached.add(key)
            for stmt in defs[key]:
                pending |= _names(stmt)
    assert sorted(set(defs) - reached) == []
