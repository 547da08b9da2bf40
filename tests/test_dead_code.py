"""Every top-level function and class in src/ is reached from src/ or scripts/.

A name counts as used when some ``Name`` or ``Attribute`` node outside its own
definition mentions it; imports alone do not count. Code that only tests call
belongs in tests/, apart from the oracles listed below. src/ also has no
``assert`` statement: ``python -O`` drops them, so an invariant is a raise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "battfault"

# Kept in src/ although only tests call them: the acceptance criteria check
# the pipeline against these.
ALLOWED = {
    "msm_loss",          # Eq. (5) loss oracle, criterion 2
    "trapezoid_auroc",   # dual AUROC oracle
    "merge_fleets",      # cross-fleet t-SNE mixing criterion
    "msm_grad_check",    # finite-difference gradient gate, criterion 1
    "load_gbdt",         # reads back the classifier `battfault detect` writes
}


def _used_names(path: Path):
    """(name, owner) pairs; owner is the top-level definition the use sits in."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for stmt in tree.body:
        owner = (path, stmt.name) if isinstance(
            stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_no_top_level_definition_is_only_test_reachable():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    uses = {}
    for path in sources:
        for name, owner in _used_names(path):
            uses.setdefault(name, set()).add(owner)

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name in ALLOWED:
                continue
            if uses.get(stmt.name, set()) - {(path, stmt.name)}:
                continue
            unused.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    assert not unused, "defined in src/ but never used there or in scripts/: " + ", ".join(unused)


def test_no_assert_statement_in_src():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/: " + ", ".join(found)
