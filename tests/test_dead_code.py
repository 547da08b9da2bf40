"""Every function, class, method and property in src/ is reached from src/ or scripts/.

A top-level name counts as used when some ``Name`` or ``Attribute`` node
outside its own definition mentions it; a method or property, when some
``Attribute`` node outside its own definition does. Imports alone do not
count, and neither do dunder methods, which Python calls itself. Code that
only tests call belongs in tests/, apart from the oracles listed below; each
entry of that list must still be defined in src/ and be used by tests alone.
src/ also has no ``assert`` statement: ``python -O`` drops them, so an
invariant is a raise.

Every defaulted parameter of a src/ function is set by some call in src/ or
scripts/, positionally or by keyword: a default that no caller overrides is
a constant, apart from the parameters listed below. A call counts for every
function of its name, a recursive one too, and a class call for the class's
``__init__``.

The check goes by name, not by type: a method is taken as used when any
attribute of its name is read, so ``ModelParams.copy`` would have hidden
behind ``ndarray.copy``.
"""

import ast
from collections import Counter
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
    "GradCheckReport.ok",             # its verdict
    "GradCheckReport.max_rel_error",  # and its worst entry
    "ModelConfig.full_scale",  # the paper's ~110M-parameter encoder, criterion 11
}

# Defaulted parameters that only tests, the benchmark harness or the command
# line set.
TEST_SET_DEFAULTS = {
    "synth_fleet(id_prefix)",  # test_08 merges two fleets, whose vehicle ids must differ
    "main(argv)",             # tests and the benchmark harness pass argv; the shell, sys.argv
}


def _definitions(tree):
    """(qualified name, node, is_method) of each top-level function and class and
    of each method or property of a top-level class."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield stmt.name, stmt, False
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{stmt.name}.{item.name}", item, True


def _uses(*nodes):
    """Counters of the Name ids and the Attribute names read anywhere under the nodes."""
    names, attrs = Counter(), Counter()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _trees(*dirs):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for d in dirs for p in sorted(d.glob("*.py"))}


def _src_reach():
    """{qualified name: ("file:line", is_method, reads from src/ and scripts/ outside it)}."""
    names, attrs = _uses(*_trees(PACKAGE, ROOT / "scripts").values())
    reach = {}
    for path, tree in _trees(PACKAGE).items():
        for qualname, node, is_method in _definitions(tree):
            own_names, own_attrs = _uses(node)
            outside = attrs[node.name] - own_attrs[node.name]
            if not is_method:
                outside += names[node.name] - own_names[node.name]
            reach[qualname] = (f"{path.name}:{node.lineno}", is_method, outside)
    return reach


def _defaulted_params(tree):
    """(qualified name, node, parameter names with a default) of every function under
    tree; a method's name is Class.method, a nested function's outer.inner."""
    def visit(body, prefix, in_class):
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args.posonlyargs + stmt.args.args
                named = [a.arg for a in args[len(args) - len(stmt.args.defaults):]]
                named += [a.arg for a, d in zip(stmt.args.kwonlyargs, stmt.args.kw_defaults) if d]
                yield prefix + stmt.name, stmt, named, in_class
                yield from visit(stmt.body, f"{prefix}{stmt.name}.", False)
            elif isinstance(stmt, ast.ClassDef):
                yield from visit(stmt.body, f"{prefix}{stmt.name}.", True)
    yield from visit(tree.body, "", False)


def _set_params(node, calls):
    """Parameters of the function ``node`` that some call in ``calls`` passes."""
    args = node.args.posonlyargs + node.args.args
    params = [a.arg for a in args]
    if params[:1] in (["self"], ["cls"]):
        params = params[1:]
    passed = set()
    for call in calls:
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords):
            return set(params) | {a.arg for a in node.args.kwonlyargs}
        passed.update(params[:len(call.args)])
        passed.update(k.arg for k in call.keywords)
    return passed


def _calls_by_name(*nodes):
    """{called name: [ast.Call]} of the calls under the nodes, by Name id or Attribute name."""
    calls = {}
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.Call):
            f = sub.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(sub)
    return calls


def _unset_defaults():
    """{"qualname(param)": "file:line"} of each defaulted parameter that no call in
    src/ or scripts/ sets."""
    calls = _calls_by_name(*_trees(PACKAGE, ROOT / "scripts").values())
    unset = {}
    for path, tree in _trees(PACKAGE).items():
        for qualname, node, named, in_class in _defaulted_params(tree):
            # a class is called by its own name, and the call runs its __init__
            is_init = in_class and node.name == "__init__"
            owner = qualname.rsplit(".", 2)[-2] if is_init else node.name
            passed = _set_params(node, calls.get(owner, []))
            shown = owner if is_init else qualname
            unset.update({f"{shown}({p})": f"{path.name}:{node.lineno}"
                          for p in named if p not in passed})
    return unset


def test_no_top_level_definition_is_only_test_reachable():
    unused = [f"{where} {qualname}" for qualname, (where, _, outside) in _src_reach().items()
              if outside <= 0 and qualname not in ALLOWED]
    assert not unused, "defined in src/ but never used there or in scripts/: " + ", ".join(unused)


def test_every_allowance_is_still_an_oracle_only_tests_reach():
    reach = _src_reach()
    names, attrs = _uses(*_trees(ROOT / "tests").values())
    stale = []
    for qualname in sorted(ALLOWED):
        _, is_method, outside = reach.get(qualname, (None, False, None))
        if outside is None or outside > 0:
            stale.append(f"{qualname} ({'not in src/' if outside is None else 'used by src/ or scripts/'})")
        elif not attrs[qualname.split(".")[-1]] and (is_method or not names[qualname]):
            stale.append(f"{qualname} (not used in tests/)")
    assert not stale, "stale ALLOWED entries: " + ", ".join(stale)


def test_no_assert_statement_in_src():
    found = [f"{path.name}:{node.lineno}" for path, tree in _trees(PACKAGE).items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/: " + ", ".join(found)


def test_every_default_is_set_by_some_caller():
    unset = [f"{where} {name}" for name, where in _unset_defaults().items()
             if name not in TEST_SET_DEFAULTS]
    assert not unset, "defaults that no call in src/ or scripts/ overrides: " + ", ".join(unset)


def test_every_default_exemption_is_still_unset_in_src():
    stale = sorted(TEST_SET_DEFAULTS - set(_unset_defaults()))
    assert not stale, "stale TEST_SET_DEFAULTS entries: " + ", ".join(stale)
