"""Every file src/ writes goes through dataio.write_text and dataio.json_text.

write_text owns the UTF-8/LF convention and json_text the canonical JSON form
(sorted keys, one-space indent, final newline), so an ``open`` in a writing
mode or a ``json.dumps``/``json.dump`` anywhere else in src/ is a second
writer that can drift from them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "battfault"

# (module, function) of the only calls allowed to write or serialize
WRITERS = {("dataio.py", "write_text"), ("dataio.py", "json_text")}


def _open_mode(call: ast.Call):
    if len(call.args) >= 2:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def _is_writer_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = _open_mode(call)
        # a mode that is not a literal cannot be checked, so it counts
        return mode is not None and not (
            isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and set(mode.value).isdisjoint("wax+"))
    return (isinstance(func, ast.Attribute) and func.attr in ("dumps", "dump")
            and isinstance(func.value, ast.Name) and func.value.id == "json")


def _writer_calls(tree, owner=None):
    """(lineno, top-level function the call sits in) for each writing call."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if owner is None and isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else owner
        if isinstance(node, ast.Call) and _is_writer_call(node):
            yield node.lineno, owner
        yield from _writer_calls(node, inner)


def test_every_write_goes_through_the_one_writer():
    calls = [(path.name, lineno, owner) for path in sorted(PACKAGE.glob("*.py"))
             for lineno, owner in _writer_calls(ast.parse(path.read_text(encoding="utf-8")))]
    strays = [f"{name}:{lineno} in {owner or 'module scope'}"
              for name, lineno, owner in calls if (name, owner) not in WRITERS]
    assert not strays, "file writes outside write_text/json_text: " + ", ".join(strays)
    # the two writers are found, so the scan itself works
    assert sorted((name, owner) for name, _, owner in calls) == sorted(WRITERS)
