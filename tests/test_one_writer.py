"""Every file src/ and scripts/ write goes through dataio.write_text and
dataio.json_text, and every JSON document they read through
dataio.read_document.

write_text owns the UTF-8/LF convention and json_text the canonical JSON form
(sorted keys, one-space indent, final newline), so an ``open`` in a writing
mode or a ``json.dumps``/``json.dump`` anywhere else in src/ or scripts/ is a
second writer that can drift from them. read_document owns decoding, the
object and version checks and the "malformed <what> <path>" error, so a
``json.load``/``json.loads`` anywhere else is a second reader. json_text
refuses NaN and the infinities, which RFC 8259 JSON cannot hold.
"""

import ast
import math
from pathlib import Path

import pytest

from battfault.dataio import json_text

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "battfault").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))

# (module, function) of the only calls allowed to write or serialize, and to decode
WRITERS = {("dataio.py", "write_text"), ("dataio.py", "json_text")}
READERS = {("dataio.py", "read_document")}


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
    return _is_json_call(call, ("dumps", "dump"))


def _is_json_call(call: ast.Call, names) -> bool:
    func = call.func
    return (isinstance(func, ast.Attribute) and func.attr in names
            and isinstance(func.value, ast.Name) and func.value.id == "json")


def _calls(tree, match, owner=None):
    """(lineno, top-level function the call sits in) for each call ``match`` accepts."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if owner is None and isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else owner
        if isinstance(node, ast.Call) and match(node):
            yield node.lineno, owner
        yield from _calls(node, match, inner)


def _source_calls(match):
    return [(path.name, lineno, owner) for path in SOURCES
            for lineno, owner in _calls(ast.parse(path.read_text(encoding="utf-8")), match)]


def _strays(calls, allowed):
    return [f"{name}:{lineno} in {owner or 'module scope'}"
            for name, lineno, owner in calls if (name, owner) not in allowed]


def test_every_write_goes_through_the_one_writer():
    calls = _source_calls(_is_writer_call)
    strays = _strays(calls, WRITERS)
    assert not strays, "file writes outside write_text/json_text: " + ", ".join(strays)
    # the two writers are found, so the scan itself works
    assert sorted((name, owner) for name, _, owner in calls) == sorted(WRITERS)


def test_every_json_read_goes_through_the_one_reader():
    calls = _source_calls(lambda call: _is_json_call(call, ("loads", "load")))
    strays = _strays(calls, READERS)
    assert not strays, "JSON decoding outside read_document: " + ", ".join(strays)
    # the reader is found, so the scan itself works
    assert sorted((name, owner) for name, _, owner in calls) == sorted(READERS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_text_refuses_what_json_cannot_hold(value):
    with pytest.raises(ValueError):
        json_text({"threshold": value})
    with pytest.raises(ValueError):
        json_text({"nested": [0.5, {"loss": value}]})
