"""Every file src/ and scripts/ write goes through dataio.write_text and
dataio.json_text, every CSV file through dataio.csv_text, and every JSON
document they read through dataio.read_document.

write_text owns the UTF-8/LF convention and json_text the canonical JSON form
(sorted keys, one-space indent, final newline), so an ``open`` in a writing
mode or a ``json.dumps``/``json.dump`` anywhere else in src/ or scripts/ is a
second writer that can drift from them. read_document owns decoding, the
object and version checks and the "malformed <what> <path>" error, so a
``json.load``/``json.loads`` anywhere else is a second reader. json_text
refuses NaN and the infinities, which RFC 8259 JSON cannot hold.

csv_text owns the CSV line: the header, a cell as its ``str`` (a float as its
repr) and the comma between cells. So a ``",".join`` or a string literal that
holds both a comma and a line end anywhere else builds CSV lines a second way.
csv_text refuses a text cell holding a comma, a double quote, CR or LF, which
an unquoted cell cannot hold.
"""

import ast
import math
from pathlib import Path

import pytest

from battfault.dataio import csv_text, json_text

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "battfault").glob("*.py")) + sorted(
    (ROOT / "scripts").glob("*.py"))

# (module, function) of the only calls allowed to write or serialize, and to decode
WRITERS = {("dataio.py", "write_text"), ("dataio.py", "json_text")}
READERS = {("dataio.py", "read_document")}
# the functions that write a CSV file, once per file they write
CSV_WRITERS = [("cli.py", "cmd_pretrain"), ("dataio.py", "write_csv"), ("dataio.py", "write_csv"),
               ("evalkit.py", "emit_report"), ("evalkit.py", "write_tsne_outputs")]


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


def _nodes(tree, match, owner=None):
    """(lineno, top-level function the node sits in) for each node ``match`` accepts."""
    for node in ast.iter_child_nodes(tree):
        inner = node.name if owner is None and isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else owner
        if match(node):
            yield node.lineno, owner
        yield from _nodes(node, match, inner)


def _parse(path):
    """The module's tree without its docstrings, which build and call nothing."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)) and ast.get_docstring(node):
            del node.body[0]
    return tree


def _source_nodes(match):
    return [(path.name, lineno, owner) for path in SOURCES
            for lineno, owner in _nodes(_parse(path), match)]


def _source_calls(match):
    return _source_nodes(lambda node: isinstance(node, ast.Call) and match(node))


def _called_name(call: ast.Call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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


def test_every_csv_file_is_written_from_csv_text():
    def csv_write(call):
        if _called_name(call) != "write_text":
            return False
        path, text = call.args
        text_is_csv = isinstance(text, ast.Call) and _called_name(text) == "csv_text"
        names_csv = any(isinstance(node, ast.Constant) and str(node.value).endswith(".csv")
                        for node in ast.walk(path))
        assert text_is_csv or not names_csv, f"{ast.unparse(call)} writes CSV text of its own"
        return text_is_csv

    writes = _source_calls(csv_write)
    assert sorted((name, owner) for name, _, owner in writes) == CSV_WRITERS
    # and csv_text makes the text of those writes alone
    texts = _source_calls(lambda call: _called_name(call) == "csv_text")
    assert sorted((name, owner) for name, _, owner in texts) == CSV_WRITERS


def test_no_other_function_builds_csv_lines():
    def literal_text(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.JoinedStr):
            return "".join(part.value for part in node.values if isinstance(part, ast.Constant))
        return ""

    def builds_csv(node):
        text = literal_text(node)
        comma_join = (isinstance(node, ast.Call) and _called_name(node) == "join"
                      and isinstance(node.func.value, ast.Constant) and node.func.value.value == ",")
        return comma_join or ("," in text and "\n" in text)

    found = _source_nodes(builds_csv)
    strays = _strays(found, {("dataio.py", "csv_text")})
    assert not strays, "CSV lines built outside csv_text: " + ", ".join(strays)
    # the comma join and the line end of csv_text itself are found, so the scan works
    assert {(name, owner) for name, _, owner in found} == {("dataio.py", "csv_text")}


def test_csv_text_writes_a_float_as_its_repr():
    assert "".join(csv_text(("x", "id", "n"), [0.1, float("inf")], ("a", "b"), [1, 2])) == (
        "x,id,n\n0.1,a,1\ninf,b,2\n")


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_csv_text_refuses_what_an_unquoted_cell_cannot_hold(char):
    with pytest.raises(ValueError, match=r"column 'id' cell 'ev.{1,2}0001' holds a comma, a "
                                         r"double quote, CR or LF"):
        csv_text(("x", "id"), [1.0, 2.0], ["ev0000", f"ev{char}0001"])
