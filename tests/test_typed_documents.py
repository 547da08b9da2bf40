"""Config files and checkpoint configs either fail with a ParseError or read
to fields of exactly their annotated types.

A document is drawn as up to three edits, each setting one real field (or a
section, or a junk key) to a value of any JSON kind: null, booleans,
integers, integral and non-integral floats, NaN and the infinities, strings,
lists and objects. Few edits keep many documents valid, so both outcomes are
exercised.
"""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from battfault.cli import RunConfig, load_config
from battfault.dataio import ParseError
from battfault.model import ModelConfig, init_params
from battfault.numcore import SeededRng
from battfault.pretrain import checkpoint_document, load_checkpoint

JUNK = "junk"
DIMS = [0, 1, 2, 3, 16, 17, 32]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 300), st.sampled_from(DIMS),
    st.sampled_from(DIMS).map(float), st.floats(-2.0, 300.0), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=3))
values = st.one_of(scalars, st.lists(scalars, max_size=3),
                   st.dictionaries(st.text(max_size=3), scalars, max_size=2))


def paths(cls, prefix=()):
    """Every field path of ``cls``, its nested dataclasses and a junk key at each level."""
    for name, kind in typing.get_type_hints(cls).items():
        yield prefix + (name,)
        if dataclasses.is_dataclass(kind):
            yield from paths(kind, prefix + (name,))
    yield prefix + (JUNK,)


def apply_edits(doc, edits):
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                node[key] = {}
            node = node[key]
        node[path[-1]] = value
    return doc


def edits(cls):
    return st.lists(st.tuples(st.sampled_from(list(paths(cls))), values), max_size=3)


def assert_typed(value, kind, name="config"):
    if dataclasses.is_dataclass(kind):
        assert type(value) is kind, name
        for field, hint in typing.get_type_hints(kind).items():
            assert_typed(getattr(value, field), hint, f"{name}.{field}")
    elif kind is int:
        assert type(value) is int, (name, value)
    elif kind is float:
        assert type(value) in (int, float) and math.isfinite(value), (name, value)
    elif kind is str:
        assert type(value) is str, (name, value)
    else:
        kinds = typing.get_args(kind)
        assert type(value) is tuple and len(value) == len(kinds), (name, value)
        for i, (item, hint) in enumerate(zip(value, kinds)):
            assert_typed(item, hint, f"{name}[{i}]")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("typed")


@settings(max_examples=300, deadline=None)
@given(edits(RunConfig))
@example([(("model", "L"), 1.5)])
def test_config_file_reads_typed_or_fails_with_config_error(workdir, changes):
    path = workdir / "config.json"
    path.write_text(json.dumps(apply_edits({}, changes)))
    try:
        cfg = load_config(path)
    except ParseError:
        return
    assert_typed(cfg, RunConfig)


TINY = ModelConfig(D=3, H=16, L=1, A=2, FF=32, M_max=17, dropout_rate=0.1, K=2)
TINY_DOC = json.loads(checkpoint_document(init_params(TINY, SeededRng(2, ("init",))), {}))


@settings(max_examples=200, deadline=None)
@given(edits(ModelConfig))
@example([(("H",), 16.0)])
# an integral float read as a layer count far past the tensors: rejected
# without building the shape map of 10**16 layers
@example([(("L",), 1e16)])
def test_checkpoint_config_reads_typed_or_fails_with_checkpoint_error(workdir, changes):
    # edits of a valid document, so a config that still fits its tensors loads
    path = workdir / "checkpoint.json"
    path.write_text(json.dumps(dict(TINY_DOC, config=apply_edits(dict(TINY_DOC["config"]), changes))))
    try:
        params, _ = load_checkpoint(path)
    except ParseError:
        return
    assert_typed(params.cfg, ModelConfig)
