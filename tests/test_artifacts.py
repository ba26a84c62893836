"""The output writers against the encodings they promise: ``json.dumps``'s bytes, written without its costs."""

import enum
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redsim import artifacts


class _Kind(enum.IntEnum):
    SCAN = 3


class _Name(str):
    pass


_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e16, 0.1]),
    st.text(),
    st.sampled_from(["", "é", "\x00\x1f\x7f", " \ud800", "tab\there", '"quoted"\\']),
)
# Values json writes through a subclass's base type, or rejects: kept rare.
_odd_values = st.one_of(
    st.sampled_from([_Kind.SCAN, _Name("h1"), object(), {1, 2}, b"x", 1j]),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-5, 5).map(np.int64),
)
# Non-string keys json converts to strings; each dict holds one kind, or a mix that sorting rejects.
_key_kinds = (st.integers(), st.floats(allow_nan=False), st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.integers() | st.booleans(), max_size=6),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
        *(st.dictionaries(keys, children, max_size=4) for keys in _key_kinds),
        st.dictionaries(st.one_of(st.text(max_size=3), *_key_kinds), children, max_size=3),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(OrderedDict),
    )


documents = st.recursive(_scalars, _containers, max_leaves=40)
odd_documents = st.recursive(_scalars | _odd_values, _containers, max_leaves=20)


def _json_text(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _check_write_json(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "d.json"
    try:
        expected = _json_text(doc)
    except Exception as exc:  # noqa: BLE001 - whatever json raises, write_json must raise too
        with pytest.raises(type(exc)):
            artifacts.write_json(path, doc)
        return
    artifacts.write_json(path, doc)
    assert path.read_text(encoding="utf-8") == expected


@settings(max_examples=300, deadline=None)
@given(documents)
def test_write_json_writes_what_json_dumps_writes(tmp_path_factory, doc):
    _check_write_json(tmp_path_factory, doc)


@settings(max_examples=150, deadline=None)
@given(odd_documents)
def test_write_json_writes_or_rejects_odd_values_as_json_does(tmp_path_factory, doc):
    _check_write_json(tmp_path_factory, doc)


def _circular():
    doc = {"pairs": []}
    doc["pairs"].append(doc)
    return doc


@pytest.mark.parametrize(
    "doc",
    [[object()], {"a": {1, 2}}, {"a": [{1: 0, "b": 0}]}, _circular(), [np.int64(3)]],
    ids=["object", "set", "mixed-keys", "circular", "numpy-int"],
)
def test_write_json_raises_what_json_raises(tmp_path, doc):
    with pytest.raises(Exception) as expected:
        _json_text(doc)
    with pytest.raises(expected.type):
        artifacts.write_json(tmp_path / "r.json", doc)
    assert not (tmp_path / "r.json").exists()


def test_write_json_hands_a_document_too_deep_to_recurse_to_json(tmp_path):
    doc = [0]
    for _ in range(2000):
        doc = [doc]
    with pytest.raises(RecursionError):
        _json_text(doc)
    with pytest.raises(RecursionError):
        artifacts.write_json(tmp_path / "r.json", doc)


@settings(max_examples=150, deadline=None)
@given(documents, st.text())
def test_write_artifact_encodes_the_container_canonically(tmp_path_factory, payload, tag):
    """The payload is encoded once and spliced in; the bytes are those of the whole container's encoding."""
    try:
        checksum = artifacts.payload_checksum(payload)
    except (TypeError, ValueError):  # keys that do not sort
        return
    path = tmp_path_factory.mktemp("artifact") / "a.json"
    artifacts.write_artifact(path, tag, payload)
    container = {"format": tag, "checksum": checksum, "payload": payload}
    assert path.read_text(encoding="utf-8") == artifacts.canonical_json(container) + "\n"
