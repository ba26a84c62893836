"""The output writers against the encodings they promise: ``json.dumps``'s bytes, written without its costs."""

import enum
import json
import math
import os
import stat
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


# Keys json escapes, and keys a row template would misread if it did not escape them.
_row_keys = st.text(max_size=4) | st.sampled_from(
    ["%", "%s", "%%d", "{", "{0}", "}", '"', "\\", "\x00\x1f", "é", "\ud800", "naïve"]
)
_row_columns = st.sampled_from([
    _scalars,
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
    st.lists(st.integers(), max_size=4),
    st.lists(st.integers(), max_size=4).map(tuple),
    st.lists(st.integers(-2, 2) | st.booleans(), max_size=4),
    st.lists(st.integers(-2, 2) | st.floats(-2, 2), max_size=3).map(tuple),
])


@st.composite
def row_documents(draw):
    """A list of dicts sharing one key set, each column drawn from a few values, maybe one row edited, in a wrapper.

    The wrappers put the rows at the top or under a top-level key, beside escaped keys, nested values,
    a second row list or an empty list.
    """
    keys = draw(st.lists(_row_keys, min_size=1, max_size=4, unique=True))
    pools = {key: draw(st.lists(draw(_row_columns), min_size=1, max_size=3)) for key in keys}
    rows = [{key: draw(st.sampled_from(pool)) for key, pool in pools.items()} for _ in range(draw(st.integers(1, 8)))]
    edit = draw(st.sampled_from([None, "ordered-dict", "extra-key", "missing-key", "renamed-key", "nested-value"]))
    at = draw(st.sampled_from([0, len(rows) // 2, len(rows) - 1]))
    if edit == "ordered-dict":
        rows[at] = OrderedDict(rows[at])
    elif edit == "extra-key":
        rows[at][draw(_row_keys.filter(lambda key: key not in rows[at]))] = 0
    elif edit in ("missing-key", "renamed-key"):
        value = rows[at].pop(draw(st.sampled_from(keys)))
        if edit == "renamed-key":
            rows[at][draw(_row_keys.filter(lambda key: key not in keys))] = value
    elif edit == "nested-value":
        rows[at][draw(st.sampled_from(keys))] = draw(st.sampled_from([{"n": [1]}, [[1]], [{"a": 1}]]))
    return draw(st.sampled_from([
        rows,
        tuple(rows),
        {"n": len(rows), "pairs": rows},
        [{"rows": rows}],
        {draw(_row_keys): len(rows), "pairs": rows},
        {"meta": {"z": [1, {"b": None}], "a": 0.5}, "pairs": rows},
        {"curve": [[1, 2], {"b": -0.0}], "pairs": rows},
        {"pairs": rows, "rows": rows[::-1]},
        {"empty": [], "pairs": rows},
        OrderedDict([("pairs", rows), ("n", len(rows))]),
    ]))


@settings(max_examples=300, deadline=None)
@given(row_documents())
def test_write_json_writes_lists_of_rows_as_json_dumps_does(tmp_path_factory, doc):
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


def _holds_a_non_string_key(doc) -> bool:
    if isinstance(doc, dict):
        return any(not isinstance(k, str) or _holds_a_non_string_key(v) for k, v in doc.items())
    return isinstance(doc, (list, tuple)) and any(map(_holds_a_non_string_key, doc))


@settings(max_examples=150, deadline=None)
@given(documents, st.text())
def test_write_artifact_encodes_the_container_canonically(tmp_path_factory, payload, tag):
    """The payload is encoded once and spliced in; the bytes are those of the whole container's encoding.

    A payload holding a non-string key is rejected, by json if the keys do not sort, before anything is written.
    """
    path = tmp_path_factory.mktemp("artifact") / "a.json"
    if _holds_a_non_string_key(payload):
        with pytest.raises(TypeError):
            artifacts.write_artifact(path, tag, payload)
        assert not path.exists()
        return
    artifacts.write_artifact(path, tag, payload)
    container = {"format": tag, "checksum": artifacts.payload_checksum(payload), "payload": payload}
    assert path.read_text(encoding="utf-8") == artifacts.canonical_json(container) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{"x": {2: 0, 10: 0}}, {1: "a"}, [{"a": {None: 1}}], {"x": ({2.5: 0},)}, {"a": [[{True: 1}]]}],
)
def test_write_artifact_rejects_keys_that_would_not_read_back(tmp_path, payload):
    """json writes a non-string key as a string, which sorts otherwise on reading, so the checksum would not hold."""
    path = tmp_path / "a.json"
    with pytest.raises(TypeError, match="key"):
        artifacts.write_artifact(path, "redsim-model-v1", payload)
    assert not path.exists()


def test_write_artifact_rejects_a_circular_payload_as_json_does(tmp_path):
    with pytest.raises(ValueError, match="Circular"):
        artifacts.write_artifact(tmp_path / "a.json", "redsim-model-v1", {"x": _circular()})
    assert not (tmp_path / "a.json").exists()


def test_an_artifact_with_string_keys_reads_back_as_written(tmp_path):
    payload = {"x": {"2": 0, "10": 0}, "y": [{"a": 1}, ({"b": [2]},)]}
    artifacts.write_artifact(tmp_path / "a.json", "redsim-model-v1", payload)
    assert artifacts.read_artifact(tmp_path / "a.json", "redsim-model-v1") == {
        "x": {"2": 0, "10": 0}, "y": [{"a": 1}, [{"b": [2]}]],
    }


class _FailsAfterOnePiece:
    """A file handle that writes and flushes its first piece, then raises as a full disk would."""

    def __init__(self, fh):
        self.fh, self.pieces = fh, 0

    def write(self, piece):
        if self.pieces:
            raise OSError("No space left on device")
        self.pieces += 1
        self.fh.write(piece)
        self.fh.flush()

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize(
    "write",
    [
        lambda path: artifacts.write_json(path, {"rows": [{"a": i} for i in range(50)], "z": 1}),
        lambda path: artifacts.write_csv(path, ["a", "b"], [{"a": i, "b": -i} for i in range(50)]),
        lambda path: artifacts.write_artifact(path, "redsim-model-v1", {"x": list(range(50))}),
    ],
    ids=["write_json", "write_csv", "write_artifact"],
)
def test_a_write_cut_off_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch, write):
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")
    monkeypatch.setattr(artifacts, "open", lambda *args, **kwargs: _FailsAfterOnePiece(open(*args, **kwargs)), raising=False)
    with pytest.raises(OSError, match="No space"):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    write(path)
    assert path.read_bytes() != b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_a_replaced_output_keeps_its_symlink_and_permission_bits(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    real.chmod(0o640)
    (tmp_path / "link.json").symlink_to("real.json")
    artifacts.write_json(tmp_path / "link.json", {"a": 1})
    assert (tmp_path / "link.json").is_symlink()
    assert json.loads(real.read_text()) == {"a": 1}
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_an_output_that_is_no_regular_file_is_written_in_place():
    artifacts.write_json(os.devnull, {"a": 1})
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
