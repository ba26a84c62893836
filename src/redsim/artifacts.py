"""Every output file's writer: checksummed containers, plain JSON and CSV.

Models and policies are artifacts: a single JSON document with a format
tag, a sha256 checksum over the canonical payload encoding and the
payload itself.  Canonical encoding (sorted keys, no whitespace) also
makes re-runs byte-identical.  Reports, log manifests, run snapshots and
curves are plain JSON (``write_json``) or CSV (``write_csv``).
"""

from __future__ import annotations

import csv
import hashlib
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path


class ArtifactError(Exception):
    """Base class for artifact container problems."""


class ArtifactVersionError(ArtifactError):
    """File carries a different format tag than expected."""


class ArtifactChecksumError(ArtifactError):
    """File is truncated, corrupt, or its checksum does not match."""


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_artifact(path, format_tag: str, payload) -> None:
    """The canonical encoding of ``{"checksum", "format", "payload"}``, the payload encoded once."""
    data = canonical_json(payload).encode("utf-8")
    head = f'{{"checksum":"{hashlib.sha256(data).hexdigest()}","format":{canonical_json(format_tag)},"payload":'
    with open(path, "wb") as fh:  # the container's keys sort in the order written here
        fh.writelines((head.encode("utf-8"), data, b"}\n"))


def write_json(path, doc) -> None:
    """``doc`` as JSON with sorted keys, two-space indent and a trailing newline."""
    Path(path).write_text(_indented_json(doc) + "\n", encoding="utf-8")


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# How json writes a value of each of these exact types.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _indented_json(doc) -> str:
    """What ``json.dumps(doc, sort_keys=True, indent=2)`` returns, without json's pure-Python indenting encoder.

    Plain dicts with string keys, lists, tuples and scalars are written
    here; any other value (a subclass, a non-string key, an unknown type) is
    handed to ``json.dumps`` itself, so it is written, or rejected, as json
    would.  A document nested too deeply to recurse through goes to json
    whole.
    """
    chunks: list[str] = []
    append = chunks.append
    breaks = ["\n"]  # a line break and the indent of each depth, built once per depth

    def encode(value, depth):
        cls = value.__class__
        scalar = _SCALARS.get(cls)
        if scalar is not None:
            append(scalar(value))
            return
        if not (cls is list or cls is tuple or cls is dict and {*map(type, value)} <= {str}):
            append(json.dumps(value, sort_keys=True, indent=2).replace("\n", breaks[depth]))
            return
        if not value:
            append("{}" if cls is dict else "[]")
            return
        if len(breaks) == depth + 1:
            breaks.append(breaks[depth] + "  ")
        inner, outer = breaks[depth + 1], breaks[depth]
        if cls is dict:
            separator = "{" + inner
            for key, item in sorted(value.items()):
                scalar = _SCALARS.get(item.__class__)
                if scalar is None:
                    append(f"{separator}{encode_basestring_ascii(key)}: ")
                    encode(item, depth + 1)
                else:
                    append(f"{separator}{encode_basestring_ascii(key)}: {scalar(item)}")
                separator = "," + inner
            append(outer + "}")
        elif {*map(type, value)} == {int}:
            append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + outer + "]")
        else:
            separator = "[" + inner
            for item in value:
                append(separator)
                encode(item, depth + 1)
                separator = "," + inner
            append(outer + "]")

    try:
        encode(doc, 0)
    except RecursionError:
        return json.dumps(doc, sort_keys=True, indent=2)
    return "".join(chunks)


def write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line per dict in ``rows``; a missing key is an empty cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([row.get(c, "") for c in columns] for row in rows)


def read_artifact(path, format_tag: str):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError:  # not UTF-8, or not JSON
        raise ArtifactChecksumError(f"{path}: truncated or corrupt container") from None
    if not isinstance(doc, dict) or "payload" not in doc:
        raise ArtifactChecksumError(f"{path}: not an artifact container")
    if doc.get("format") != format_tag:
        raise ArtifactVersionError(
            f"{path}: format {doc.get('format')!r}, expected {format_tag!r}"
        )
    if payload_checksum(doc["payload"]) != doc.get("checksum"):
        raise ArtifactChecksumError(f"{path}: checksum mismatch")
    return doc["payload"]


def sniff_format(path) -> str | None:
    """Format tag of an artifact container, or None if it is not one."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):  # unreadable, not UTF-8, or not JSON
        return None
    if isinstance(doc, dict):
        tag = doc.get("format")
        if isinstance(tag, str):
            return tag
    return None
