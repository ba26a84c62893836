"""Every output file's writer: checksummed containers, plain JSON and CSV.

Models and policies are artifacts: a single JSON document with a format
tag, a sha256 checksum over the canonical payload encoding and the
payload itself.  Canonical encoding (sorted keys, no whitespace) also
makes re-runs byte-identical.  Reports, log manifests, run snapshots and
curves are plain JSON (``write_json``) or CSV (``write_csv``).  json
writes every JSON document but a top-level key's list of rows, such as a
report's per-pair rows, which goes through one row template and is
written a row at a time.

Each of these files, and the transition log ``collect.write_log`` streams,
lands by ``replacing``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import stat
from contextlib import contextmanager
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from pathlib import Path


class ArtifactError(Exception):
    """Base class for artifact container problems."""


class ArtifactVersionError(ArtifactError):
    """File carries a different format tag than expected."""


class ArtifactChecksumError(ArtifactError):
    """File is truncated, corrupt, or its checksum does not match."""


@contextmanager
def replacing(path, mode: str = "w", **kwargs):
    """A handle, opened by ``open(temp, mode, **kwargs)``, on a temp file that replaces ``path`` when the block ends.

    The temp file lies beside the file ``path`` names (a symlink's target,
    so the link stays), and ``os.replace`` moves it into place whole.  It
    takes an existing file's permission bits; a new file gets those any new
    file gets.  If the block raises, the temp file is removed and ``path``
    left as it was.  A ``path`` that exists but is no regular file, such as
    ``/dev/null``, is written in place.  Nothing is fsynced: the target is
    whole if the process dies, not if the machine does.
    """
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        old_mode = os.stat(path).st_mode
    except FileNotFoundError:
        old_mode = None
    if old_mode is not None and not stat.S_ISREG(old_mode):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    path = Path(path)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, mode, **kwargs) as fh:
            if old_mode is not None:
                os.chmod(temp, stat.S_IMODE(old_mode))
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def write_artifact(path, format_tag: str, payload) -> None:
    """The canonical encoding of ``{"checksum", "format", "payload"}``, the payload encoded once.

    A dict key that is not a string raises TypeError and writes nothing:
    json would write it as a string, which sorts otherwise when read back,
    so ``read_artifact`` would find the checksum wrong.
    """
    data = canonical_json(payload).encode("utf-8")  # first, so json rejects what it cannot write, cycles included
    _check_string_keys(payload)
    head = f'{{"checksum":"{hashlib.sha256(data).hexdigest()}","format":{canonical_json(format_tag)},"payload":'
    with replacing(path, "wb") as fh:  # the container's keys sort in the order written here
        fh.writelines((head.encode("utf-8"), data, b"}\n"))


def _check_string_keys(payload) -> None:
    items = [payload]
    while items:  # one nesting level a round, each element's type read in bulk
        inside = {kind for kind in {*map(type, items)} if issubclass(kind, (dict, list, tuple))}
        level = [*compress(items, map(inside.__contains__, map(type, items)))]
        dicts = [value for value in level if isinstance(value, dict)]
        if {*map(type, chain.from_iterable(dicts))} - {str}:
            bad = [key for value in dicts for key in value if not isinstance(key, str)]
            if bad:
                raise TypeError(f"artifact payload key {bad[0]!r} is not a string")
        items = [*chain.from_iterable(value.values() if isinstance(value, dict) else value for value in level)]


def write_json(path, doc) -> None:
    """``doc`` as JSON with sorted keys, two-space indent and a trailing newline.

    The text is written piece by piece, a report's rows one at a time, so no
    copy of the whole document is held.  What json cannot write raises before
    the file is opened.
    """
    pieces = _json_pieces(doc)
    with replacing(path, encoding="utf-8") as fh:
        fh.writelines(pieces)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_WORDS.get(text, text)


# How json writes a value of each of these exact types.
SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): lambda _: "null",
}


def _json_pieces(doc):
    """The pieces of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, a top-level key's rows through one template.

    A non-empty plain dict with string keys is written one key at a time: a
    non-empty list of rows (``_rows_pieces``) through the row template, any
    other value by ``json.dumps``, its lines indented one level.  Any other
    document goes to ``json.dumps`` whole, so it is written, or rejected, as
    json would.  Only the rows are formatted as the pieces are read.
    """
    if not (doc.__class__ is dict and doc and {*map(type, doc)} == {str}):
        return json.dumps(doc, sort_keys=True, indent=2), "\n"
    parts, separator = [], "{\n  "
    for key, value in sorted(doc.items()):
        rows = _rows_pieces(value) if value.__class__ is list and value else None
        if rows is None:
            rows = (json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  "),)
        parts += (separator, encode_basestring_ascii(key), ": "), rows
        separator = ",\n  "
    parts.append(("\n}\n",))
    return chain.from_iterable(parts)


def _rows_pieces(rows):
    """The text of ``rows`` as a top-level key's value, one piece per row from one template; None if they are not rows.

    Rows are plain dicts sharing one non-empty set of string keys, each key holding only
    ``SCALAR_TEXT`` scalars or only lists and tuples of exact ints, each distinct one's text built once.
    """
    first = rows[0]
    shaped = first.__class__ is dict and first and {*map(type, first)} == {str} and {*map(type, rows)} == {dict}
    if not (shaped and all(map(first.keys().__eq__, map(dict.keys, rows)))):
        return None
    keys, columns = sorted(first), []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = {*map(type, column)}
        if kinds <= SCALAR_TEXT.keys():
            columns.append([SCALAR_TEXT[value.__class__](value) for value in column])
        elif kinds <= {list, tuple} and {*map(type, chain.from_iterable(column))} <= {int}:
            column, join = [*map(tuple, column)], ",\n        ".join
            texts = {ints: "[\n        " + join(map(int.__repr__, ints)) + "\n      ]" for ints in {*column} if ints}
            columns.append([texts.get(ints, "[]") for ints in column])
        else:
            return None
    fields = ",\n      ".join(encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys)
    template = "{\n      " + fields + "\n    }"
    values = zip(*columns)
    return chain(("[\n    " + template % next(values),), map((",\n    " + template).__mod__, values), ("\n  ]",))


def write_csv(path, columns, rows) -> None:
    """A header of ``columns``, then one line per dict in ``rows``; a missing key is an empty cell."""
    with replacing(path, encoding="utf-8", newline="") as fh:
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
