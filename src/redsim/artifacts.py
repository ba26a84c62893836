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
    doc = {
        "format": format_tag,
        "checksum": payload_checksum(payload),
        "payload": payload,
    }
    Path(path).write_text(canonical_json(doc) + "\n", encoding="utf-8")


def write_json(path, doc) -> None:
    """``doc`` as JSON with sorted keys, two-space indent and a trailing newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


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
