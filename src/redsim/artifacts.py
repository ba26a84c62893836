"""Versioned, checksummed JSON containers for models and policies.

Every on-disk artifact is a single JSON document with a format tag, a
sha256 checksum over the canonical payload encoding and the payload
itself.  Canonical encoding (sorted keys, no whitespace) also makes
re-runs byte-identical.
"""

from __future__ import annotations

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
