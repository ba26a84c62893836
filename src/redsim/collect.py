"""Transition logging: run collection policies, persist JSONL logs, merge shards.

A log is one JSON object per line with exactly the fields
``episode, step, obs, action, next_obs, reward, done, action_success``,
plus a JSON manifest sidecar (``<log>.manifest.json``) that records the
environment fingerprint, dimensions, totals and default reward/game
parameters.  Logs are append-only and corruption-localizing; merging
renumbers episodes.  Collection and merging write a dataset alike, the
totals and start observations derived from its records.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from . import artifacts
from .envapi import Draws, Env, Observation, derive_seed, read_network, require_same_network, rollout

LOG_FORMAT = "redsim-log-v1"

RECORD_FIELDS = (
    "episode",
    "step",
    "obs",
    "action",
    "next_obs",
    "reward",
    "done",
    "action_success",
)

# How ``TransitionRecord.to_json`` starts a line whose episode and step are not negative.
_CANONICAL_PREFIX = re.compile(rb'\{"episode":(0|[1-9][0-9]*),"step":(0|[1-9][0-9]*)')
# Distinct tails ``read_log`` parses and ``write_log`` formats once.  A desk5 log has
# about 230 and the mesh's about 10k, most lines on the first few thousand; the
# bound keeps a log whose tails never repeat near the plain codec's time and memory.
_MAX_TAILS = 4096


def _json_value(value, other=str) -> str:
    """json's text of an int, bool, float, string or None; ``other``'s of any other value."""
    return artifacts.SCALAR_TEXT.get(value.__class__, other)(value)


def _json_values(values) -> str:
    """The comma-joined ``_json_value`` texts of an observation's values."""
    exact = values.__class__ is tuple and {*map(type, values)} == {int}
    return _json_ints(values) if exact else ",".join(map(_json_value, values))


@lru_cache(maxsize=4096)
def _json_ints(values: tuple) -> str:
    """Comma-joined text of a tuple of exact ints, the only kind memoised: no bool or float meets an equal int's text."""
    return ",".join(map(int.__repr__, values))


class LogValidationError(Exception):
    """Log file contains records that cannot be parsed.

    ``lines`` holds the offending 1-based line numbers.
    """

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = list(lines)


class IncompatibleDatasetError(Exception):
    """Logs from different environments (fingerprint/dimension mismatch)."""


@dataclass(slots=True)
class TransitionRecord:
    episode: int
    step: int
    obs: Observation
    action: int
    next_obs: Observation
    reward: float
    done: bool
    action_success: bool

    def to_json(self) -> str:
        """One log line: the compact ``json.dumps`` text of the record's fields, each value from its own type.

        A line depends on its record alone.  A numpy int in ``obs`` or ``action``
        is written as its digits, and the two flags as their truth.
        """
        return (
            f'{{"episode":{self.episode},"step":{self.step},'
            f'"obs":[{_json_values(self.obs)}],"action":{_json_value(self.action)},'
            f'"next_obs":[{_json_values(self.next_obs)}],"reward":{_json_value(self.reward, json.dumps)},'
            f'"done":{"true" if self.done else "false"},'
            f'"action_success":{"true" if self.action_success else "false"}}}'
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "TransitionRecord":
        """The record of a parsed log line; a missing or mistyped field raises ValueError.

        ``obs`` and ``next_obs`` must be lists; their values, ``episode``,
        ``step`` and ``action`` ints, not bools; ``reward`` an int or a float
        that a float can hold (NaN and Infinity, which ``to_json`` writes,
        included); and the two flags bools.
        """
        try:
            episode, step, obs, action, next_obs, reward, done, success = (obj[f] for f in RECORD_FIELDS)
        except KeyError:
            missing = [f for f in RECORD_FIELDS if f not in obj]
            raise ValueError(f"missing fields: {', '.join(missing)}") from None
        if obs.__class__ is not list or next_obs.__class__ is not list:
            raise ValueError(f"obs {obs!r} and next_obs {next_obs!r} must be lists")
        if not all(v.__class__ is int for v in (episode, step, action, *obs, *next_obs)):
            raise ValueError("episode, step, action and observation values must be ints")
        if reward.__class__ not in (int, float) or done.__class__ is not bool or success.__class__ is not bool:
            raise ValueError(
                f"reward {reward!r} must be a number, and done {done!r} and action_success {success!r} bools"
            )
        try:
            reward = float(reward)
        except OverflowError:
            raise ValueError(f"reward {reward} is too large for a float") from None
        return cls(episode, step, tuple(obs), action, tuple(next_obs), reward, done, success)


def manifest_path(log_path) -> Path:
    return Path(str(log_path) + ".manifest.json")


def write_manifest(manifest: dict, log_path) -> Path:
    path = manifest_path(log_path)
    artifacts.write_json(path, manifest)
    return path


def read_manifest(log_path) -> dict:
    """The manifest of a log; one that is not an object, or of another format, raises.

    ``envapi.read_network`` reads its network: a fingerprint that is not a
    string, or an ``obs_dim`` or ``action_count`` that is not a positive int,
    raises LogValidationError.
    """
    path = manifest_path(log_path)
    raw = path.read_bytes()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # reported like a manifest that is not JSON
        raise json.JSONDecodeError(f"{path} is not UTF-8", raw.decode("latin-1"), exc.start) from None
    if manifest.__class__ is not dict:
        raise LogValidationError(f"{path}: manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != LOG_FORMAT:
        raise IncompatibleDatasetError(
            f"{path}: unexpected manifest format {manifest.get('format')!r}"
        )
    read_network(manifest, lambda message: LogValidationError(f"{path}: manifest {message}"))
    return manifest


def write_log(records, log_path) -> None:
    """Write each record's ``to_json`` line, formatting each distinct tail once as ``read_log`` parses it once.

    A record whose fields after ``"step":S`` are the very objects of an earlier record's
    (a world, a sim and ``read_log`` share them) reuses its text, up to ``_MAX_TAILS``
    tails; equal values of other types or signs (1, 1.0, True; 0.0, -0.0) are other objects.
    """
    tails: dict[tuple, tuple] = {}  # ids of those fields -> (the fields, kept so no id is reused; the tail)
    with open(log_path, "w", encoding="utf-8") as fh:
        for rec in records:
            head = f'{{"episode":{rec.episode},"step":{rec.step}'
            fields = (rec.obs, rec.action, rec.next_obs, rec.reward, rec.done, rec.action_success)
            key = tuple(map(id, fields))
            kept = tails.get(key)
            if kept is None:
                kept = fields, rec.to_json()[len(head):] + "\n"
                if len(tails) < _MAX_TAILS:
                    tails[key] = kept
            fh.write(head + kept[1])


def read_log(log_path):
    """Parse a JSONL log strictly; corrupt lines, also lines that are not UTF-8, raise LogValidationError.

    A log repeats few texts after the ``{"episode":E,"step":S`` prefix of
    its lines.  Once a line that is exactly what ``TransitionRecord.to_json``
    writes has been parsed, its tail's fields are kept, and later such lines
    with that tail skip ``json.loads``.  Every other line is parsed in full,
    so records, errors and line numbers are those of ``json.loads`` plus
    ``TransitionRecord.from_obj``.
    """
    records = []
    bad: list[tuple[int, str]] = []
    tails: dict[bytes, tuple] = {}  # canonical tail -> (obs, action, next_obs, reward, done, action_success)
    with open(log_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            prefix = _CANONICAL_PREFIX.match(line)
            tail = line[prefix.end():] if prefix else None
            fields = tails.get(tail)
            try:
                if fields is not None:
                    rec = TransitionRecord(int(prefix[1]), int(prefix[2]), *fields)
                else:
                    rec = TransitionRecord.from_obj(json.loads(line.decode("utf-8")))
                    if tail is not None and len(tails) < _MAX_TAILS and rec.to_json().encode() == line:
                        tails[tail] = (
                            rec.obs, rec.action, rec.next_obs, rec.reward, rec.done, rec.action_success
                        )
            except (ValueError, TypeError) as exc:  # UnicodeDecodeError and JSONDecodeError too
                bad.append((lineno, str(exc)))
                continue
            records.append(rec)
    if bad:
        lines = [ln for ln, _ in bad]
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
        raise LogValidationError(
            f"{len(bad)} corrupt record(s) in {log_path} ({detail})", lines=lines
        )
    return records


# --- collection policies ---------------------------------------------------

def uniform_random_policy(action_count: int):
    def pick(obs, rng) -> int:
        return rng.integers(action_count)

    pick.descriptor = "uniform-random"
    return pick


def epsilon_greedy_policy(greedy_fn, epsilon: float, action_count: int):
    """Explore uniformly with probability epsilon, otherwise follow greedy_fn."""

    def pick(obs, rng) -> int:
        if rng.random() < epsilon:
            return rng.integers(action_count)
        return int(greedy_fn(obs))

    pick.descriptor = f"epsilon-greedy(epsilon={epsilon})"
    return pick


@dataclass
class CollectionResult:
    records: list
    manifest: dict
    log_path: Path | None = None


def run_collection(
    env: Env,
    policy,
    episodes: int,
    seed: int,
    out_path=None,
) -> CollectionResult:
    """Roll the policy for the given number of episodes and log every step.

    Deterministic given the seed: the environment consumes per-episode
    streams derived from it and the policy gets its own derived stream.
    ``policy(obs, rng)`` picks each action; its ``rng``, an ``envapi.Draws``,
    offers ``random()`` and ``integers(n)``.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    policy_rng = Draws(derive_seed(seed, "collection-policy"))
    steps = rollout(env, lambda obs: policy(obs, policy_rng), episodes, seed)
    records = [
        TransitionRecord(ep, step, obs, action, res.observation, res.reward, res.done, res.action_success)
        for ep, step, obs, action, res in steps
    ]
    return _dataset(records, env.metadata(), getattr(policy, "descriptor", "custom"), seed, out_path)


def _dataset(records: list, source: dict, policy: str, seed, out_path, **extra) -> CollectionResult:
    """The dataset of ``records``, its log and manifest written when ``out_path`` is given.

    ``source`` (an environment's ``metadata()`` or a source log's manifest)
    gives the fingerprint, dimensions, reward and game.  The records give the
    rest: ``total_steps`` is their number, and each step-0 record starts one
    of the ``episodes``, so ``o0`` lists the distinct observations they start from.
    """
    starts = [rec.obs for rec in records if rec.step == 0]
    manifest = {
        "format": LOG_FORMAT,
        "fingerprint": source["fingerprint"],
        "obs_dim": source["obs_dim"],
        "action_count": source["action_count"],
        "total_steps": len(records),
        "episodes": len(starts),
        "o0": [list(o) for o in sorted(set(starts))],
        "policy": policy,
        "seed": seed,
        **extra,
        "reward": source.get("reward"),
        "game": source.get("game"),
    }
    log_path = None
    if out_path is not None:
        log_path = Path(out_path)
        write_log(records, log_path)
        write_manifest(manifest, log_path)
    return CollectionResult(records=records, manifest=manifest, log_path=log_path)


# --- merging and validation -------------------------------------------------

def _require_compatible(manifests) -> None:
    first = manifests[0]
    for m in manifests[1:]:
        require_same_network(m, first, IncompatibleDatasetError, "a log to merge was collected in")
        if m.get("o0") != first.get("o0"):
            raise IncompatibleDatasetError(f"manifest field 'o0' differs: {first.get('o0')!r} vs {m.get('o0')!r}")


def merge_logs(log_paths, out_path) -> CollectionResult:
    """Concatenate logs from the same environment, renumbering episodes.

    Each source is read by ``read_clean_log``, so one that fails its audit
    raises LogValidationError and nothing is written.
    """
    if not log_paths:
        raise ValueError("need at least one log to merge")
    sources = [read_clean_log(p) for p in log_paths]
    manifests = [manifest for _, _, manifest in sources]
    _require_compatible(manifests)

    merged: list[TransitionRecord] = []
    offset = 0
    for records, _, _ in sources:  # each source's episodes in order of first appearance, after those merged so far
        remap: dict[int, int] = {}
        merged += [replace(rec, episode=remap.setdefault(rec.episode, offset + len(remap))) for rec in records]
        offset += len(remap)

    policy = "merged(" + ", ".join(m.get("policy", "?") for m in manifests) + ")"
    return _dataset(merged, manifests[0], policy, None, out_path, sources=[str(p) for p in log_paths])


@dataclass
class CoverageReport:
    """A log's audit.  ``counts`` maps each ``(obs, action)`` pair to ``{next_obs: n}``,
    in order of first appearance: the count table an ``EmpiricalModel`` keeps.
    """

    total_steps: int
    episodes: int
    counts: dict[tuple[Observation, int], dict[Observation, int]]
    start_observations: list[Observation]
    chain_violations: list[tuple[int, int]]
    step_gaps: list[tuple[int, int]]
    manifest_consistent: bool | None = None  # None: no manifest to check against

    @property
    def visited_pairs(self) -> int:
        return len(self.counts)

    @property
    def unique_observations(self) -> int:
        return len(observations_in(self.counts))

    @property
    def clean(self) -> bool:
        return not self.chain_violations and not self.step_gaps and (
            self.manifest_consistent is not False
        )


def validate_log(log_path) -> CoverageReport:
    """Structural and statistical audit of a transition log.

    Parsing problems raise LogValidationError; semantic inconsistencies
    (broken observation chains, step numbering gaps) are reported, not
    raised, so a tampered line is pinpointed rather than fatal.
    """
    return audit_records(read_log(log_path), log_path, _manifest_or_error(log_path)[0])


def read_clean_log(log_path) -> tuple[list, CoverageReport, dict]:
    """The records, audit and manifest of a log that passes its audit.

    The log is parsed once and audited as ``validate_log`` audits it: a
    log that fails raises LogValidationError, even when its manifest is
    missing or not JSON.  Only a clean log without a readable manifest
    raises the manifest's own error.  The manifest is read once.
    """
    records = read_log(log_path)
    manifest, error = _manifest_or_error(log_path)
    report = audit_records(records, log_path, manifest)
    if not report.clean:
        raise LogValidationError(
            f"log failed validation: {len(report.chain_violations)} chain violations, "
            f"{len(report.step_gaps)} step gaps, manifest_consistent={report.manifest_consistent}"
        )
    if error is not None:
        raise error
    return records, report, manifest


def _manifest_or_error(log_path) -> tuple[dict | None, Exception | None]:
    """``(manifest, None)``, or ``(None, error)`` when the manifest is missing, unreadable or not JSON."""
    try:
        return read_manifest(log_path), None
    except (OSError, json.JSONDecodeError) as exc:
        return None, exc


def audit_records(records, log_path, manifest: dict | None) -> CoverageReport:
    """The audit behind ``validate_log``, on records already parsed from ``log_path``.

    The one pass that checks chains and steps also tallies ``counts``.
    ``manifest`` is the log's manifest, or None when it is missing,
    unreadable or not JSON, which leaves only the manifest checks out, so
    chain and step errors outrank it, and lets ``records`` be any iterable.
    With a manifest, ``records`` is a list, and records whose action lies
    outside ``0..action_count-1``, or whose observations differ from
    ``obs_dim`` in length or hold values outside ``0..255``, raise
    LogValidationError naming their 1-based line numbers in ``log_path``.
    """
    counts: dict[tuple[Observation, int], dict[Observation, int]] = {}
    starts: set[Observation] = set()
    chain_violations: list[tuple[int, int]] = []
    step_gaps: list[tuple[int, int]] = []
    last: dict[int, TransitionRecord] = {}

    for rec in records:
        outcomes = counts.setdefault((rec.obs, rec.action), {})
        outcomes[rec.next_obs] = outcomes.get(rec.next_obs, 0) + 1
        prev = last.get(rec.episode)
        if rec.step == 0:
            starts.add(rec.obs)
            if prev is not None:
                step_gaps.append((rec.episode, rec.step))
        else:
            if prev is None or prev.step != rec.step - 1:
                step_gaps.append((rec.episode, rec.step))
            elif prev.next_obs != rec.obs:
                chain_violations.append((rec.episode, rec.step))
        last[rec.episode] = rec

    report = CoverageReport(
        total_steps=sum(sum(outcomes.values()) for outcomes in counts.values()),
        episodes=len(last),
        counts=counts,
        start_observations=sorted(starts),
        chain_violations=chain_violations,
        step_gaps=step_gaps,
    )
    if manifest is not None:
        _check_ranges(records, manifest, counts, log_path)
        report.manifest_consistent = (
            manifest.get("total_steps") == report.total_steps
            and manifest.get("episodes") == report.episodes
            and manifest.get("o0") == [list(o) for o in report.start_observations]
        )
    return report


def observations_in(counts: dict) -> set[Observation]:
    """The distinct observations, before and after, in a count table."""
    return {obs for obs, _ in counts}.union(*counts.values())


def _check_ranges(records: list, manifest: dict, counts: dict, log_path) -> None:
    """Raise LogValidationError for records the manifest's dimensions cannot hold.

    Checks the distinct actions and observations of ``counts``, and walks the records
    (and the log, for its blank lines) again only to number the bad ones.
    """
    obs_dim = manifest["obs_dim"]
    valid_actions = range(manifest["action_count"])
    bad_actions = {a for _, a in counts if a not in valid_actions}
    bad_obs = {
        o for o in observations_in(counts) if len(o) != obs_dim or not all(0 <= v <= 255 for v in o)
    }
    if not bad_actions and not bad_obs:
        return
    positions = [
        n
        for n, rec in enumerate(records, start=1)
        if rec.action in bad_actions or rec.obs in bad_obs or rec.next_obs in bad_obs
    ]
    lines = _record_line_numbers(log_path, positions)
    raise LogValidationError(
        f"{len(lines)} record(s) out of range for obs_dim={obs_dim}, "
        f"action_count={manifest['action_count']} (first at line {lines[0]})",
        lines=lines,
    )


def _record_line_numbers(log_path, positions: list) -> list:
    """File line numbers of the records at 1-based ``positions``; ``read_log`` skips blank lines."""
    with open(log_path, "rb") as fh:
        record_lines = [n for n, line in enumerate(fh, start=1) if line.strip()]
    return [record_lines[p - 1] for p in positions]
