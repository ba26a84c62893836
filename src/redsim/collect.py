"""Transition logging: run collection policies, persist JSONL logs, merge shards.

A log is one JSON object per line with exactly the fields
``episode, step, obs, action, next_obs, reward, done, action_success``,
plus a JSON manifest sidecar (``<log>.manifest.json``) that records the
environment fingerprint, dimensions, totals and default reward/game
parameters.  Logs are append-only and corruption-localizing; merging
renumbers episodes.  Collection and merging write a dataset alike, the
totals and start observations derived from its rows.

With a path, collection and merging stream: each step or scanned line goes
to ``write_log`` as a plain row, counted on the way, and no record is built
for it.  ``write_log`` removes the old manifest after the last line, then
``os.replace`` puts the log in place; the manifest comes last.  A write that
raises leaves the old log and manifest as they were; one killed in between
leaves the log without one, so no manifest describes a log it did not count.

One scanner reads a log: it parses each distinct line tail once and yields
one flat row per line, ``(lineno, episode, step, key, fields)``.  One audit
of that stream, run by ``validate_log`` and ``read_clean_log`` and so on each
source of a merge, tallies counts per key and builds no record per line;
``read_log`` builds records from the same rows; a merge's second scan writes them.
``audit_records`` runs the same audit on records, with no lines or manifest.
"""

from __future__ import annotations

import json
import numbers
import os
import re
from dataclasses import dataclass
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

# How ``TransitionRecord.to_json`` starts a line whose episode and step are not negative, then its tail.
_CANONICAL_LINE = re.compile(rb'\{"episode":(0|[1-9][0-9]*),"step":(0|[1-9][0-9]*)(.*)', re.DOTALL)
# Distinct tails ``_scan`` parses and ``write_log`` formats once.  A desk5 log has
# 228; random mesh logs of 300 and 1,000 episodes have 6,039 and 10,332.  A kept
# tail holds its text and its fields, about 0.75 KB for a mesh line's 160-byte
# tail, so a full cache holds about 12 MB, more in proportion for longer lines.
# The bound keeps a log whose tails never repeat near the plain codec's time.
_MAX_TAILS = 16384
_BLOCK_LINES = 1024  # lines ``write_log`` joins into one ``write``: about 190 KB of desk5 lines


@lru_cache(maxsize=4096)
def _json_ints(values: tuple) -> str:
    """Comma-joined text of a tuple of ints; ``_require_ints`` keeps out equal bools and floats, written otherwise."""
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

    def __iter__(self):
        """The record's fields in ``RECORD_FIELDS`` order, so ``write_log`` takes records as it takes rows."""
        return iter((self.episode, self.step, self.obs, self.action, self.next_obs, self.reward, self.done,
                     self.action_success))

    def to_json(self) -> str:
        """One log line: the compact ``json.dumps`` text of the record's fields.

        A line depends on its record alone.  A numpy int in ``episode``, ``step``,
        ``action`` or an observation is written as its digits.  Any other value
        there that is not an int (a bool or float too), a bool ``reward``, or a
        flag that is not a bool raises TypeError: ``read_log`` would reject or
        misread its line.
        """
        _require_ints(episode=self.episode, step=self.step, obs=self.obs, action=self.action, next_obs=self.next_obs)
        reward, done, success = self.reward, self.done, self.action_success
        if reward.__class__ is bool or done.__class__ is not bool or success.__class__ is not bool:
            raise TypeError(
                f"reward {reward!r} must not be a bool, and done {done!r} and action_success {success!r} bools"
            )
        return (
            f'{{"episode":{self.episode},"step":{self.step},'
            f'"obs":[{_json_ints(tuple(map(int, self.obs)))}],"action":{self.action},'
            f'"next_obs":[{_json_ints(tuple(map(int, self.next_obs)))}],'
            f'"reward":{artifacts.SCALAR_TEXT.get(reward.__class__, json.dumps)(reward)},'
            f'"done":{"true" if done else "false"},"action_success":{"true" if success else "false"}}}'
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


def _require_ints(**fields) -> None:
    """Raise TypeError unless each field, or each value of an ``obs`` field, is an int or a numpy int."""
    for name, field in fields.items():
        for value in field if name.endswith("obs") else (field,):
            if value.__class__ is not int and (value.__class__ is bool or not isinstance(value, numbers.Integral)):
                raise TypeError(f"{name} {field!r} must {'be an int' if value is field else 'hold ints'}")


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


def write_log(rows, log_path) -> None:
    """Write each row's ``to_json`` line, formatting each distinct tail once as ``read_log`` parses it once.

    A row, the ``RECORD_FIELDS`` of a tuple or a ``TransitionRecord``, is taken
    from any iterable; lines go out ``_BLOCK_LINES`` to a write, and the log
    lands by ``artifacts.replacing``, its old manifest removed after the last
    line.  A row whose fields after ``step`` are the very objects of an earlier
    row's (a world, a sim and ``read_log`` share them) reuses its text, up to
    ``_MAX_TAILS`` tails; equal values of other types or signs (1, 1.0, True;
    0.0, -0.0) are other objects.  A row ``to_json`` rejects raises its
    TypeError, as does the iterable, and the log and manifest stay as they were.
    """
    tails: dict[tuple, tuple] = {}  # ids of those fields -> (the fields, kept so no id is reused; the tail)
    block: list[str] = []
    with artifacts.replacing(log_path, encoding="utf-8") as fh:
        for episode, step, obs, action, next_obs, reward, done, success in rows:
            if episode.__class__ is not int or step.__class__ is not int:
                _require_ints(episode=episode, step=step)
            key = (id(obs), id(action), id(next_obs), id(reward), id(done), id(success))
            kept = tails.get(key)
            if kept is None:
                line = TransitionRecord(episode, step, obs, action, next_obs, reward, done, success).to_json()
                kept = (obs, action, next_obs, reward, done, success), line[line.index('"obs":') - 1:] + "\n"
                if len(tails) < _MAX_TAILS:
                    tails[key] = kept
            block.append(f'{{"episode":{episode},"step":{step}{kept[1]}')
            if len(block) == _BLOCK_LINES:
                fh.write("".join(block))
                block.clear()
        fh.write("".join(block))
        manifest_path(log_path).unlink(missing_ok=True)


def read_log(log_path) -> list:
    """Parse a JSONL log strictly, one record per ``_scan`` row; corrupt lines raise LogValidationError."""
    return [TransitionRecord(episode, step, *fields) for _, episode, step, _, fields in _scan(log_path)]


def _scan(log_path):
    """Yield ``(lineno, episode, step, key, fields)`` for each non-blank line of a log, then raise for corrupt lines.

    ``lineno`` is the line's 1-based number in the file, blank lines counted;
    ``fields`` is ``(obs, action, next_obs, reward, done, action_success)``.
    A log repeats few texts after the ``{"episode":E,"step":S`` prefix of its
    lines.  Once a line exactly as ``TransitionRecord.to_json`` writes it has
    been parsed, its tail's fields are kept, up to ``_MAX_TAILS`` tails, and
    later lines with that tail skip ``json.loads``: their key is the tail,
    their fields the kept objects.  Any other line is parsed in full, also
    one not UTF-8, and keyed by its ``(obs, action, next_obs)``.
    """
    bad: list[tuple[int, str]] = []
    tails: dict[bytes, tuple] = {}  # canonical tail -> its fields
    match, kept = _CANONICAL_LINE.match, tails.get
    with open(log_path, "rb") as fh:
        for lineno, line in enumerate(map(bytes.strip, fh), start=1):
            if not line:
                continue
            canonical = match(line)
            if canonical:
                episode, step, tail = canonical.groups()
                fields = kept(tail)
                if fields is not None:
                    yield lineno, int(episode), int(step), tail, fields
                    continue
            try:
                rec = TransitionRecord.from_obj(json.loads(line.decode("utf-8")))
            except (ValueError, TypeError) as exc:  # UnicodeDecodeError and JSONDecodeError too
                bad.append((lineno, str(exc)))
                continue
            fields = rec.obs, rec.action, rec.next_obs, rec.reward, rec.done, rec.action_success
            key = fields[:3]
            if canonical and len(tails) < _MAX_TAILS and rec.to_json().encode() == line:
                tails[tail] = fields
                key = tail
            yield lineno, rec.episode, rec.step, key, fields
    if bad:
        lines = [ln for ln, _ in bad]
        detail = "; ".join(f"line {ln}: {msg}" for ln, msg in bad[:5])
        raise LogValidationError(
            f"{len(bad)} corrupt record(s) in {log_path} ({detail})", lines=lines
        )


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


class CollectionResult:
    """A dataset's manifest and, when it was written, its log's path.

    ``records`` are the ones given, or, when None is given, those of the log
    at ``log_path``, read by ``read_log`` on first access and kept: they are
    the file as it is then, found by its absolute path from when the result
    was made, so a later write over that path changes them.
    """

    def __init__(self, records: list | None, manifest: dict, log_path: Path | None = None):
        self._records, self.manifest, self.log_path = records, manifest, log_path
        self._log = None if log_path is None else os.path.abspath(log_path)

    @property
    def records(self) -> list:
        if self._records is None:
            self._records = read_log(self._log)
        return self._records


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
    offers ``random()`` and ``integers(n)``.  With ``out_path`` the records
    stream to the log as the episodes are played (see the module's notes),
    and the result's ``records`` are read back from the log if asked for.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    policy_rng = Draws(derive_seed(seed, "collection-policy"))
    steps = rollout(env, lambda obs: policy(obs, policy_rng), episodes, seed)
    rows = (
        (ep, step, obs, action, res.observation, res.reward, res.done, res.action_success)
        for ep, step, obs, action, res in steps
    )
    return _dataset(rows, env.metadata(), getattr(policy, "descriptor", "custom"), seed, out_path)


def _dataset(rows, source: dict, policy: str, seed, out_path, **extra) -> CollectionResult:
    """The dataset of ``write_log``'s ``rows``, its log and manifest written when ``out_path`` is given.

    ``source`` (an environment's ``metadata()`` or a source log's manifest)
    gives the fingerprint, dimensions, reward and game.  The rows give the
    rest, counted as they pass: ``total_steps`` is their number, and each
    step-0 row starts one of the ``episodes``, so ``o0`` lists the distinct
    observations they start from.  Without ``out_path`` a record is kept per
    row; with it the rows stream to the log in the order the module's notes give.
    """
    starts: list[Observation] = []
    total_steps = 0

    def counted():
        nonlocal total_steps
        for total_steps, row in enumerate(rows, 1):
            if row[1] == 0:
                starts.append(row[2])
            yield row

    log_path = None if out_path is None else Path(out_path)
    if log_path is None:
        records = [TransitionRecord(*row) for row in counted()]
    else:
        write_log(counted(), log_path)
        records = None
    manifest = {
        "format": LOG_FORMAT,
        "fingerprint": source["fingerprint"],
        "obs_dim": source["obs_dim"],
        "action_count": source["action_count"],
        "total_steps": total_steps,
        "episodes": len(starts),
        "o0": [list(o) for o in sorted(set(starts))],
        "policy": policy,
        "seed": seed,
        **extra,
        "reward": source.get("reward"),
        "game": source.get("game"),
    }
    if log_path is not None:
        write_manifest(manifest, log_path)
    return CollectionResult(records, manifest, log_path)


# --- merging and validation -------------------------------------------------

def _require_compatible(manifests) -> None:
    first = manifests[0]
    for m in manifests[1:]:
        require_same_network(m, first, IncompatibleDatasetError, "a log to merge was collected in")
        if m.get("o0") != first.get("o0"):
            raise IncompatibleDatasetError(f"manifest field 'o0' differs: {first.get('o0')!r} vs {m.get('o0')!r}")


def merge_logs(log_paths, out_path) -> CollectionResult:
    """Concatenate logs from the same environment, renumbering episodes.

    Each source of the iterable ``log_paths`` is audited in turn by
    ``read_clean_log``, then scanned again to stream it.  A source that fails
    its audit, or a line corrupt on the second scan, raises LogValidationError
    and nothing lands; a line that still parses is written as read.  The
    manifest's ``sources`` are the paths relative to the merged log's directory
    (or the current one), so they read the same however they are spelled.
    """
    log_paths = list(log_paths)
    if not log_paths:
        raise ValueError("need at least one log to merge")
    manifests = [read_clean_log(path)[1] for path in log_paths]
    _require_compatible(manifests)

    def merged():
        offset = 0
        for path in log_paths:  # each source's episodes in order of first appearance, after those merged so far
            remap: dict[int, int] = {}
            for _, episode, step, _, fields in _scan(path):
                yield remap.setdefault(episode, offset + len(remap)), step, *fields
            offset += len(remap)

    policy = "merged(" + ", ".join(m.get("policy", "?") for m in manifests) + ")"
    start = os.curdir if out_path is None else Path(out_path).parent
    names = [os.path.relpath(p, start) for p in log_paths]
    return _dataset(merged(), manifests[0], policy, None, out_path, sources=names)


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
    return _audit_log(log_path)[0]


def read_clean_log(log_path) -> tuple[CoverageReport, dict]:
    """The audit and manifest of a log that passes its audit.

    The log is scanned once and audited as ``validate_log`` audits it, and
    no record is built: a log that fails raises LogValidationError, even when
    its manifest is missing or not JSON.  Only a clean log without a
    readable manifest raises the manifest's own error.  The manifest is
    read once, after the scan, so a corrupt line outranks it.
    """
    report, manifest, error = _audit_log(log_path)
    if not report.clean:
        raise LogValidationError(
            f"log failed validation: {len(report.chain_violations)} chain violations, "
            f"{len(report.step_gaps)} step gaps, manifest_consistent={report.manifest_consistent}"
        )
    if error is not None:
        raise error
    return report, manifest


def _audit_log(log_path) -> tuple[CoverageReport, dict | None, Exception | None]:
    """The audit of one ``_scan`` of ``log_path``, checked against the log's manifest if it has one.

    The manifest is read after the scan, and returned with None, or as None with
    its error when it is missing, unreadable or not JSON.
    """
    report = _audit(_scan(log_path))
    try:
        manifest = read_manifest(log_path)
    except (OSError, json.JSONDecodeError) as exc:
        return report, None, exc
    _check_manifest(report, manifest, log_path)
    return report, manifest, None


def audit_records(records) -> CoverageReport:
    """The audit behind ``validate_log``, on any iterable of records, each keyed by its ``(obs, action, next_obs)``.

    The records give the report their log's lines give, less the manifest checks.
    """
    return _audit((None, rec.episode, rec.step, (key := (rec.obs, rec.action, rec.next_obs)), key) for rec in records)


def _audit(rows) -> CoverageReport:
    """The one pass over rows shaped as ``_scan``'s that checks chains and steps and tallies ``counts``.

    A key stands for the ``(obs, action, next_obs)`` of its fields' first
    three values; lines are tallied per key, and the current episode's last
    step and next observation are kept in locals.  The tallies are then
    folded into ``counts`` in order of first appearance.
    """
    tally: dict = {}  # key -> [its lines, the fields of its first]
    starts: set[Observation] = set()
    chain_violations: list[tuple[int, int]] = []
    step_gaps: list[tuple[int, int]] = []
    last: dict = {}  # episode -> (step, next_obs) of its last line; the current episode's is in locals
    nothing = object()
    episode_now, step_now, next_now = nothing, nothing, None

    for _, episode, step, key, fields in rows:
        seen = tally.get(key)
        if seen is None:
            tally[key] = [1, fields]
        else:
            seen[0] += 1
        if episode != episode_now:
            if episode_now is not nothing:
                last[episode_now] = step_now, next_now
            episode_now = episode
            step_now, next_now = last.get(episode, (nothing, None))
        obs = fields[0]
        if step == 0:
            starts.add(obs)
            if step_now is not nothing:
                step_gaps.append((episode, step))
        elif step_now != step - 1:
            step_gaps.append((episode, step))
        elif next_now != obs:
            chain_violations.append((episode, step))
        step_now, next_now = step, fields[2]
    if episode_now is not nothing:
        last[episode_now] = step_now, next_now

    counts: dict[tuple[Observation, int], dict[Observation, int]] = {}
    for n, fields in tally.values():
        outcomes = counts.setdefault((fields[0], fields[1]), {})
        outcomes[fields[2]] = outcomes.get(fields[2], 0) + n
    return CoverageReport(
        total_steps=sum(n for n, _ in tally.values()),
        episodes=len(last),
        counts=counts,
        start_observations=sorted(starts),
        chain_violations=chain_violations,
        step_gaps=step_gaps,
    )


def observations_in(counts: dict) -> set[Observation]:
    """The distinct observations, before and after, in a count table."""
    return {obs for obs, _ in counts}.union(*counts.values())


def _check_manifest(report: CoverageReport, manifest: dict, log_path) -> None:
    """Check the audit of the log at ``log_path`` against its manifest.

    Records the manifest's dimensions cannot hold raise LogValidationError:
    the distinct actions and observations of the counts are checked, and the
    log scanned again only to number the bad lines.  The totals set
    ``manifest_consistent``.
    """
    obs_dim = manifest["obs_dim"]
    valid_actions = range(manifest["action_count"])
    bad_actions = {a for _, a in report.counts if a not in valid_actions}
    bad_obs = {
        o for o in observations_in(report.counts) if len(o) != obs_dim or not all(0 <= v <= 255 for v in o)
    }
    if bad_actions or bad_obs:
        lines = [
            lineno
            for lineno, _, _, _, fields in _scan(log_path)
            if fields[1] in bad_actions or fields[0] in bad_obs or fields[2] in bad_obs
        ]
        raise LogValidationError(
            f"{len(lines)} record(s) out of range for obs_dim={obs_dim}, "
            f"action_count={manifest['action_count']} (first at line {lines[0]})",
            lines=lines,
        )
    report.manifest_consistent = (
        manifest.get("total_steps") == report.total_steps
        and manifest.get("episodes") == report.episodes
        and manifest.get("o0") == [list(o) for o in report.start_observations]
    )
