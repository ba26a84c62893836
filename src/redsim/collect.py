"""Transition logging: run collection policies, persist JSONL logs, merge shards.

A log is one JSON object per line with exactly the fields
``episode, step, obs, action, next_obs, reward, done, action_success``,
plus a JSON manifest sidecar (``<log>.manifest.json``) that records the
environment fingerprint, dimensions, totals and default reward/game
parameters.  Logs are append-only and corruption-localizing; merging
renumbers episodes and adds totals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

from .envapi import Env, Observation, derive_seed, rollout

import numpy as np

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

_INF = float("inf")


@lru_cache(maxsize=4096)
def _json_ints(values: tuple) -> str:
    """Comma-joined JSON text of a tuple of ints; a log repeats few observations."""
    return ",".join(map(str, values))


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
        """One log line, byte-identical to ``json.dumps`` of the record's fields."""
        reward = self.reward
        if reward.__class__ is float and -_INF < reward < _INF:
            reward = float.__repr__(reward)
        else:
            reward = json.dumps(reward)
        return (
            f'{{"episode":{self.episode},"step":{self.step},'
            f'"obs":[{_json_ints(self.obs)}],"action":{self.action},'
            f'"next_obs":[{_json_ints(self.next_obs)}],"reward":{reward},'
            f'"done":{"true" if self.done else "false"},'
            f'"action_success":{"true" if self.action_success else "false"}}}'
        )

    @classmethod
    def from_obj(cls, obj: dict) -> "TransitionRecord":
        try:
            return cls(
                int(obj["episode"]),
                int(obj["step"]),
                tuple(map(int, obj["obs"])),
                int(obj["action"]),
                tuple(map(int, obj["next_obs"])),
                float(obj["reward"]),
                bool(obj["done"]),
                bool(obj["action_success"]),
            )
        except KeyError:
            missing = [f for f in RECORD_FIELDS if f not in obj]
            raise ValueError(f"missing fields: {', '.join(missing)}") from None


def manifest_path(log_path) -> Path:
    return Path(str(log_path) + ".manifest.json")


def write_manifest(manifest: dict, log_path) -> Path:
    path = manifest_path(log_path)
    path.write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def read_manifest(log_path) -> dict:
    path = manifest_path(log_path)
    raw = path.read_bytes()
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:  # reported like a manifest that is not JSON
        raise json.JSONDecodeError(f"{path} is not UTF-8", raw.decode("latin-1"), exc.start) from None
    if manifest.get("format") != LOG_FORMAT:
        raise IncompatibleDatasetError(
            f"{path}: unexpected manifest format {manifest.get('format')!r}"
        )
    return manifest


def write_log(records, log_path) -> None:
    with open(log_path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{rec.to_json()}\n" for rec in records)


def read_log(log_path):
    """Parse a JSONL log strictly; corrupt lines, also lines that are not UTF-8, raise LogValidationError."""
    records = []
    bad: list[tuple[int, str]] = []
    with open(log_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TransitionRecord.from_obj(json.loads(line.decode("utf-8"))))
            except (ValueError, TypeError) as exc:  # UnicodeDecodeError and JSONDecodeError too
                bad.append((lineno, str(exc)))
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
        return int(rng.integers(action_count))

    pick.descriptor = "uniform-random"
    return pick


def epsilon_greedy_policy(greedy_fn, epsilon: float, action_count: int):
    """Explore uniformly with probability epsilon, otherwise follow greedy_fn."""

    def pick(obs, rng) -> int:
        if rng.random() < epsilon:
            return int(rng.integers(action_count))
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
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    policy_rng = np.random.default_rng(derive_seed(seed, "collection-policy"))
    records: list[TransitionRecord] = []
    starts: set[Observation] = set()
    steps = rollout(env, lambda obs: policy(obs, policy_rng), episodes, seed)
    for ep, step, obs, action, res in steps:
        if step == 0:
            starts.add(obs)
        records.append(
            TransitionRecord(
                episode=ep,
                step=step,
                obs=obs,
                action=action,
                next_obs=res.observation,
                reward=res.reward,
                done=res.done,
                action_success=bool(res.info.get("action_success", False)),
            )
        )

    meta = env.metadata()
    manifest = {
        "format": LOG_FORMAT,
        "fingerprint": meta["fingerprint"],
        "obs_dim": meta["obs_dim"],
        "action_count": meta["action_count"],
        "total_steps": len(records),
        "episodes": episodes,
        "o0": [list(o) for o in sorted(starts)],
        "policy": getattr(policy, "descriptor", "custom"),
        "seed": seed,
        "reward": meta["reward"],
        "game": meta["game"],
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
        for key in ("fingerprint", "obs_dim", "action_count", "o0"):
            if m.get(key) != first.get(key):
                raise IncompatibleDatasetError(
                    f"manifest field {key!r} differs: {first.get(key)!r} vs {m.get(key)!r}"
                )


def merge_logs(log_paths, out_path) -> CollectionResult:
    """Concatenate logs from the same environment, renumbering episodes."""
    if not log_paths:
        raise ValueError("need at least one log to merge")
    manifests = [read_manifest(p) for p in log_paths]
    _require_compatible(manifests)

    merged: list[TransitionRecord] = []
    next_episode = 0
    for path in log_paths:
        remap: dict[int, int] = {}
        for rec in read_log(path):
            if rec.episode not in remap:
                remap[rec.episode] = next_episode
                next_episode += 1
            merged.append(replace(rec, episode=remap[rec.episode]))

    first = manifests[0]
    manifest = {
        "format": LOG_FORMAT,
        "fingerprint": first["fingerprint"],
        "obs_dim": first["obs_dim"],
        "action_count": first["action_count"],
        "total_steps": len(merged),
        "episodes": next_episode,
        "o0": first["o0"],
        "policy": "merged(" + ", ".join(m.get("policy", "?") for m in manifests) + ")",
        "seed": None,
        "sources": [str(p) for p in log_paths],
        "reward": first.get("reward"),
        "game": first.get("game"),
    }
    log_path = Path(out_path)
    write_log(merged, log_path)
    write_manifest(manifest, log_path)
    return CollectionResult(records=merged, manifest=manifest, log_path=log_path)


@dataclass
class CoverageReport:
    total_steps: int
    episodes: int
    unique_observations: int
    visited_pairs: int
    per_action_counts: dict[int, int]
    start_observations: list[Observation]
    chain_violations: list[tuple[int, int]]
    step_gaps: list[tuple[int, int]]
    manifest_consistent: bool | None

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
    return audit_records(read_log(log_path), log_path)


def audit_records(records: list, log_path) -> CoverageReport:
    """The audit behind ``validate_log``, on records already parsed from ``log_path``.

    A manifest of another format raises; a missing, unreadable or non-JSON
    one leaves only the manifest checks out, so chain and step errors
    outrank a bad manifest.  With a manifest, records whose action lies
    outside ``0..action_count-1``, or whose observations differ from
    ``obs_dim`` in length or hold values outside ``0..255``, raise
    LogValidationError naming their 1-based line numbers in ``log_path``.
    """
    try:
        manifest = read_manifest(log_path)
    except (OSError, json.JSONDecodeError):
        manifest = None
    observations: set[Observation] = set()
    pairs: set[tuple[Observation, int]] = set()
    per_action: dict[int, int] = {}
    starts: set[Observation] = set()
    chain_violations: list[tuple[int, int]] = []
    step_gaps: list[tuple[int, int]] = []
    last: dict[int, TransitionRecord] = {}
    episodes: set[int] = set()

    for rec in records:
        episodes.add(rec.episode)
        observations.add(rec.obs)
        observations.add(rec.next_obs)
        pairs.add((rec.obs, rec.action))
        per_action[rec.action] = per_action.get(rec.action, 0) + 1
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

    manifest_ok = None
    if manifest is not None:
        _check_ranges(records, manifest, per_action, observations, log_path)
        manifest_ok = (
            manifest.get("total_steps") == len(records)
            and manifest.get("episodes") == len(episodes)
            and manifest.get("o0") == [list(o) for o in sorted(starts)]
        )

    return CoverageReport(
        total_steps=len(records),
        episodes=len(episodes),
        unique_observations=len(observations),
        visited_pairs=len(pairs),
        per_action_counts=per_action,
        start_observations=sorted(starts),
        chain_violations=chain_violations,
        step_gaps=step_gaps,
        manifest_consistent=manifest_ok,
    )


def _check_ranges(records: list, manifest: dict, actions, observations, log_path) -> None:
    """Raise LogValidationError for records the manifest's dimensions cannot hold.

    Checks the distinct actions and observations, and walks the records
    (and the log, for its blank lines) again only to number the bad ones.
    """
    obs_dim = manifest.get("obs_dim")
    valid_actions = range(manifest.get("action_count") or 0)
    bad_actions = {a for a in actions if a not in valid_actions}
    bad_obs = {
        o for o in observations if len(o) != obs_dim or not all(0 <= v <= 255 for v in o)
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
        f"action_count={manifest.get('action_count')} (first at line {lines[0]})",
        lines=lines,
    )


def _record_line_numbers(log_path, positions: list) -> list:
    """File line numbers of the records at 1-based ``positions``; ``read_log`` skips blank lines."""
    with open(log_path, "rb") as fh:
        record_lines = [n for n, line in enumerate(fh, start=1) if line.strip()]
    return [record_lines[p - 1] for p in positions]
