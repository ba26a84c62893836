"""Count-table transition model estimated from logs, and the fast simulator on top.

The generator is data-centric: it never interprets host or action
semantics, only the ``(obs, action, next_obs)`` triples in the log.  The
persisted representation is raw outcome counts, not probabilities --
counts are lossless sufficient statistics, merge by pointwise addition
(so shard builds commute) and normalise to exact rational transition
probabilities on demand.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import artifacts, collect
from .envapi import Env, GameConfig, Observation, compute_reward

MODEL_FORMAT = "redsim-model-v1"

FALLBACK_SELF = "self-transition"
FALLBACK_REJECT = "reject-action"


class ModelError(Exception):
    """Base class for empirical-model problems."""


class NoDataError(ModelError):
    """The queried (observation, action) pair was never observed."""


class AmbiguousStartError(ModelError):
    """Dataset contains more than one distinct episode-start observation."""


class IncompatibleModelError(ModelError):
    """A model meets a model or environment from another network."""


class EmpiricalModel:
    """Outcome counts per (observation, action) with exact normalisation."""

    def __init__(
        self,
        obs_dim: int,
        action_count: int,
        fingerprint: str = "",
        x0: Observation | None = None,
        metadata: dict | None = None,
    ):
        self.obs_dim = int(obs_dim)
        self.action_count = int(action_count)
        self.fingerprint = fingerprint
        self.x0 = tuple(x0) if x0 is not None else None
        self.metadata = dict(metadata or {})
        # (obs, action) -> {next obs: count}
        self.counts: dict[tuple[Observation, int], dict[Observation, int]] = {}

    # -- construction -------------------------------------------------------

    def record(self, obs, action: int, next_obs, n: int = 1) -> None:
        outcomes = self.counts.setdefault((tuple(obs), int(action)), {})
        next_obs = tuple(next_obs)
        outcomes[next_obs] = outcomes.get(next_obs, 0) + n

    # -- queries -------------------------------------------------------------

    def outcome_counts(self, obs, action: int) -> dict[Observation, int]:
        try:
            return self.counts[(tuple(obs), int(action))]
        except KeyError:
            raise NoDataError(
                f"no data for observation {tuple(obs)} action {action}"
            ) from None

    def distribution(self, obs, action: int) -> dict[Observation, float]:
        """Normalised outcome probabilities; they sum to 1 by construction."""
        outcomes = self.outcome_counts(obs, action)
        total = sum(outcomes.values())
        return {k: c / total for k, c in sorted(outcomes.items())}

    def transition_prob(self, obs, action: int, next_obs) -> float:
        outcomes = self.outcome_counts(obs, action)
        total = sum(outcomes.values())
        return outcomes.get(tuple(next_obs), 0) / total

    def has_pair(self, obs, action: int) -> bool:
        return (tuple(obs), int(action)) in self.counts

    @property
    def pair_support(self) -> int:
        return len(self.counts)

    @property
    def total_transitions(self) -> int:
        return sum(sum(v.values()) for v in self.counts.values())

    def observations(self) -> set[Observation]:
        """Every observation in the counts, plus ``x0``."""
        seen = {self.x0} if self.x0 is not None else set()
        for (obs, _), outcomes in self.counts.items():
            seen.add(obs)
            seen.update(outcomes)
        return seen

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmpiricalModel):
            return NotImplemented
        return (
            self.obs_dim == other.obs_dim
            and self.action_count == other.action_count
            and self.fingerprint == other.fingerprint
            and self.x0 == other.x0
            and self.counts == other.counts
        )

    # -- serialisation --------------------------------------------------------

    def to_payload(self) -> dict:
        table: dict[str, dict[str, dict[str, int]]] = {}
        for (obs, action), outcomes in self.counts.items():
            row = table.setdefault(bytes(obs).hex(), {})
            row[str(action)] = {bytes(k).hex(): c for k, c in outcomes.items()}
        return {
            "obs_dim": self.obs_dim,
            "action_count": self.action_count,
            "fingerprint": self.fingerprint,
            "x0": list(self.x0) if self.x0 is not None else None,
            "counts": table,
            "metadata": self.metadata,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "EmpiricalModel":
        """The model a payload holds; malformed or out-of-range contents raise ModelError.

        Actions must lie in ``0..action_count-1``, observations (``x0``
        included) must hold ``obs_dim`` values in ``0..255``, and every
        count must be a positive int.  Ranges are checked once per distinct
        action and observation.
        """
        try:
            x0 = payload.get("x0")
            model = cls(
                obs_dim=payload["obs_dim"],
                action_count=payload["action_count"],
                fingerprint=payload.get("fingerprint", ""),
                x0=bytes(list(x0)) if x0 is not None else None,  # bytes() rejects values outside 0..255
                metadata=payload.get("metadata"),
            )
            decoded: dict[str, Observation] = {}  # one tuple per distinct observation
            for obs_hex, row in payload.get("counts", {}).items():
                obs = decoded.setdefault(obs_hex, tuple(bytes.fromhex(obs_hex)))
                for action_str, outcomes in row.items():
                    if not outcomes:
                        raise ModelError(f"no outcomes for observation {obs_hex} action {action_str}")
                    bucket = model.counts.setdefault((obs, int(action_str)), {})
                    for next_hex, count in outcomes.items():
                        if count.__class__ is not int or count < 1:
                            raise ModelError(f"count {count!r} is not a positive integer")
                        next_obs = decoded.get(next_hex) or decoded.setdefault(
                            next_hex, tuple(bytes.fromhex(next_hex))
                        )
                        bucket[next_obs] = bucket.get(next_obs, 0) + count
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"malformed model payload: {exc!r}") from None
        bad_actions = sorted({a for _, a in model.counts if not 0 <= a < model.action_count})
        bad_obs = sorted(bytes(obs).hex() for obs in model.observations() if len(obs) != model.obs_dim)
        if model.obs_dim < 1 or model.action_count < 1 or bad_actions or bad_obs:
            raise ModelError(
                f"model out of range for obs_dim={model.obs_dim}, action_count={model.action_count}: "
                f"actions {bad_actions[:5]}, observations {bad_obs[:5]}"
            )
        return model


def build_model(
    records,
    obs_dim: int,
    action_count: int,
    fingerprint: str = "",
    metadata: dict | None = None,
) -> EmpiricalModel:
    """Single pass over the dataset; exact counts, start observation from step 0.

    The dataset must contain exactly one distinct episode-start observation:
    multiple starts raise AmbiguousStartError rather than silently becoming a
    start distribution.
    """
    model = EmpiricalModel(obs_dim, action_count, fingerprint, metadata=metadata)
    starts: set[Observation] = set()
    empty = True
    for rec in records:
        empty = False
        if rec.step == 0:
            starts.add(rec.obs)
        model.record(rec.obs, rec.action, rec.next_obs)
    if empty:
        raise ModelError("cannot build a model from an empty dataset")
    if len(starts) > 1:
        raise AmbiguousStartError(
            f"{len(starts)} distinct episode-start observations in dataset"
        )
    if starts:
        model.x0 = starts.pop()
    return model


def build_model_from_log(log_path) -> EmpiricalModel:
    """Build from a JSONL log that passes its audit, taking dimensions and defaults from its manifest.

    The log is parsed once and audited as ``validate_log`` audits it: a
    log that fails raises LogValidationError, even when its manifest is
    missing or not JSON.  Only a clean log without a readable manifest
    raises the manifest's own error.
    """
    records = collect.read_log(log_path)
    report = collect.audit_records(records, log_path)
    if not report.clean:
        raise collect.LogValidationError(
            f"log failed validation: {len(report.chain_violations)} chain violations, "
            f"{len(report.step_gaps)} step gaps, manifest_consistent={report.manifest_consistent}"
        )
    manifest = collect.read_manifest(log_path)
    metadata = {
        "reward": manifest.get("reward"),
        "game": manifest.get("game"),
        "source_total_steps": manifest.get("total_steps"),
        "source_episodes": manifest.get("episodes"),
        "source_policy": manifest.get("policy"),
        "source_seed": manifest.get("seed"),
    }
    model = build_model(
        records,
        obs_dim=manifest["obs_dim"],
        action_count=manifest["action_count"],
        fingerprint=manifest["fingerprint"],
        metadata=metadata,
    )
    model.metadata["build_stats"] = {
        "pair_support": model.pair_support,
        "total_transitions": model.total_transitions,
        "observations_seen": len(model.observations()),
    }
    return model


def merge_models(a: EmpiricalModel, b: EmpiricalModel) -> EmpiricalModel:
    """Pointwise count addition.  Counts form a commutative monoid under merge."""
    for attr in ("obs_dim", "action_count", "fingerprint"):
        if getattr(a, attr) != getattr(b, attr):
            raise IncompatibleModelError(
                f"{attr} differs: {getattr(a, attr)!r} vs {getattr(b, attr)!r}"
            )
    if a.x0 is not None and b.x0 is not None and a.x0 != b.x0:
        raise IncompatibleModelError(f"start observations differ: {a.x0} vs {b.x0}")
    merged = EmpiricalModel(
        a.obs_dim,
        a.action_count,
        a.fingerprint,
        x0=a.x0 if a.x0 is not None else b.x0,
        metadata=a.metadata or b.metadata,
    )
    for source in (a, b):
        for key, outcomes in source.counts.items():
            bucket = merged.counts.setdefault(key, {})
            for next_key, count in outcomes.items():
                bucket[next_key] = bucket.get(next_key, 0) + count
    return merged


def save_model(model: EmpiricalModel, path) -> None:
    artifacts.write_artifact(path, MODEL_FORMAT, model.to_payload())


def load_model(path) -> EmpiricalModel:
    return EmpiricalModel.from_payload(artifacts.read_artifact(path, MODEL_FORMAT))


def model_stats(model: EmpiricalModel, thresholds=(1, 10, 200)) -> dict:
    """Support and visit-count statistics; sparse support predicts erratic sims."""
    visit_counts = sorted(sum(v.values()) for v in model.counts.values())
    histogram: dict[str, int] = {}
    for count in visit_counts:
        bucket = 1 << (count.bit_length() - 1)
        label = f"{bucket}-{2 * bucket - 1}"
        histogram[label] = histogram.get(label, 0) + 1
    support = len(visit_counts)
    fraction_at_least = {
        int(k): (sum(1 for c in visit_counts if c >= k) / support if support else 0.0)
        for k in thresholds
    }
    return {
        "observations_seen": len(model.observations()),
        "pair_support": support,
        "total_transitions": sum(visit_counts),
        "min_visits": visit_counts[0] if visit_counts else 0,
        "median_visits": visit_counts[support // 2] if visit_counts else 0,
        "max_visits": visit_counts[-1] if visit_counts else 0,
        "visit_histogram": histogram,
        "fraction_at_least": fraction_at_least,
    }


@dataclass(frozen=True)
class SimConfig:
    """Reward and game parameters under which the generated sim is played.

    Rewards are recomputed from observations, never replayed from the log,
    so the same model supports games the data was not collected under.  The
    fallback mode decides what an unseen (obs, action) pair does:
    ``self-transition`` keeps the episode alive at -cost without inventing
    dynamics, ``reject-action`` raises NoDataError to the caller.
    """

    game: GameConfig
    flag_worths: tuple[float, ...]
    action_costs: tuple[float, ...]
    fallback: str = FALLBACK_SELF

    def __post_init__(self):
        if self.fallback not in (FALLBACK_SELF, FALLBACK_REJECT):
            raise ValueError(f"unknown fallback mode {self.fallback!r}")

    @classmethod
    def from_model(
        cls,
        model: EmpiricalModel,
        max_steps: int | None = None,
        gamma: float | None = None,
        fallback: str = FALLBACK_SELF,
        flag_worths=None,
        action_costs=None,
    ) -> "SimConfig":
        """Defaults from the model's recorded manifest, with per-game overrides."""
        reward_meta = model.metadata.get("reward") or {}
        game_meta = model.metadata.get("game") or {}
        worths = flag_worths if flag_worths is not None else reward_meta.get("flag_worths")
        costs = action_costs if action_costs is not None else reward_meta.get("action_costs")
        if worths is None or costs is None:
            raise ModelError(
                "model carries no reward defaults; pass flag_worths and action_costs"
            )
        game = GameConfig(
            max_steps=int(max_steps if max_steps is not None else game_meta.get("max_steps", 100)),
            gamma=float(gamma if gamma is not None else game_meta.get("gamma", 1.0)),
            goal_index=int(game_meta.get("goal_index", -1)),
        )
        return cls(
            game=game,
            flag_worths=tuple(float(w) for w in worths),
            action_costs=tuple(float(c) for c in costs),
            fallback=fallback,
        )


class EmpiricalSim(Env):
    """Environment that replays the estimated transition law.

    Sampling is exact in the rational sense: an outcome with count c out of
    a total of n is drawn with probability c/n via a uniform integer draw,
    so no floating-point normalisation error ever enters the dynamics.

    ``info['action_success']`` reports whether the observation changed,
    which is all the model can know about an action's outcome.
    """

    def __init__(self, model: EmpiricalModel, config: SimConfig | None = None, seed: int = 0):
        if config is None:
            config = SimConfig.from_model(model)
        if model.x0 is None:
            raise ModelError("model has no start observation; cannot run episodes")
        if len(config.action_costs) != model.action_count:
            raise ModelError(
                f"{len(config.action_costs)} action costs for "
                f"{model.action_count} actions"
            )
        if len(config.flag_worths) != model.obs_dim:
            raise ModelError(
                f"{len(config.flag_worths)} feature worths for "
                f"observation dimension {model.obs_dim}"
            )
        super().__init__(config.game, seed)
        self.model = model
        self.config = config
        self.obs_dim = model.obs_dim
        self.action_count = model.action_count
        self.fingerprint = model.fingerprint
        # Frozen sampling tables: outcomes in observation order, cumulative counts.
        self._samplers: dict[tuple[Observation, int], tuple[list[int], list[Observation], int]] = {}
        for key, outcomes in model.counts.items():
            ordered = sorted(outcomes.items())
            cum: list[int] = []
            nexts: list[Observation] = []
            running = 0
            for next_key, count in ordered:
                running += count
                cum.append(running)
                nexts.append(next_key)
            self._samplers[key] = (cum, nexts, running)
        self._obs: Observation = model.x0

    def _reset_state(self) -> Observation:
        self._obs = self.model.x0
        return self._obs

    def _apply_action(self, action: int):
        obs = self._obs
        sampler = self._samplers.get((obs, action))
        if sampler is None:
            if self.config.fallback == FALLBACK_REJECT:
                raise NoDataError(
                    f"no data for observation {obs} action {action} "
                    "(fallback mode reject-action)"
                )
            next_obs = obs
        else:
            cum, nexts, total = sampler
            draw = int(self._rng.integers(total))
            next_obs = nexts[bisect_right(cum, draw)]
        reward = compute_reward(
            self.config.flag_worths, obs, next_obs, self.config.action_costs[action]
        )
        self._obs = next_obs
        return next_obs, reward, {"action_success": next_obs != obs}

    def metadata(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "obs_dim": self.obs_dim,
            "action_count": self.action_count,
            "reward": {
                "flag_worths": list(self.config.flag_worths),
                "action_costs": list(self.config.action_costs),
            },
            "game": {
                "max_steps": self.game.max_steps,
                "gamma": self.game.gamma,
                "goal_index": self.game.goal_index,
            },
        }
