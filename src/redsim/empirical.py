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
from itertools import accumulate, chain

import numpy as np

from . import artifacts, collect
from .envapi import INDEX, NON_NEGATIVE, POSITIVE, STEPS, UNIT, Env, GameConfig, Observation, TabularMDP
from .envapi import game_number

# The benchmark's per-layer tracer (perfbench/layers.py) wraps this name here too.
from .envapi import compute_reward  # noqa: F401, E402

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
        seen = collect.observations_in(self.counts)
        return seen if self.x0 is None else seen | {self.x0}

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

        ``obs_dim`` and ``action_count`` must be positive ints, the
        fingerprint a string and ``metadata``, if given, an object.  Action
        keys must be written as ``str`` writes an int and lie in
        ``0..action_count-1``, observations (``x0`` included) must hold
        ``obs_dim`` values in ``0..255``, and every count must be a positive
        int.  Ranges are checked once per distinct action
        and observation.
        """
        try:
            x0, obs_dim, action_count = payload.get("x0"), payload["obs_dim"], payload["action_count"]
            if not all(n.__class__ is int and n >= 1 for n in (obs_dim, action_count)):
                raise ModelError(f"obs_dim {obs_dim!r} and action_count {action_count!r} must be positive ints")
            metadata = payload.get("metadata", {})
            if metadata.__class__ is not dict:
                raise ModelError(f"metadata of type {type(metadata).__name__} must be an object")
            model = cls(
                obs_dim=obs_dim,
                action_count=action_count,
                fingerprint=payload.get("fingerprint", ""),
                x0=bytes(list(x0)) if x0 is not None else None,  # bytes() rejects values outside 0..255
                metadata=metadata,
            )
            decoded: dict[str, Observation] = {}  # one tuple per distinct observation
            for obs_hex, row in payload.get("counts", {}).items():
                obs = decoded.setdefault(obs_hex, tuple(bytes.fromhex(obs_hex)))
                for action_str, outcomes in row.items():
                    if not outcomes:
                        raise ModelError(f"no outcomes for observation {obs_hex} action {action_str}")
                    action = int(action_str)
                    if str(action) != action_str:
                        raise ModelError(f"action key {action_str!r} is not an int as str writes it")
                    for next_hex, count in outcomes.items():
                        if count.__class__ is not int or count < 1:
                            raise ModelError(f"count {count!r} is not a positive integer")
                        next_obs = decoded.get(next_hex) or decoded.setdefault(
                            next_hex, tuple(bytes.fromhex(next_hex))
                        )
                        model.record(obs, action, next_obs, count)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"malformed model payload: {exc!r}") from None
        if model.fingerprint.__class__ is not str:
            raise ModelError(f"fingerprint of type {type(model.fingerprint).__name__} must be a string")
        bad_actions = sorted({a for _, a in model.counts if not 0 <= a < model.action_count})
        bad_obs = sorted(bytes(obs).hex() for obs in model.observations() if len(obs) != model.obs_dim)
        if bad_actions or bad_obs:
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
    """The model of any iterable of records, counted in one pass of ``collect.audit_records``.

    The dataset must contain exactly one distinct episode-start observation:
    multiple starts raise AmbiguousStartError rather than silently becoming a
    start distribution.
    """
    report = collect.audit_records(records, None, None)
    return _model_from_audit(report, obs_dim, action_count, fingerprint, metadata)


def build_model_from_log(log_path) -> EmpiricalModel:
    """The model of a log ``collect.read_clean_log`` accepts: its audit's counts, its manifest's dimensions and game."""
    _, report, manifest = collect.read_clean_log(log_path)
    metadata = {
        "reward": manifest.get("reward"),
        "game": manifest.get("game"),
        "source_total_steps": manifest.get("total_steps"),
        "source_episodes": manifest.get("episodes"),
        "source_policy": manifest.get("policy"),
        "source_seed": manifest.get("seed"),
    }
    model = _model_from_audit(report, manifest["obs_dim"], manifest["action_count"], manifest["fingerprint"], metadata)
    stats = model_stats(model)
    model.metadata["build_stats"] = {k: stats[k] for k in ("pair_support", "total_transitions", "observations_seen")}
    return model


def _model_from_audit(report: collect.CoverageReport, obs_dim, action_count, fingerprint, metadata) -> EmpiricalModel:
    """The model holding an audit's counts; an empty dataset raises ModelError, several starts AmbiguousStartError."""
    if not report.total_steps:
        raise ModelError("cannot build a model from an empty dataset")
    starts = report.start_observations
    if len(starts) > 1:
        raise AmbiguousStartError(
            f"{len(starts)} distinct episode-start observations in dataset"
        )
    model = EmpiricalModel(obs_dim, action_count, fingerprint, x0=starts[0] if starts else None, metadata=metadata)
    model.counts = report.counts
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
        for (obs, action), outcomes in source.counts.items():
            for next_obs, count in outcomes.items():
                merged.record(obs, action, next_obs, count)
    return merged


def save_model(model: EmpiricalModel, path) -> None:
    artifacts.write_artifact(path, MODEL_FORMAT, model.to_payload())


def load_model(path) -> EmpiricalModel:
    return EmpiricalModel.from_payload(artifacts.read_artifact(path, MODEL_FORMAT))


def model_stats(model: EmpiricalModel) -> dict:
    """Support and visit-count statistics at thresholds 1, 10 and 200; sparse support predicts erratic sims."""
    visit_counts = sorted(sum(v.values()) for v in model.counts.values())
    histogram: dict[str, int] = {}
    for count in visit_counts:
        bucket = 1 << (count.bit_length() - 1)
        label = f"{bucket}-{2 * bucket - 1}"
        histogram[label] = histogram.get(label, 0) + 1
    support = len(visit_counts)
    fraction_at_least = {
        int(k): (sum(1 for c in visit_counts if c >= k) / support if support else 0.0)
        for k in (1, 10, 200)
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
        cls, model: EmpiricalModel, max_steps: int | None = None, fallback: str = FALLBACK_SELF
    ) -> "SimConfig":
        """The game and rewards the model's manifest recorded, with ``max_steps`` replacing its horizon when given.

        ``envapi.game_number`` reads every recorded number, as it reads a
        scenario's; a ``reward`` or ``game`` that is no object, or a number it
        rejects, raises ModelError.
        """
        reward_meta, game_meta = model.metadata.get("reward"), model.metadata.get("game")
        if reward_meta is None:
            raise ModelError("model carries no reward defaults; build a SimConfig with them")
        game_meta = {} if game_meta is None else game_meta  # a log that recorded no game plays the default one
        try:
            worths, costs = reward_meta["flag_worths"], reward_meta["action_costs"]
            if worths.__class__ is not list or costs.__class__ is not list:
                raise ValueError(f"flag_worths {worths!r} and action_costs {costs!r} must be lists")
            worths = tuple(game_number(w, "flag_worths entry", NON_NEGATIVE) for w in worths)
            costs = tuple(game_number(c, "action_costs entry", POSITIVE) for c in costs)
            recorded_steps = game_number(game_meta.get("max_steps", 100), "game.max_steps", STEPS)
            gamma = game_number(game_meta.get("gamma", 1.0), "game.gamma", UNIT)
            goal_index = game_number(game_meta.get("goal_index", -1), "game.goal_index", INDEX)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:  # Type-, AttributeError: not an object
            raise ModelError(f"malformed game in model metadata: {exc!r}") from None
        max_steps = int(max_steps) if max_steps is not None else recorded_steps
        game = GameConfig(max_steps=max_steps, gamma=gamma, goal_index=goal_index)
        return cls(game=game, flag_worths=worths, action_costs=costs, fallback=fallback)


def compile_model(model: EmpiricalModel, config: SimConfig) -> TabularMDP:
    """The model's law under ``config``'s rewards, goal and fallback, over its observations in sorted order.

    Each row holds the outcome counts of one (observation, action) pair in
    sorted-observation order.  A pair the data never saw gets, under the
    self-transition fallback, one entry back to its own state with weight 1
    at ``-cost``; under reject-action its row stays empty.  Each entry's
    reward is what ``compute_reward`` returns for it.  This is the one
    place a config is checked against its model: a model without ``x0``, or
    a config whose worth count, cost count or ``goal_index`` does not fit the
    model's ``obs_dim`` and ``action_count``, raises ModelError.
    """
    worths, costs, goal = config.flag_worths, config.action_costs, config.game.goal_index
    fits = (len(worths), len(costs)) == (model.obs_dim, model.action_count) and -model.obs_dim <= goal < model.obs_dim
    if model.x0 is None or not fits:
        raise ModelError(
            f"a game of {len(worths)} worths, {len(costs)} costs and goal_index {goal} does not fit a model of "
            f"obs_dim {model.obs_dim}, action_count {model.action_count} and start observation {model.x0}"
        )
    states = sorted(model.observations())
    index = {obs: i for i, obs in enumerate(states)}
    actions, n_rows = model.action_count, len(states) * model.action_count
    # one entry per observed outcome, pair by pair in the counts' own order
    outcomes = model.counts.values()
    row = np.repeat(
        np.array([index[obs] * actions + action for obs, action in model.counts], dtype=np.int64),
        np.fromiter(map(len, outcomes), dtype=np.int64),
    )
    next_state = np.fromiter(map(index.__getitem__, chain.from_iterable(outcomes)), dtype=np.int64)
    weight = np.fromiter(chain.from_iterable(map(dict.values, outcomes)), dtype=np.int64)
    row_state = np.repeat(np.arange(len(states)), actions)
    if config.fallback == FALLBACK_SELF:
        unseen = np.ones(n_rows, dtype=bool)
        unseen[row] = False
        unseen = np.flatnonzero(unseen)
        row = np.concatenate((row, unseen))
        next_state = np.concatenate((next_state, row_state[unseen]))
        weight = np.concatenate((weight, np.ones(len(unseen), dtype=np.int64)))
    order = np.lexsort((next_state, row))
    row, next_state, weight = row[order], next_state[order], weight[order]
    row_start = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=row_start[1:])
    flags = np.array(states, dtype=np.float64)  # observation values are bytes, which a float holds exactly
    gains = np.where(flags[next_state] > flags[row_state[row]], np.array(worths, dtype=np.float64), 0.0)
    gained = np.zeros(len(row))
    for column in gains.T:  # compute_reward's flag order; adding 0.0 for an unchanged flag is exact
        gained += column
    return TabularMDP(
        states=states,
        action_count=actions,
        row_start=row_start,
        next_state=next_state,
        weight=weight,
        reward=gained - np.tile(np.array(costs, dtype=np.float64), len(states))[row],
        goal=flags[:, goal] == 1,
        start=index[model.x0],
    )


class EmpiricalSim(Env):
    """Environment that replays the estimated transition law.

    Sampling is exact in the rational sense: an outcome with count c out of
    a total of n is drawn with probability c/n via a uniform integer draw,
    so no floating-point normalisation error ever enters the dynamics.  The
    sim steps by state id through the model's compiled table.

    A step reports ``action_success`` when the observation changed, which
    is all the model can know about an action's outcome.
    """

    def __init__(self, model: EmpiricalModel, config: SimConfig | None = None, seed: int = 0):
        if config is None:
            config = SimConfig.from_model(model)
        mdp = compile_model(model, config)
        super().__init__(config.game, seed)
        self.model = model
        self.config = config
        self.obs_dim = model.obs_dim
        self.action_count = model.action_count
        self.fingerprint = model.fingerprint
        self.flag_worths = config.flag_worths
        self.action_costs = config.action_costs
        self._states = mdp.states
        self._start = mdp.start
        self._row_start = mdp.row_start.tolist()
        self._next_state = mdp.next_state.tolist()
        self._reward = mdp.reward.tolist()
        # Entry e's outcome owns the draws from _cumulative[e] up to _cumulative[e + 1].
        self._cumulative = [0, *accumulate(mdp.weight.tolist())]
        self._state = mdp.start

    def _reset_state(self) -> Observation:
        self._state = self._start
        return self._states[self._start]

    def _apply_action(self, action: int):
        state = self._state
        row = state * self.action_count + action
        lo, hi = self._row_start[row], self._row_start[row + 1]
        if lo == hi:
            raise NoDataError(
                f"no data for observation {self._states[state]} action {action} (fallback mode reject-action)"
            )
        cumulative = self._cumulative
        base = cumulative[lo]
        draw = int(self._rng.integers(cumulative[hi] - base))
        entry = bisect_right(cumulative, base + draw, lo + 1, hi + 1) - 1
        self._state = next_state = self._next_state[entry]
        return self._states[next_state], self._reward[entry], next_state != state
