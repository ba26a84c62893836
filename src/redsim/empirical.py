"""Count-table transition model estimated from logs, and the fast simulator on top.

The generator is data-centric: it never interprets host or action
semantics, only the ``(obs, action, next_obs)`` triples in the log.  The
persisted representation is raw outcome counts, not probabilities --
counts are lossless sufficient statistics and merge by pointwise addition
(so shard builds commute).  A model's ``CountTable`` turns them into
probabilities once, for the planner and the fidelity audit; the sim draws
from the integer counts themselves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from . import artifacts, collect
from .envapi import INDEX, NON_NEGATIVE, POSITIVE, STEPS, UNIT, Env, GameConfig, Observation, TabularMDP
from .envapi import game_number, network, read_network, require_same_network

# The benchmark's per-layer tracer (perfbench/layers.py) wraps this name here too.
from .envapi import compute_reward  # noqa: F401, E402

MODEL_FORMAT = "redsim-model-v1"

_MAX_PAIR_VISITS = 2**53  # the most visits a pair may hold: count_table sums them in float64, exact up to here

FALLBACK_SELF = "self-transition"
FALLBACK_REJECT = "reject-action"


class ModelError(Exception):
    """Base class for empirical-model problems."""


class NoDataError(ModelError):
    """A sim step under the reject-action fallback reached an (observation, action) pair the data never saw."""


class AmbiguousStartError(ModelError):
    """Dataset contains more than one distinct episode-start observation."""


class IncompatibleModelError(ModelError):
    """A model meets a model or environment from another network."""


@dataclass(frozen=True)
class EmpiricalModel:
    """Outcome counts per (observation, action); ``table`` holds them as arrays, probabilities included.

    A model is fixed when it is made: its builders count first and construct
    it once, and rebinding a field raises ``dataclasses.FrozenInstanceError``.
    ``counts`` maps ``(obs, action)`` to ``{next obs: count}``; writing into
    that dict (or ``metadata``) is a caller error, as ``table`` is built from
    it once and never again.
    """

    obs_dim: int
    action_count: int
    fingerprint: str = ""
    x0: Observation | None = None
    metadata: dict = field(default_factory=dict, compare=False)
    counts: dict[tuple[Observation, int], dict[Observation, int]] = field(default_factory=dict)

    # -- queries -------------------------------------------------------------

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

    @cached_property
    def table(self) -> CountTable:
        """The counts as a ``CountTable``, built once per model; read-only arrays, as every reader shares them."""
        return count_table(self)

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
        ``0..action_count-1``, observation keys as ``save_model`` writes
        them, in lower-case hex, observations (``x0`` included) must hold
        ``obs_dim`` values in ``0..255``, every count must be a positive
        int and a pair's counts may sum to at most ``_MAX_PAIR_VISITS``.
        Keys and ranges are checked once per distinct action and observation.
        """
        try:
            fingerprint, obs_dim, action_count = read_network(payload, ModelError)
            x0, metadata = payload.get("x0"), payload.get("metadata", {})
            if metadata.__class__ is not dict:
                raise ModelError(f"metadata of type {type(metadata).__name__} must be an object")
            x0 = tuple(bytes(list(x0))) if x0 is not None else None  # bytes() rejects values outside 0..255
            counts: dict[tuple[Observation, int], dict[Observation, int]] = {}
            decoded: dict[str, Observation] = {}  # one tuple per distinct observation key
            for obs_hex, row in payload.get("counts", {}).items():
                obs = decoded.setdefault(obs_hex, tuple(bytes.fromhex(obs_hex)))
                for action_str, outcomes in row.items():
                    if not outcomes:
                        raise ModelError(f"no outcomes for observation {obs_hex} action {action_str}")
                    action = int(action_str)
                    if str(action) != action_str:
                        raise ModelError(f"action key {action_str!r} is not an int as str writes it")
                    counts[obs, action] = pair = {}
                    for next_hex, count in outcomes.items():
                        if count.__class__ is not int or count < 1:
                            raise ModelError(f"count {count!r} is not a positive integer")
                        next_obs = decoded.get(next_hex) or decoded.setdefault(next_hex, tuple(bytes.fromhex(next_hex)))
                        pair[next_obs] = count
                    if sum(pair.values()) > _MAX_PAIR_VISITS:
                        raise ModelError(f"counts of observation {obs_hex} action {action_str} sum past 2**53")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ModelError(f"malformed model payload: {exc!r}") from None
        bad_keys = sorted(key for key, obs in decoded.items() if bytes(obs).hex() != key)
        if bad_keys:
            raise ModelError(f"observation keys {bad_keys[:5]} are not lower-case hex as save_model writes them")
        model = cls(obs_dim, action_count, fingerprint, x0, metadata, counts)
        bad_actions = sorted({a for _, a in counts if not 0 <= a < action_count})
        bad_obs = sorted(bytes(obs).hex() for obs in model.observations() if len(obs) != obs_dim)
        if bad_actions or bad_obs:
            raise ModelError(
                f"model out of range for obs_dim={obs_dim}, action_count={action_count}: "
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
    """The model of a log ``collect.read_clean_log`` accepts: its audit's counts, its manifest's dimensions and game.

    A recorded ``reward`` and ``game`` the sim rejects, or that do not fit the model, raise ModelError.
    """
    _, report, manifest = collect.read_clean_log(log_path)
    metadata = {
        "reward": manifest.get("reward"),
        "game": manifest.get("game"),
        "source_total_steps": manifest.get("total_steps"),
        "source_episodes": manifest.get("episodes"),
        "source_policy": manifest.get("policy"),
        "source_seed": manifest.get("seed"),
        # what model_stats would say of the model: each observed pair and observation is in the audit's counts
        "build_stats": {
            "pair_support": report.visited_pairs,
            "total_transitions": report.total_steps,
            "observations_seen": report.unique_observations,
        },
    }
    model = _model_from_audit(report, manifest["obs_dim"], manifest["action_count"], manifest["fingerprint"], metadata)
    if metadata["reward"] is not None:
        compile_model(model, SimConfig.from_model(model))
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
    x0 = starts[0] if starts else None
    return EmpiricalModel(obs_dim, action_count, fingerprint, x0, dict(metadata or {}), report.counts)


def merge_models(a: EmpiricalModel, b: EmpiricalModel) -> EmpiricalModel:
    """Pointwise count addition.  Counts form a commutative monoid under merge.

    Of the metadata, only the ``reward`` and ``game`` of the first source that has any are kept,
    as ``collect.merge_logs`` keeps its first manifest's.  A pair summed past ``_MAX_PAIR_VISITS`` raises ModelError.
    """
    require_same_network(b, a, IncompatibleModelError, "the second model was counted in")
    if a.x0 is not None and b.x0 is not None and a.x0 != b.x0:
        raise IncompatibleModelError(f"start observations differ: {a.x0} vs {b.x0}")
    counts: dict[tuple[Observation, int], dict[Observation, int]] = {}
    for source in (a, b):
        for pair, outcomes in source.counts.items():
            summed = counts.setdefault(pair, {})
            for next_obs, count in outcomes.items():
                summed[next_obs] = summed.get(next_obs, 0) + count
    past = [pair for pair, outcomes in counts.items() if sum(outcomes.values()) > _MAX_PAIR_VISITS]
    if past:
        raise ModelError(f"merged counts of (observation, action) {past[0]} sum past 2**53")
    x0 = a.x0 if a.x0 is not None else b.x0
    source = a.metadata or b.metadata
    metadata = {key: source[key] for key in ("reward", "game") if key in source}
    return EmpiricalModel(a.obs_dim, a.action_count, a.fingerprint, x0, metadata, counts)


def save_model(model: EmpiricalModel, path) -> None:
    artifacts.write_artifact(path, MODEL_FORMAT, model.to_payload())


def load_model(path) -> EmpiricalModel:
    return EmpiricalModel.from_payload(artifacts.read_artifact(path, MODEL_FORMAT))


def model_stats(model: EmpiricalModel) -> dict:
    """Support and visit-count statistics at thresholds 1, 10 and 200; sparse support predicts erratic sims."""
    visits = model.table.visits
    visit_counts = sorted(visits[visits > 0].tolist())
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
        "observations_seen": len(model.table.states),
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


@dataclass(frozen=True, eq=False)
class CountTable:
    """A model's counts over integer state ids: the part of its law no ``SimConfig`` changes.

    ``states`` are the model's observations in sorted order, ``index`` maps
    each to its id and ``flags`` holds them as float rows.  Row
    ``r = s * action_count + a`` is the pair ``(states[s], a)``: its entries
    ``row_start[r]:row_start[r + 1]`` name each next-state id in
    ``next_state``, in id order, with its integer count in ``weight``, and
    ``visits[r]`` is the row's total.  A row the data never saw (``visits``
    0) holds one self-fallback entry back to its own state with weight 1;
    ``fallback`` lists where those entries sit.  ``prob[e]`` is entry
    ``e``'s weight over its row's visits, so each row's sum is 1 up to
    rounding and a fallback entry's is 1.0: the law the planner and the
    fidelity audit read (the sim draws on ``weight`` itself).  ``rise[i, e]``
    says entry ``e`` raises flag ``i``.
    """

    states: list[Observation]
    index: dict[Observation, int]
    flags: np.ndarray
    row_start: np.ndarray
    next_state: np.ndarray
    weight: np.ndarray
    visits: np.ndarray
    fallback: np.ndarray
    prob: np.ndarray
    rise: np.ndarray


def count_table(model: EmpiricalModel) -> CountTable:
    """The ``CountTable`` of ``model``'s counts, built with whole-array operations and set read-only."""
    states = sorted(model.observations())
    index = {obs: i for i, obs in enumerate(states)}
    actions, n_rows = model.action_count, len(states) * model.action_count
    # one entry per observed outcome, pair by pair in the counts' own order, then one per unseen row
    outcomes = model.counts.values()
    row = np.repeat(
        np.array([index[obs] * actions + action for obs, action in model.counts], dtype=np.int64),
        np.fromiter(map(len, outcomes), dtype=np.int64),
    )
    next_state = np.fromiter(map(index.__getitem__, chain.from_iterable(outcomes)), dtype=np.int64)
    weight = np.fromiter(chain.from_iterable(map(dict.values, outcomes)), dtype=np.int64)
    row_state = np.repeat(np.arange(len(states)), actions)
    visits = np.bincount(row, weight, n_rows).astype(np.int64)  # exact: no pair holds more than _MAX_PAIR_VISITS
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
    # observation values are bytes, which a float holds exactly
    flags = np.array(states, dtype=np.float64).reshape(len(states), model.obs_dim)
    source = row_state[row]
    table = CountTable(
        states=states,
        index=index,
        flags=flags,
        row_start=row_start,
        next_state=next_state,
        weight=weight,
        visits=visits,
        fallback=row_start[unseen],
        prob=weight / np.maximum(visits, 1)[row],
        rise=np.array([column[next_state] > column[source] for column in flags.T], dtype=bool),
    )
    for array in (flags, row_start, next_state, weight, visits, table.fallback, table.prob, table.rise):
        array.flags.writeable = False
    return table


def compile_model(model: EmpiricalModel, config: SimConfig) -> TabularMDP:
    """The model's law under ``config``'s rewards, goal and fallback: ``model.table`` priced.

    The rows are the table's.  Under the self-transition fallback a pair the
    data never saw keeps its one entry back to its own state, at ``-cost``;
    under reject-action its row is empty.  Each entry's reward is what
    ``compute_reward`` returns for it, summed flag by flag in its order.
    This is the one place a config is checked against its model: a model
    without ``x0``, or a config whose worth count, cost count or
    ``goal_index`` does not fit the model's ``obs_dim`` and
    ``action_count``, raises ModelError.
    """
    worths, costs, goal = config.flag_worths, config.action_costs, config.game.goal_index
    fits = (len(worths), len(costs)) == (model.obs_dim, model.action_count) and -model.obs_dim <= goal < model.obs_dim
    if model.x0 is None or not fits:
        raise ModelError(
            f"a game of {len(worths)} worths, {len(costs)} costs and goal_index {goal} does not fit a model of "
            f"obs_dim {model.obs_dim}, action_count {model.action_count} and start observation {model.x0}"
        )
    table = model.table
    gained = np.zeros(len(table.next_state))
    for worth, rises in zip(np.array(worths, dtype=np.float64), table.rise):
        gained += np.where(rises, worth, 0.0)  # compute_reward's flag order; adding 0.0 for an unchanged flag is exact
    reward = gained - np.repeat(np.tile(np.array(costs, dtype=np.float64), len(table.states)), np.diff(table.row_start))
    row_start, next_state, weight = table.row_start, table.next_state, table.weight
    if config.fallback == FALLBACK_REJECT:  # each unseen row loses its one entry
        row_start = row_start - np.concatenate(([0], np.cumsum(table.visits == 0)))
        next_state, weight, reward = (np.delete(a, table.fallback) for a in (next_state, weight, reward))
    return TabularMDP(
        states=table.states,
        action_count=model.action_count,
        row_start=row_start,
        next_state=next_state,
        weight=weight,
        reward=reward,
        goal=table.flags[:, goal] == 1,
        start=table.index[model.x0],
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
        self.fingerprint, self.obs_dim, self.action_count = network(model)
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
        draw = self._rng.integers(cumulative[hi] - base)
        entry = bisect_right(cumulative, base + draw, lo + 1, hi + 1) - 1
        self._state = next_state = self._next_state[entry]
        return self._states[next_state], self._reward[entry], next_state != state
