"""Ground-truth stochastic attack-graph environment.

The world is the slow-but-true side of the pipeline: a small network of
hosts with scan / exploit / escalate / objective actions, stochastic
action outcomes, and an exact transition law.  ``Scenario.rules`` packs
each action's law once per scenario, over states packed into ints whose bit
i is flag i.  The sampling world, which steps on such an int, the
``exact_transition`` oracle, ``shortest_success_path`` and
``compile_world``'s table all follow it; ``Scenario.law`` keeps that table,
compiled once, for the fidelity audit and the value-iteration planner.

Observation layout: three flags per host in declared order
(discovered, user access, root access) followed by one global
objective-reached flag.  Flags are monotone within an episode: the world
models a red agent only, so access is never revoked.  That construction
makes the world observation-Markov by design, which is what legitimises
estimating transitions conditioned on observations alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .envapi import NON_NEGATIVE, POSITIVE, STEPS, UNIT, Env, GameConfig, Observation, TabularMDP
from .envapi import compute_reward, game_number, network

ACTION_KINDS = ("scan", "exploit_user", "escalate_root", "objective")

# The most observations an exhaustive enumeration of a scenario may reach.
MAX_OBS = 100_000

NOISE = (float, lambda v: 0.0 <= v < 0.5, "a number in [0, 0.5)")  # a range of ``envapi.game_number``


class ScenarioError(Exception):
    """Base class for scenario definition problems."""


class ScenarioParseError(ScenarioError):
    """Config document is syntactically or structurally invalid."""


class DanglingReferenceError(ScenarioError):
    """A host/action references an id that does not exist."""


class UnreachableObjectiveError(ScenarioError):
    """No action path leads from the entry foothold to the objective."""


class EnumerationBudgetError(ScenarioError):
    """Reachable observation space exceeds the exhaustive-enumeration budget."""


@dataclass(frozen=True)
class HostSpec:
    id: str
    worth: float
    neighbors: tuple[str, ...]


@dataclass(frozen=True)
class ActionSpec:
    id: int
    kind: str
    target: str
    success_prob: float
    cost: float


class ActionRule(NamedTuple):
    """An action's packed law, derived once per scenario from its spec.

    The action is eligible in a packed state that shares a set bit with
    every mask in ``needs``.  An eligible action sets flag ``effect`` with
    probability ``success_prob``, the spec's probability with the outcome
    noise folded in, and pays ``gain``; otherwise, or when the flag is
    already set, nothing changes and the step pays ``stay``.
    """

    needs: tuple[int, ...]
    effect: int
    success_prob: float
    gain: float
    stay: float


@dataclass(frozen=True)
class RewardConfig:
    """Worth granted the first time each kind of access appears, plus costs."""

    user_worth: float = 0.0
    root_worth: float = 0.0
    objective_bonus: float = 100.0
    action_cost: float = 1.0


@dataclass(frozen=True)
class Scenario:
    name: str
    hosts: tuple[HostSpec, ...]
    entry_host: str
    objective_host: str
    actions: tuple[ActionSpec, ...]
    reward: RewardConfig
    game: GameConfig
    noise: float = 0.0
    step_latency_ms: float = 0.0

    @cached_property  # kept in the instance __dict__, which a frozen dataclass still has
    def host_index(self) -> dict[str, int]:
        return {h.id: i for i, h in enumerate(self.hosts)}

    @cached_property
    def rules(self) -> tuple[ActionRule, ...]:
        """The rule of each action, by action id."""
        return tuple(_action_rule(self, action) for action in self.actions)

    @cached_property
    def law(self) -> TabularMDP:
        """``compile_world(self)``, compiled once per scenario; read-only arrays, as every reader shares them."""
        law = compile_world(self)
        for array in (law.row_start, law.next_state, law.prob, law.reward, law.goal):
            array.flags.writeable = False
        return law

    @property
    def obs_dim(self) -> int:
        return 3 * len(self.hosts) + 1

    @property
    def action_count(self) -> int:
        return len(self.actions)

    @property
    def objective_flag(self) -> int:
        return 3 * len(self.hosts)

    def flag_worths(self) -> tuple[float, ...]:
        """Per-feature worth vector aligned with the observation layout."""
        worths: list[float] = []
        for host in self.hosts:
            worths.extend((host.worth, self.reward.user_worth, self.reward.root_worth))
        worths.append(self.reward.objective_bonus)
        return tuple(worths)

    def action_costs(self) -> tuple[float, ...]:
        return tuple(a.cost for a in self.actions)

    def initial_observation(self) -> Observation:
        flags = [0] * self.obs_dim
        entry = self.host_index[self.entry_host]
        flags[3 * entry] = 1      # discovered
        flags[3 * entry + 1] = 1  # user access: the initial foothold
        return tuple(flags)

    @property
    def fingerprint(self) -> str:
        """Content hash over everything that shapes the transition dynamics.

        Reward parameters, costs and the game horizon are deliberately
        excluded: logs collected under different reward shapings or episode
        lengths on the same network remain mergeable, because they sample
        the same transition law.
        """
        doc = {
            "hosts": [{"id": h.id, "neighbors": list(h.neighbors)} for h in self.hosts],
            "entry_host": self.entry_host,
            "objective_host": self.objective_host,
            "actions": [
                {"kind": a.kind, "target": a.target, "success_prob": a.success_prob}
                for a in self.actions
            ],
            "noise": self.noise,
        }
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _auto_actions(hosts, objective_host, defaults) -> list[dict]:
    """Standard action set: scan/exploit/escalate per host plus one objective, each with its kind's defaults."""
    targets = [(kind, host.id) for host in hosts for kind in ("scan", "exploit_user", "escalate_root")]
    targets.append(("objective", objective_host))
    return [{**defaults.get(kind, {}), "kind": kind, "target": target} for kind, target in targets]


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario document and return the immutable Scenario.

    Raises ScenarioParseError / DanglingReferenceError /
    UnreachableObjectiveError as appropriate.  Every number is read by
    ``envapi.game_number``, so a value of the wrong type anywhere in the
    document (a numeric string or a bool where a number belongs, a
    ``max_steps`` that is not an int) and a number outside its range (a NaN
    or infinite worth, reward, cost or latency) raise ScenarioParseError.
    """
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    try:
        scenario = _parse_document(data)
    except KeyError as exc:
        raise ScenarioParseError(f"missing required key {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ScenarioParseError(f"malformed scenario document: {exc}") from None
    if shortest_success_path(scenario) is None:
        raise UnreachableObjectiveError(
            f"objective host {scenario.objective_host!r} cannot be reached "
            "from the entry foothold with the declared actions"
        )
    return scenario


def _check_keys(doc: dict, known, where: str) -> None:
    """Reject a key ``doc`` does not define, so that a misspelt field cannot silently take its default."""
    if doc.keys() - known:
        raise ScenarioParseError(f"{where}: unknown keys {sorted(doc.keys() - known)}")


def _parse_document(data: dict) -> Scenario:
    _check_keys(data, ("name", "hosts", "entry_host", "objective_host", "actions", "auto_actions",
                       "action_defaults", "reward", "game", "noise", "step_latency_ms"), "scenario")
    host_docs = list(data["hosts"])
    entry_host = data["entry_host"]
    objective_host = data["objective_host"]

    hosts = []
    ids = set()
    for i, doc in enumerate(host_docs):
        _check_keys(doc, ("id", "worth", "neighbors"), f"host {i}")
        hid = doc.get("id")
        if not isinstance(hid, str) or not hid:
            raise ScenarioParseError("every host needs a non-empty string id")
        if hid in ids:
            raise ScenarioParseError(f"duplicate host id {hid!r}")
        ids.add(hid)
        worth = game_number(doc.get("worth", 0.0), f"host {hid!r} worth", NON_NEGATIVE)
        neighbors = doc.get("neighbors", [])
        if neighbors.__class__ is not list:
            raise ScenarioParseError(f"host {hid!r} neighbors must be a list of host ids")
        hosts.append(HostSpec(id=hid, worth=worth, neighbors=tuple(neighbors)))
    if not hosts:
        raise ScenarioParseError("scenario needs at least one host")

    for host in hosts:
        for nb in host.neighbors:
            if nb not in ids:
                raise DanglingReferenceError(
                    f"host {host.id!r} references unknown neighbor {nb!r}"
                )
    for key, value in (("entry_host", entry_host), ("objective_host", objective_host)):
        if value not in ids:
            raise DanglingReferenceError(f"{key} {value!r} is not a declared host")

    reward_doc = data.get("reward", {})
    _check_keys(reward_doc, ("user_worth", "root_worth", "objective_bonus", "action_cost"), "reward")
    reward = RewardConfig(
        user_worth=game_number(reward_doc.get("user_worth", 0.0), "reward.user_worth", NON_NEGATIVE),
        root_worth=game_number(reward_doc.get("root_worth", 0.0), "reward.root_worth", NON_NEGATIVE),
        objective_bonus=game_number(reward_doc.get("objective_bonus", 100.0), "reward.objective_bonus", NON_NEGATIVE),
        action_cost=game_number(reward_doc.get("action_cost", 1.0), "reward.action_cost", POSITIVE),
    )

    if data.get("auto_actions"):
        if "actions" in data:
            raise ScenarioParseError("give either auto_actions or an explicit action list")
        defaults = data.get("action_defaults", {})
        _check_keys(defaults, ACTION_KINDS, "action_defaults")
        for kind, entry in defaults.items():
            _check_keys(entry, ("success_prob", "cost"), f"action_defaults {kind!r}")
        action_docs = _auto_actions(hosts, objective_host, defaults)
    else:
        if "action_defaults" in data:
            raise ScenarioParseError("action_defaults apply to auto_actions only, not to an explicit action list")
        action_docs = data.get("actions")
        if not action_docs:
            raise ScenarioParseError("scenario needs actions or auto_actions: true")

    actions = []
    for i, doc in enumerate(action_docs):
        _check_keys(doc, ("kind", "target", "success_prob", "cost"), f"action {i}")
        kind = doc.get("kind")
        if kind not in ACTION_KINDS:
            raise ScenarioParseError(f"action {i}: unknown kind {kind!r}")
        target = doc.get("target")
        if target not in ids:
            raise DanglingReferenceError(f"action {i} targets unknown host {target!r}")
        if kind == "objective" and target != objective_host:
            raise ScenarioParseError(
                f"action {i}: objective actions must target the objective host"
            )
        prob = game_number(doc.get("success_prob", 1.0), f"action {i}: success_prob", UNIT)
        cost = game_number(doc.get("cost", reward.action_cost), f"action {i}: cost", POSITIVE)
        actions.append(
            ActionSpec(id=i, kind=kind, target=target, success_prob=prob, cost=cost)
        )

    game_doc = data.get("game", {})
    _check_keys(game_doc, ("max_steps", "gamma"), "game")
    game = GameConfig(
        max_steps=game_number(game_doc.get("max_steps", 100), "game.max_steps", STEPS),
        gamma=game_number(game_doc.get("gamma", 1.0), "game.gamma", UNIT),
        goal_index=3 * len(hosts),
    )
    name = data.get("name", "")
    if name.__class__ is not str:
        raise ScenarioParseError(f"name must be a string, got {name!r}")

    return Scenario(
        name=name,
        hosts=tuple(hosts),
        entry_host=entry_host,
        objective_host=objective_host,
        actions=tuple(actions),
        reward=reward,
        game=game,
        noise=game_number(data.get("noise", 0.0), "noise", NOISE),
        step_latency_ms=game_number(data.get("step_latency_ms", 0.0), "step_latency_ms", NON_NEGATIVE),
    )


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"scenario file is not UTF-8: {exc}") from None
    return scenario_from_json(text)


def scenario_from_json(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int too long for Python to read
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    return parse_scenario(data)


# --- exact dynamics -------------------------------------------------------

def _pack(flags) -> int:
    return sum(int(v) << i for i, v in enumerate(flags))


def _unpack(state: int, dim: int) -> Observation:
    return tuple([(state >> i) & 1 for i in range(dim)])


def _action_rule(scenario: Scenario, action: ActionSpec) -> ActionRule:
    """What ``action`` needs and sets, how often it works and what it pays.

    ``scan`` needs a user or root foothold on a neighbor of its target;
    ``exploit_user`` needs that and the target discovered; ``escalate_root``
    needs user access on the target; ``objective`` needs root on it.  With
    probability ``noise`` the sampled outcome of an eligible action is
    inverted, modelling emulator flakiness (failed resets, dropped sessions).
    """
    idx = scenario.host_index
    t = idx[action.target]
    footholds = 0  # user or root access on any neighbor
    for nb in scenario.hosts[t].neighbors:
        footholds |= 0b11 << 3 * idx[nb] + 1
    if action.kind == "scan":
        needs, effect = (footholds,), 3 * t
    elif action.kind == "exploit_user":
        needs, effect = (1 << 3 * t, footholds), 3 * t + 1
    elif action.kind == "escalate_root":
        needs, effect = (1 << 3 * t + 1,), 3 * t + 2
    else:  # objective
        needs, effect = (1 << 3 * t + 2,), scenario.objective_flag
    p, eps = action.success_prob, scenario.noise
    worths = scenario.flag_worths()
    none = (0,) * scenario.obs_dim
    gain = compute_reward(worths, none, _unpack(1 << effect, scenario.obs_dim), action.cost)
    stay = compute_reward(worths, none, none, action.cost)
    return ActionRule(needs, effect, p * (1.0 - eps) + (1.0 - p) * eps, gain, stay)


def exact_transition(scenario: Scenario, flags, action: ActionSpec):
    """Exact outcome distribution as a list of (next_obs, probability).

    The sampling environment draws from exactly this distribution, and
    ``compile_world`` tabulates it.  Outcomes that coincide (idempotent
    effects) are merged.
    """
    needs, effect, p, _, _ = scenario.rules[action.id]
    flags, state = tuple(flags), _pack(flags)
    if flags[effect] or not all(state & need for need in needs):
        return [(flags, 1.0)]
    success = _unpack(state | 1 << effect, len(flags))
    if p >= 1.0:
        return [(success, 1.0)]
    return [(success, p), (flags, 1.0 - p)]


class AttackWorld(Env):
    """Samples episodes from the scenario's exact transition distributions."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        super().__init__(scenario.game, seed)
        self.scenario = scenario
        self.fingerprint, self.obs_dim, self.action_count = network(scenario)
        self.flag_worths = scenario.flag_worths()
        self.action_costs = scenario.action_costs()
        self._latency_s = scenario.step_latency_ms / 1000.0
        self._rules = scenario.rules
        self._start = self._state = _pack(scenario.initial_observation())
        self._observations: dict[int, Observation] = {}

    def _observation(self, state: int) -> Observation:
        obs = self._observations.get(state)
        if obs is None:
            obs = self._observations[state] = _unpack(state, self.obs_dim)
        return obs

    def _reset_state(self) -> Observation:
        self._state = self._start
        return self._observation(self._start)

    def _apply_action(self, action: int):
        if self._latency_s > 0:
            time.sleep(self._latency_s)
        needs, effect, p, gain, stay = self._rules[action]
        state = self._state
        for need in needs:
            if not state & need:  # not eligible: no draw, no change
                return self._observation(state), stay, False
        success = bool(self._rng.random() < p)
        if success and not state >> effect & 1:
            self._state = state = state | 1 << effect
            return self._observation(state), gain, True
        return self._observation(state), stay, success

    def set_state(self, flags) -> None:
        """Teleport to a state and reopen the episode (tests, checkpointing)."""
        if len(flags) != self.obs_dim:
            raise ValueError("state length does not match observation dimension")
        if not set(flags) <= {0, 1}:  # a packed state holds bits only
            raise ValueError(f"every flag must be 0 or 1, got {tuple(flags)}")
        self._state = _pack(flags)
        self._steps = 0
        self._done = False


# --- exhaustive enumeration ----------------------------------------------

def compile_world(scenario: Scenario) -> TabularMDP:
    """The exact world law over every observation reachable from the initial foothold.

    States are numbered in BFS order, ``reachable_observations``' order,
    and include terminal (objective-reached) ones, whose rows are empty.
    Each row holds ``exact_transition``'s outcomes in its order, each with
    its probability.  More than ``MAX_OBS`` states raise
    EnumerationBudgetError.
    """
    # each effect bit shifted once per rule, not once per (state, action)
    rules = [(needs, 1 << effect, p, gain, stay) for needs, effect, p, gain, stay in scenario.rules]
    goal_bit = 1 << scenario.objective_flag
    start = _pack(scenario.initial_observation())
    ids = {start: 0}
    order = [start]  # grows while the loop walks it: breadth-first
    row_start = [0]
    next_state: list[int] = []
    prob: list[float] = []
    reward: list[float] = []
    for s, state in enumerate(order):
        if state & goal_bit:  # episode over: no outgoing transitions
            row_start.extend([len(next_state)] * len(rules))
            continue
        for needs, bit, p, gain, stay in rules:
            succ = state | bit
            if succ != state:
                for need in needs:
                    if not state & need:
                        succ = state  # not eligible: a no-op
                        break
            if succ != state:
                j = ids.get(succ)
                if j is None:
                    j = ids[succ] = len(order)
                    order.append(succ)
                    if len(order) > MAX_OBS:
                        raise EnumerationBudgetError(f"more than {MAX_OBS} reachable observations")
                if p >= 1.0:
                    next_state.append(j)
                    prob.append(1.0)
                    reward.append(gain)
                else:
                    next_state += (j, s)
                    prob += (p, 1.0 - p)
                    reward += (gain, stay)
            else:
                next_state.append(s)
                prob.append(1.0)
                reward.append(stay)
            row_start.append(len(next_state))
    return TabularMDP(
        states=[_unpack(state, scenario.obs_dim) for state in order],
        action_count=len(rules),
        row_start=np.array(row_start, dtype=np.int64),
        next_state=np.array(next_state, dtype=np.int64),
        prob=np.array(prob, dtype=np.float64),
        reward=np.array(reward, dtype=np.float64),
        goal=np.array([bool(state & goal_bit) for state in order]),
        start=0,
    )


def reachable_observations(scenario: Scenario) -> list[Observation]:
    """All observations reachable from the initial foothold, BFS order.

    Includes terminal (objective-reached) observations; sources for
    planning are the non-terminal ones.
    """
    return list(scenario.law.states)


def shortest_success_path(scenario: Scenario) -> int | None:
    """Minimum number of actions to set the objective flag, all outcomes favourable.

    Returns None when the objective is unreachable.
    """
    start = _pack(scenario.initial_observation())
    goal_bit = 1 << scenario.objective_flag
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            for needs, effect, _, _, _ in scenario.rules:
                out = state | 1 << effect
                if out in seen or not all(state & need for need in needs):
                    continue
                if out & goal_bit:
                    return depth
                seen.add(out)
                if len(seen) > MAX_OBS:
                    raise EnumerationBudgetError(f"more than {MAX_OBS} reachable observations")
                nxt.append(out)
        frontier = nxt
    return None
