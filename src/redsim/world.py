"""Ground-truth stochastic attack-graph environment.

The world is the slow-but-true side of the pipeline: a small network of
hosts with scan / exploit / escalate / objective actions, stochastic
action outcomes, and an exact transition-distribution oracle that fidelity
tests and the value-iteration planner consume directly.

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
from pathlib import Path

from .envapi import (
    Env,
    GameConfig,
    Observation,
    compute_reward,
)

ACTION_KINDS = ("scan", "exploit_user", "escalate_root", "objective")


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


@dataclass(frozen=True)
class RewardConfig:
    """Worth granted the first time each kind of access appears, plus costs."""

    user_worth: float = 0.0
    root_worth: float = 0.0
    objective_bonus: float = 100.0
    action_cost: float = 1.0

    def __post_init__(self):
        for name in ("user_worth", "root_worth", "objective_bonus"):
            if getattr(self, name) < 0:
                raise ScenarioParseError(f"reward.{name} must be non-negative")
        if self.action_cost <= 0:
            raise ScenarioParseError("reward.action_cost must be strictly positive")


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

    @property
    def host_index(self) -> dict[str, int]:
        return {h.id: i for i, h in enumerate(self.hosts)}

    @property
    def obs_dim(self) -> int:
        return 3 * len(self.hosts) + 1

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


def _auto_actions(hosts, objective_host, defaults, default_cost) -> list[dict]:
    """Standard action set: scan/exploit/escalate per host plus one objective."""
    out = []
    for host in hosts:
        for kind in ("scan", "exploit_user", "escalate_root"):
            spec = dict(defaults.get(kind, {}))
            out.append(
                {
                    "kind": kind,
                    "target": host["id"],
                    "success_prob": spec.get("success_prob", 1.0),
                    "cost": spec.get("cost", default_cost),
                }
            )
    spec = dict(defaults.get("objective", {}))
    out.append(
        {
            "kind": "objective",
            "target": objective_host,
            "success_prob": spec.get("success_prob", 1.0),
            "cost": spec.get("cost", default_cost),
        }
    )
    return out


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario document and return the immutable Scenario.

    Raises ScenarioParseError / DanglingReferenceError /
    UnreachableObjectiveError as appropriate; a value of the wrong type
    (or an infinite ``max_steps``) anywhere in the document raises
    ScenarioParseError.
    """
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    try:
        scenario = _parse_document(data)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:  # overflow: int(Infinity)
        raise ScenarioParseError(f"malformed scenario document: {exc}") from None
    _check_objective_reachable(scenario)
    return scenario


def _parse_document(data: dict) -> Scenario:
    try:
        host_docs = list(data["hosts"])
        entry_host = data["entry_host"]
        objective_host = data["objective_host"]
    except KeyError as exc:
        raise ScenarioParseError(f"missing required key {exc}") from None

    hosts = []
    seen = set()
    for doc in host_docs:
        hid = doc.get("id")
        if not isinstance(hid, str) or not hid:
            raise ScenarioParseError("every host needs a non-empty string id")
        if hid in seen:
            raise ScenarioParseError(f"duplicate host id {hid!r}")
        seen.add(hid)
        worth = float(doc.get("worth", 0.0))
        if worth < 0:
            raise ScenarioParseError(f"host {hid!r} worth must be non-negative")
        hosts.append(
            HostSpec(id=hid, worth=worth, neighbors=tuple(doc.get("neighbors", ())))
        )
    if not hosts:
        raise ScenarioParseError("scenario needs at least one host")

    ids = {h.id for h in hosts}
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
    reward = RewardConfig(
        user_worth=float(reward_doc.get("user_worth", 0.0)),
        root_worth=float(reward_doc.get("root_worth", 0.0)),
        objective_bonus=float(reward_doc.get("objective_bonus", 100.0)),
        action_cost=float(reward_doc.get("action_cost", 1.0)),
    )

    if data.get("auto_actions"):
        if "actions" in data:
            raise ScenarioParseError("give either auto_actions or an explicit action list")
        action_docs = _auto_actions(
            host_docs, objective_host, data.get("action_defaults", {}), reward.action_cost
        )
    else:
        action_docs = data.get("actions")
        if not action_docs:
            raise ScenarioParseError("scenario needs actions or auto_actions: true")

    actions = []
    for i, doc in enumerate(action_docs):
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
        prob = float(doc.get("success_prob", 1.0))
        if not 0.0 < prob <= 1.0:
            raise ScenarioParseError(f"action {i}: success_prob must be in (0, 1]")
        cost = float(doc.get("cost", reward.action_cost))
        if cost <= 0:
            raise ScenarioParseError(f"action {i}: cost must be strictly positive")
        actions.append(
            ActionSpec(id=i, kind=kind, target=target, success_prob=prob, cost=cost)
        )

    game_doc = data.get("game", {})
    game = GameConfig(
        max_steps=int(game_doc.get("max_steps", 100)),
        gamma=float(game_doc.get("gamma", 1.0)),
        goal_index=3 * len(hosts),
    )

    noise = float(data.get("noise", 0.0))
    if not 0.0 <= noise < 0.5:
        raise ScenarioParseError("noise must be in [0, 0.5)")

    return Scenario(
        name=str(data.get("name", "")),
        hosts=tuple(hosts),
        entry_host=entry_host,
        objective_host=objective_host,
        actions=tuple(actions),
        reward=reward,
        game=game,
        noise=noise,
        step_latency_ms=float(data.get("step_latency_ms", 0.0)),
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
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}") from None
    return parse_scenario(data)


# --- exact dynamics -------------------------------------------------------

def preconditions_met(scenario: Scenario, flags, action: ActionSpec) -> bool:
    idx = scenario.host_index
    t = idx[action.target]
    hosts = scenario.hosts

    def foothold_near(target_i: int) -> bool:
        for nb in hosts[target_i].neighbors:
            n = idx[nb]
            if flags[3 * n + 1] or flags[3 * n + 2]:
                return True
        return False

    if action.kind == "scan":
        return foothold_near(t)
    if action.kind == "exploit_user":
        return bool(flags[3 * t]) and foothold_near(t)
    if action.kind == "escalate_root":
        return bool(flags[3 * t + 1])
    if action.kind == "objective":
        return bool(flags[3 * t + 2])
    raise ValueError(f"unknown action kind {action.kind!r}")


def action_effect(scenario: Scenario, flags, action: ActionSpec) -> Observation:
    """Observation after the action succeeds (idempotent on set flags)."""
    t = scenario.host_index[action.target]
    out = list(flags)
    if action.kind == "scan":
        out[3 * t] = 1
    elif action.kind == "exploit_user":
        out[3 * t + 1] = 1
    elif action.kind == "escalate_root":
        out[3 * t + 2] = 1
    elif action.kind == "objective":
        out[scenario.objective_flag] = 1
    return tuple(out)


def effective_success_prob(scenario: Scenario, action: ActionSpec) -> float:
    """Success probability after folding in the outcome-corruption noise.

    With probability ``noise`` the sampled outcome of an eligible action is
    inverted, modelling emulator flakiness (failed resets, dropped sessions).
    Actions whose preconditions are unmet stay no-ops regardless.
    """
    p = action.success_prob
    eps = scenario.noise
    return p * (1.0 - eps) + (1.0 - p) * eps


def exact_transition(scenario: Scenario, flags, action: ActionSpec):
    """Exact outcome distribution as a list of (next_obs, probability).

    This is the oracle the fidelity report and value iteration integrate
    over; the sampling environment draws from exactly this distribution.
    Outcomes that coincide (idempotent effects) are merged.
    """
    if not preconditions_met(scenario, flags, action):
        return [(tuple(flags), 1.0)]
    success = action_effect(scenario, flags, action)
    if success == tuple(flags):
        return [(tuple(flags), 1.0)]
    p = effective_success_prob(scenario, action)
    if p >= 1.0:
        return [(success, 1.0)]
    return [(success, p), (tuple(flags), 1.0 - p)]


class AttackWorld(Env):
    """Samples episodes from the scenario's exact transition distributions."""

    def __init__(self, scenario: Scenario, seed: int = 0):
        super().__init__(scenario.game, seed)
        self.scenario = scenario
        self.obs_dim = scenario.obs_dim
        self.action_count = len(scenario.actions)
        self.fingerprint = scenario.fingerprint
        self._worths = scenario.flag_worths()
        self._latency_s = scenario.step_latency_ms / 1000.0
        self._flags = scenario.initial_observation()

    def _reset_state(self) -> Observation:
        self._flags = self.scenario.initial_observation()
        return self._flags

    def _apply_action(self, action: int):
        if self._latency_s > 0:
            time.sleep(self._latency_s)
        spec = self.scenario.actions[action]
        flags = self._flags
        if preconditions_met(self.scenario, flags, spec):
            success = bool(
                self._rng.random() < effective_success_prob(self.scenario, spec)
            )
            next_flags = action_effect(self.scenario, flags, spec) if success else flags
        else:
            success = False
            next_flags = flags
        reward = compute_reward(self._worths, flags, next_flags, spec.cost)
        self._flags = next_flags
        return next_flags, reward, {"action_success": success}

    def set_state(self, flags) -> None:
        """Teleport to a state and reopen the episode (tests, checkpointing)."""
        if len(flags) != self.obs_dim:
            raise ValueError("state length does not match observation dimension")
        self._flags = tuple(int(v) for v in flags)
        self._steps = 0
        self._done = False

    def metadata(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "obs_dim": self.obs_dim,
            "action_count": self.action_count,
            "reward": {
                "flag_worths": list(self._worths),
                "action_costs": list(self.scenario.action_costs()),
            },
            "game": {
                "max_steps": self.game.max_steps,
                "gamma": self.game.gamma,
                "goal_index": self.game.goal_index,
            },
        }


# --- exhaustive enumeration ----------------------------------------------

def reachable_observations(scenario: Scenario, max_obs: int = 100_000) -> list[Observation]:
    """All observations reachable from the initial foothold, BFS order.

    Includes terminal (objective-reached) observations; sources for
    planning are the non-terminal ones.
    """
    start = scenario.initial_observation()
    seen = {start}
    order = [start]
    frontier = [start]
    goal_index = scenario.objective_flag
    while frontier:
        nxt = []
        for obs in frontier:
            if obs[goal_index] == 1:
                continue  # episode over: no outgoing transitions
            for action in scenario.actions:
                for out, _prob in exact_transition(scenario, obs, action):
                    if out not in seen:
                        seen.add(out)
                        if len(seen) > max_obs:
                            raise EnumerationBudgetError(
                                f"more than {max_obs} reachable observations"
                            )
                        order.append(out)
                        nxt.append(out)
        frontier = nxt
    return order


def _check_objective_reachable(scenario: Scenario) -> None:
    if shortest_success_path(scenario) is None:
        raise UnreachableObjectiveError(
            f"objective host {scenario.objective_host!r} cannot be reached "
            "from the entry foothold with the declared actions"
        )


def shortest_success_path(scenario: Scenario, max_obs: int = 100_000) -> int | None:
    """Minimum number of actions to set the objective flag, all outcomes favourable.

    Returns None when the objective is unreachable.
    """
    start = scenario.initial_observation()
    goal_index = scenario.objective_flag
    seen = {start}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for obs in frontier:
            for action in scenario.actions:
                if not preconditions_met(scenario, obs, action):
                    continue
                out = action_effect(scenario, obs, action)
                if out[goal_index] == 1:
                    return depth
                if out not in seen:
                    seen.add(out)
                    if len(seen) > max_obs:
                        raise EnumerationBudgetError(
                            f"more than {max_obs} reachable observations"
                        )
                    nxt.append(out)
        frontier = nxt
    return None
