"""Evaluation, sim-to-world transfer, model fidelity and game-design studies.

Everything here is read-only with respect to policies and models: rollouts
are greedy (no exploration, no learning) and reports are plain values that
the CLI exports to JSON and CSV for external plotting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import LoadedPolicy, TrainConfig, greedy_action, train_q_learning, value_iteration
from .empirical import EmpiricalModel, EmpiricalSim, IncompatibleModelError, SimConfig
from .envapi import Env, Observation, rollout
from .world import Scenario, shortest_success_path

# The benchmark's per-layer tracer (perfbench/layers.py) wraps these names here too.
from .world import exact_transition, reachable_observations  # noqa: F401, E402


class IncompatiblePolicyError(Exception):
    """Policy and environment disagree on dimensions or provenance."""


@dataclass
class EvalReport:
    environment: str
    episodes: int
    mean_return: float
    std_return: float
    mean_length: float
    std_length: float
    success_rate: float
    coa: list[list[int]] = field(default_factory=list)

    def to_dict(self, include_traces: bool = True) -> dict:
        doc = vars(self).copy()
        if not include_traces:
            del doc["coa"]
        return doc


def check_compat(env: Env, policy) -> None:
    """Raise IncompatiblePolicyError unless a ``LoadedPolicy`` fits ``env``; a bare policy has none to check."""
    if not isinstance(policy, LoadedPolicy):
        return
    if (policy.obs_dim, policy.action_count) != (env.obs_dim, env.action_count):
        raise IncompatiblePolicyError(
            f"policy dims ({policy.obs_dim}, {policy.action_count}) do not "
            f"match environment ({env.obs_dim}, {env.action_count})"
        )
    if policy.fingerprint != env.fingerprint:  # exact, as ``_check_source`` compares a model's
        raise IncompatiblePolicyError(
            "policy was trained against a different environment "
            f"(fingerprint {policy.fingerprint[:12]} vs {env.fingerprint[:12]})"
        )


def _check_source(model_fingerprint: str, env_fingerprint: str) -> None:
    if model_fingerprint != env_fingerprint:
        raise IncompatibleModelError(
            f"model was generated from another environment "
            f"(fingerprint {model_fingerprint[:12]} vs {env_fingerprint[:12]})"
        )


def evaluate_policy(
    env: Env,
    policy,
    episodes: int,
    seed: int,
    environment_tag: str = "env",
) -> EvalReport:
    """Greedy rollouts; deterministic given the seed, side-effect free on the policy.

    A ``LoadedPolicy`` that does not fit ``env`` raises IncompatiblePolicyError.
    """
    check_compat(env, policy)
    choose = lambda obs: greedy_action(policy, obs)
    return _greedy_eval(env, choose, episodes, seed, environment_tag)


def _greedy_eval(env: Env, choose, episodes: int, seed: int, environment_tag: str) -> EvalReport:
    """The report of ``evaluate_policy``, choosing each action with ``choose(obs)``."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    returns = np.zeros(episodes)
    lengths = np.zeros(episodes)
    successes = 0
    traces: list[list[int]] = []
    total = 0.0
    steps = rollout(env, choose, episodes, seed)
    for ep, step, _, action, res in steps:
        if step == 0:
            trace: list[int] = []
            traces.append(trace)
        trace.append(action)
        total += res.reward
        if res.done:
            returns[ep] = total
            lengths[ep] = step + 1
            successes += 1 if res.info["goal"] else 0
            total = 0.0
    return EvalReport(
        environment=environment_tag,
        episodes=episodes,
        mean_return=float(returns.mean()),
        std_return=float(returns.std()),
        mean_length=float(lengths.mean()),
        std_length=float(lengths.std()),
        success_rate=successes / episodes,
        coa=traces,
    )


def _coa_agreement(a: list[list[int]], b: list[list[int]]) -> float:
    """Mean shared-prefix fraction over paired episodes.

    Greedy policies only diverge where stochastic outcomes differ, so this
    is 1.0 exactly on deterministic scenarios and decays with divergence.
    """
    scores = []
    for ta, tb in zip(a, b):
        prefix = 0
        for x, y in zip(ta, tb):
            if x != y:
                break
            prefix += 1
        scores.append(prefix / max(len(ta), len(tb), 1))
    return float(np.mean(scores)) if scores else 1.0


@dataclass
class TransferReport:
    world: EvalReport
    sim: EvalReport | None
    optimal_return: float | None
    return_gap: float | None
    normalized_gap: float | None
    world_gap_to_optimal: float | None
    coa_agreement: float | None
    world_pairs_in_model: float | None

    def to_dict(self) -> dict:
        doc = vars(self).copy()
        doc["world"] = self.world.to_dict(include_traces=False)
        doc["sim"] = self.sim.to_dict(include_traces=False) if self.sim else None
        return doc


def transfer_eval(
    policy,
    world_env: Env,
    sim_env: Env | None = None,
    episodes: int = 50,
    seed: int = 0,
    optimal_return: float | None = None,
) -> TransferReport:
    """Run the same greedy policy in the world (and optionally its source sim).

    The normalised gap is |world return - sim return| / max(1, |optimal|),
    and the report also notes what fraction of the (obs, action) pairs the
    policy visited in the world were ever seen by the model -- the coverage
    diagnostic that explains widening gaps on starved datasets.  Each world
    episode is played once; the coverage comes from the evaluated steps.
    A sim from another environment than the world raises IncompatibleModelError,
    and a ``LoadedPolicy`` that does not fit either one IncompatiblePolicyError.
    """
    check_compat(world_env, policy)
    if sim_env is not None:
        _check_source(sim_env.fingerprint, world_env.fingerprint)
    world_pairs: list[tuple[Observation, int]] = []

    def choose(obs):
        action = greedy_action(policy, obs)
        world_pairs.append((obs, action))
        return action

    world_report = _greedy_eval(world_env, choose, episodes, seed, "world")
    sim_report = None
    agreement = None
    gap = None
    norm_gap = None
    coverage = None
    if sim_env is not None:
        sim_report = evaluate_policy(sim_env, policy, episodes, seed, "sim")
        agreement = _coa_agreement(sim_report.coa, world_report.coa)
        gap = abs(world_report.mean_return - sim_report.mean_return)
        if optimal_return is not None:
            norm_gap = gap / max(1.0, abs(optimal_return))
        if isinstance(sim_env, EmpiricalSim):
            known = sum(1 for obs, action in world_pairs if sim_env.model.has_pair(obs, action))
            coverage = known / len(world_pairs)
    world_gap = None
    if optimal_return is not None:
        world_gap = abs(world_report.mean_return - optimal_return) / max(
            1.0, abs(optimal_return)
        )
    return TransferReport(
        world=world_report,
        sim=sim_report,
        optimal_return=optimal_return,
        return_gap=gap,
        normalized_gap=norm_gap,
        world_gap_to_optimal=world_gap,
        coa_agreement=agreement,
        world_pairs_in_model=coverage,
    )


# --- fidelity ----------------------------------------------------------------

@dataclass
class PairFidelity:
    obs: Observation
    action: int
    visits: int
    tv_distance: float


@dataclass
class FidelityReport:
    visit_threshold: int
    reachable_pairs: int
    visited_pairs: int
    coverage: float
    confident_pairs: int
    low_confidence_pairs: int
    max_tv_confident: float
    mean_tv_confident: float
    pairs: list[PairFidelity]

    def to_dict(self) -> dict:
        doc = vars(self).copy()
        doc["pairs"] = [vars(p).copy() for p in self.pairs]
        return doc


def _tv_distance(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def fidelity_report(
    model: EmpiricalModel,
    scenario: Scenario,
    visit_threshold: int = 200,
) -> FidelityReport:
    """Total-variation distance between the model and the exact world law.

    Computed per reachable (observation, action) pair.  Pairs with at least
    ``visit_threshold`` visits are held to the fidelity bar; everything
    below it (including never-visited pairs) counts as low-confidence.
    """
    _check_source(model.fingerprint, scenario.fingerprint)
    law = scenario.law
    states, actions = law.states, law.action_count
    row_start, next_state, weight = law.row_start.tolist(), law.next_state.tolist(), law.weight.tolist()
    sources = np.flatnonzero(~law.goal).tolist()
    pairs: list[PairFidelity] = []
    confident_tv = []
    for s in sources:
        obs = states[s]
        for action in range(actions):
            outcomes = model.counts.get((obs, action))
            if outcomes is None:
                continue
            row = s * actions + action
            lo, hi = row_start[row], row_start[row + 1]
            exact = {states[j]: p for j, p in zip(next_state[lo:hi], weight[lo:hi])}
            tv = _tv_distance(model.distribution(obs, action), exact)
            pair = PairFidelity(obs, action, sum(outcomes.values()), tv)
            pairs.append(pair)
            if pair.visits >= visit_threshold:
                confident_tv.append(pair.tv_distance)

    reachable = len(sources) * actions
    return FidelityReport(
        visit_threshold=visit_threshold,
        reachable_pairs=reachable,
        visited_pairs=len(pairs),
        coverage=len(pairs) / reachable if reachable else 1.0,
        confident_pairs=len(confident_tv),
        low_confidence_pairs=reachable - len(confident_tv),
        max_tv_confident=max(confident_tv) if confident_tv else 0.0,
        mean_tv_confident=float(np.mean(confident_tv)) if confident_tv else 0.0,
        pairs=pairs,
    )


# --- game design study --------------------------------------------------------

# The gap to the optimum, relative to max(1, |optimum|), within which a horizon converges.
STUDY_TOLERANCE = 0.05


@dataclass
class HorizonOutcome:
    max_steps: int
    optimal_return: float
    trained_return: float
    success_rate: float
    within_tolerance: bool
    converged: bool


@dataclass
class MaxStepsStudy:
    shortest_path: int
    tolerance: float
    rows: list[HorizonOutcome]

    def to_dict(self) -> dict:
        doc = vars(self).copy()
        doc["rows"] = [vars(r).copy() for r in self.rows]
        return doc


def max_steps_study(
    model: EmpiricalModel,
    scenario: Scenario,
    max_steps_values,
    train_config: TrainConfig,
    eval_episodes: int = 300,
    seed: int = 0,
) -> MaxStepsStudy:
    """Train one agent per game horizon on the same model, re-gaming the sim.

    Convergence means the trained greedy return lands within
    ``STUDY_TOLERANCE`` of the horizon-adjusted value-iteration optimum AND
    the goal is actually reached; a horizon too short for any success path
    is reported as non-converged even though its (purely negative) optimum
    is trivially matched.
    """
    _check_source(model.fingerprint, scenario.fingerprint)
    rows = []
    for max_steps in max_steps_values:
        config = SimConfig.from_model(model, max_steps=max_steps)
        sim = EmpiricalSim(model, config, seed=seed)
        result = train_q_learning(sim, train_config)
        eval_sim = EmpiricalSim(model, config, seed=seed)
        report = evaluate_policy(eval_sim, result.policy, eval_episodes, seed, "sim")
        solution = value_iteration(scenario, horizon=max_steps)
        within = abs(report.mean_return - solution.optimal_return) <= STUDY_TOLERANCE * max(
            1.0, abs(solution.optimal_return)
        )
        rows.append(
            HorizonOutcome(
                max_steps=int(max_steps),
                optimal_return=solution.optimal_return,
                trained_return=report.mean_return,
                success_rate=report.success_rate,
                within_tolerance=within,
                converged=within and report.success_rate > 0.0,
            )
        )
    return MaxStepsStudy(
        shortest_path=shortest_success_path(scenario),
        tolerance=STUDY_TOLERANCE,
        rows=rows,
    )

