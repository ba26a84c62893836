"""Evaluation, sim-to-world transfer, model fidelity and game-design studies.

Everything here is read-only with respect to policies and models: rollouts
are greedy (no exploration, no learning) and reports are plain values that
the CLI exports to JSON and CSV for external plotting.  A model, sim or
loaded policy must name the network of the scenario or world it meets, as
``envapi.require_same_network`` compares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agents import LoadedPolicy, TrainConfig, greedy_action, train_q_learning, value_iteration
from .empirical import EmpiricalModel, EmpiricalSim, IncompatibleModelError, SimConfig
from .envapi import COUNT, STEPS, Env, Observation, game_number, require_same_network, rollout
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
    if isinstance(policy, LoadedPolicy):
        require_same_network(policy, env, IncompatiblePolicyError, "policy was trained against")


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
    game_number(episodes, "episodes", STEPS)
    returns = np.zeros(episodes)
    lengths = np.zeros(episodes)
    successes = 0
    traces: list[list[int]] = []
    total = 0.0
    for ep, step, _, action, next_obs, reward, done, _ in rollout(env, choose, episodes, seed):
        if step == 0:
            trace: list[int] = []
            traces.append(trace)
        trace.append(action)
        total += reward
        if done:
            returns[ep] = total
            lengths[ep] = step + 1
            successes += 1 if env.game.is_goal(next_obs) else 0
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
    A sim from another environment than the world (another fingerprint,
    ``obs_dim`` or action count) raises IncompatibleModelError,
    and a ``LoadedPolicy`` that does not fit either one IncompatiblePolicyError.
    """
    check_compat(world_env, policy)
    if sim_env is not None:
        require_same_network(sim_env, world_env, IncompatibleModelError, "model was generated from")
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
            table, actions = sim_env.model.table, sim_env.action_count
            rows = [table.index[obs] * actions + action for obs, action in world_pairs if obs in table.index]
            coverage = np.count_nonzero(table.visits[rows]) / len(world_pairs)
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


def _row_entries(row_start: np.ndarray, rows: np.ndarray):
    """For each entry of ``rows``, row by row: its position, and the index in ``rows`` of the row it is in."""
    lo, length = row_start[rows], row_start[rows + 1] - row_start[rows]
    owner = np.repeat(np.arange(len(rows)), length)
    return np.arange(len(owner)) + np.repeat(lo - (np.cumsum(length) - length), length), owner


def fidelity_report(
    model: EmpiricalModel,
    scenario: Scenario,
    visit_threshold: int = 200,
) -> FidelityReport:
    """Total-variation distance between the model and the exact world law.

    Computed per reachable (observation, action) pair.  Pairs with at least
    ``visit_threshold`` visits are held to the fidelity bar; everything
    below it (including never-visited pairs) counts as low-confidence.
    The world's table and the model's are read row against row, aligned by
    observation; a pair's TV adds its per-outcome differences in the order
    of the model's state ids, outcomes the model never saw last.
    """
    game_number(visit_threshold, "visit_threshold", COUNT)
    require_same_network(model, scenario, IncompatibleModelError, "model was generated from")
    law, table = scenario.law, model.table
    actions, n_model = law.action_count, len(table.states)
    # each world state's model id, or n_model + its world id where the model never saw it
    model_id = np.array([table.index.get(obs, -1) for obs in law.states], dtype=np.int64)
    model_id = np.where(model_id < 0, n_model + np.arange(len(law.states)), model_id)
    sources = np.flatnonzero(~law.goal & (model_id < n_model))
    world_rows = (sources[:, None] * actions + np.arange(actions)).ravel()  # the report's pair order
    model_rows = (model_id[sources][:, None] * actions + np.arange(actions)).ravel()
    visited = table.visits[model_rows] > 0
    world_rows, model_rows = world_rows[visited], model_rows[visited]
    visits = table.visits[model_rows]
    # every outcome of a pair, keyed by (pair, next state) and kept apart by side
    width = n_model + len(law.states)
    model_entry, model_pair = _row_entries(table.row_start, model_rows)
    world_entry, world_pair = _row_entries(law.row_start, world_rows)
    keys, run = np.unique(
        np.concatenate((
            model_pair * width + table.next_state[model_entry],
            world_pair * width + model_id[law.next_state[world_entry]],
        )),
        return_inverse=True,
    )
    p_model, p_world = np.zeros(len(keys)), np.zeros(len(keys))
    p_model[run[: len(model_entry)]] = table.prob[model_entry]
    p_world[run[len(model_entry):]] = law.prob[world_entry]
    tv = 0.5 * np.bincount(keys // width, np.abs(p_model - p_world), len(world_rows))
    confident_tv = tv[visits >= visit_threshold]
    pairs = [
        PairFidelity(law.states[row // actions], row % actions, n, d)
        for row, n, d in zip(world_rows.tolist(), visits.tolist(), tv.tolist())
    ]
    reachable = int(np.count_nonzero(~law.goal)) * actions
    return FidelityReport(
        visit_threshold=visit_threshold,
        reachable_pairs=reachable,
        visited_pairs=len(pairs),
        coverage=len(pairs) / reachable if reachable else 1.0,
        confident_pairs=len(confident_tv),
        low_confidence_pairs=reachable - len(confident_tv),
        max_tv_confident=float(confident_tv.max()) if len(confident_tv) else 0.0,
        mean_tv_confident=float(np.mean(confident_tv)) if len(confident_tv) else 0.0,
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
    require_same_network(model, scenario, IncompatibleModelError, "model was generated from")
    rows = []
    for max_steps in max_steps_values:
        config = SimConfig.from_model(model, max_steps=max_steps)
        sim = EmpiricalSim(model, config, seed=seed)
        result = train_q_learning(sim, train_config)
        report = evaluate_policy(sim, result.policy, eval_episodes, seed, "sim")  # re-seeds the sim
        solution = value_iteration(scenario, horizon=max_steps)
        within = abs(report.mean_return - solution.optimal_return) <= STUDY_TOLERANCE * max(
            1.0, abs(solution.optimal_return)
        )
        rows.append(
            HorizonOutcome(
                max_steps=max_steps,
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

