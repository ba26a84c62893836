"""Shared fixtures: desk scenarios and the acceptance-scale dataset.

The heavy fixtures are session-scoped and lazy, so unit-test runs that do
not touch them stay fast.
"""

from __future__ import annotations

import pytest

from redsim import agents, collect, empirical, presets, world

# Frozen pipeline seeds: the statistical assertions in the suite are exact
# replays, not flaky re-draws.
DATASET_SEED = 20240601
DATASET_EPISODES = 2050  # ~157k steps on the desk5 chain at max_steps=80


def count_transitions(transitions) -> dict:
    """The ``counts`` an ``EmpiricalModel`` is made with: ``(obs, action, next_obs, n)`` tallied, repeats added."""
    counts: dict = {}
    for obs, action, next_obs, n in transitions:
        outcomes = counts.setdefault((tuple(obs), action), {})
        outcomes[tuple(next_obs)] = outcomes.get(tuple(next_obs), 0) + n
    return counts


def table_distribution(model, obs, action) -> dict:
    """``{next_obs: probability}`` of one pair as ``model.table.prob`` holds it, one entry per outcome in its row."""
    table = model.table
    row = table.index[tuple(obs)] * model.action_count + action
    entries = range(table.row_start[row], table.row_start[row + 1])
    return {table.states[table.next_state[e]]: float(table.prob[e]) for e in entries}


@pytest.fixture(scope="session")
def desk5() -> world.Scenario:
    return world.parse_scenario(presets.chain_scenario())


@pytest.fixture(scope="session")
def mesh() -> world.Scenario:
    return world.parse_scenario(presets.mesh_scenario())


@pytest.fixture(scope="session")
def det3() -> world.Scenario:
    return world.parse_scenario(presets.deterministic_chain())


@pytest.fixture(scope="session")
def desk5_dataset(desk5, tmp_path_factory) -> collect.CollectionResult:
    """Random-policy dataset at full pipeline scale (~157k steps)."""
    out = tmp_path_factory.mktemp("dataset") / "desk5.jsonl"
    env = world.AttackWorld(desk5, seed=DATASET_SEED)
    policy = collect.uniform_random_policy(env.action_count)
    return collect.run_collection(env, policy, DATASET_EPISODES, DATASET_SEED, out_path=out)


@pytest.fixture(scope="session")
def desk5_model(desk5, desk5_dataset) -> empirical.EmpiricalModel:
    return empirical.build_model(
        desk5_dataset.records,
        obs_dim=desk5.obs_dim,
        action_count=len(desk5.actions),
        fingerprint=desk5.fingerprint,
        metadata={
            "reward": desk5_dataset.manifest["reward"],
            "game": desk5_dataset.manifest["game"],
        },
    )


@pytest.fixture(scope="session")
def desk5_solution(desk5) -> agents.ValueSolution:
    return agents.value_iteration(desk5)


@pytest.fixture(scope="session")
def desk5_sim_policy(desk5_model) -> agents.TrainResult:
    """Q-learning agent trained only in the generated sim."""
    config = agents.TrainConfig(episodes=6000, seed=11, epsilon_decay_steps=20_000)
    sim = empirical.EmpiricalSim(desk5_model, seed=11)
    return agents.train_q_learning(sim, config)
